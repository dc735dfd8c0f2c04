"""Scaling guard: ``Application.combine`` runs no Python per record or item.

A count, not a clock: under ``sys.setprofile`` the number of Python-level
function calls ``app.combine`` makes must stay (nearly) flat when the
records grow tenfold — array operations absorb the rows, and only the
per-task, per-source, per-class and per-EM-iteration structure is left in
Python.  A loop that calls anything once per record or per sequence
position multiplies the count by ten and fails this, on any host, exactly.

The application under test declares no slices: slice membership calls
``SliceSpec.member`` (possibly a user predicate) once per record by design
and is not part of the supervision path guarded here.
"""

import pytest

from repro.api import Application
from repro.workloads import resolve_workload

from tests.helpers import python_calls


@pytest.mark.parametrize("method", ["majority", "label_model"])
def test_combine_call_count_does_not_scale_with_records(method):
    counts = {}
    for scale in (100, 1000):
        built = resolve_workload("synth-medium", scale=scale, seed=1)
        seeded = built.application
        app = Application(seeded.schema, supervision=seeded.supervision)
        records = built.dataset.split("train").records
        counts[len(records)] = python_calls(lambda: app.combine(records, method=method))
        again = python_calls(lambda: app.combine(records, method=method))
        assert again == counts[len(records)], "the count must repeat exactly"
    (small_n, small), (large_n, large) = sorted(counts.items())
    assert large_n == 10 * small_n
    assert large < 2 * small, counts
