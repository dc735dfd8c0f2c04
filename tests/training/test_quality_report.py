"""The quality report is one inference pass, scored per tag.

The oracle is the algorithm the report replaced: one :func:`evaluate`
call per tag over that tag's records, "overall" first.  Sequences pad to
a fixed ``max_length``, so a record's prediction does not depend on which
records share its batch, and slicing one pass's arrays by a tag's rows
must give exactly the rows of the per-tag passes.
"""

from __future__ import annotations

import math

import pytest

from repro.core import ModelConfig
from repro.data import is_slice_tag
from repro.model.multitask import MultitaskModel
from repro.training import evaluate
from repro.workloads import build_workload, workload_names

from tests.helpers import python_calls

SCALE = 90
ABSENT = "no-such-tag"


def fit_workload(name: str, encoder: str = "bow", dtype: str = "float64"):
    """A one-epoch run of a registered workload; sequence payloads use ``encoder``."""
    workload = build_workload(name, scale=SCALE)
    app, dataset = workload.application, workload.dataset
    spec = workload.model_config.to_dict()
    spec["dtype"] = dtype
    spec["trainer"]["epochs"] = 1
    for payload in app.schema.payloads:
        if payload.type == "sequence" and payload.name in spec["payloads"]:
            spec["payloads"][payload.name]["encoder"] = encoder
    run = app.fit(dataset, ModelConfig.from_dict(spec))
    return run, dataset


def oracle_rows(run, dataset, tags):
    """Per-tag ``evaluate`` passes: the report's reference algorithm."""
    app, trained = run.application, run.trained
    records = dataset.records
    if tags is None:
        tags = sorted({tag for r in records for tag in r.tags})
    groups = [("overall", list(records))]
    groups += [(tag, [r for r in records if r.has_tag(tag)]) for tag in tags]
    rows = []
    for tag, subset in groups:
        evals = evaluate(
            trained.model, subset, app.schema, trained.vocabs,
            app.supervision.gold_source,
        )
        rows += [(tag, task, e.n, e.metrics) for task, e in evals.items()]
    return rows


def report_rows(report):
    return [(r.tag, r.task, r.n, r.metrics) for r in report.rows]


CASES = [(name, "bow", "float64") for name in workload_names()] + [
    ("factoid", "lstm", "float32"),
    ("synth-hard", "cnn", "float32"),
]


@pytest.mark.parametrize("name,encoder,dtype", CASES)
def test_rows_equal_the_per_tag_evaluate_oracle(name, encoder, dtype):
    run, dataset = fit_workload(name, encoder, dtype)
    slices = [t for t in dataset.tag_table().all_tags if is_slice_tag(t)][:1]
    for tags in (None, [], ["test", "dev"] + slices, [ABSENT, "train"]):
        assert report_rows(run.report(dataset, tags=tags)) == oracle_rows(
            run, dataset, tags
        ), tags
    absent = run.report(dataset, tags=[ABSENT]).for_tag(ABSENT)
    assert [(r.n, r.metrics) for r in absent] == [(0, {})] * len(
        run.application.schema.tasks
    )


@pytest.fixture(scope="module")
def factoid_run():
    return fit_workload("factoid")


@pytest.mark.parametrize("tags", [[], ["dev", "test"], None], ids=["0", "2", "all"])
def test_report_predicts_every_record_once(factoid_run, tags):
    run, dataset = factoid_run
    assert len(dataset.tag_table().all_tags) > 2
    calls = python_calls(
        lambda: run.report(dataset, tags=tags), of=MultitaskModel.predict
    )
    assert calls == math.ceil(len(dataset.records) / 64)
