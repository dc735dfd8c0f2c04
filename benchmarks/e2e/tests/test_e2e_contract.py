"""``BENCHMARK.json`` against the driver's schema, and the result builders against it."""

import json
import re
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(E2E))

from harness import metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_and_command():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_are_the_four_the_entry_point_runs():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == ["serve_light", "serve_heavy_pool", "fit", "tune"]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_entries_have_exactly_the_contract_keys():
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_serve_layer_timings_are_declared_for_both_phases():
    names = {m["name"] for m in SPEC["per_layer"]}
    for name in names:
        stem, _, phase = name.rpartition(".")
        if phase in metrics.SERVE_PHASES:
            assert {f"{stem}.{p}" for p in metrics.SERVE_PHASES} <= names


def test_names_and_units_are_well_formed_and_unique():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(
        UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        for m in SPEC["end_to_end"] + SPEC["per_layer"]
    )


def test_result_builders_emit_exactly_the_declared_metrics():
    end_to_end = metrics.end_to_end_result(
        {name: 1.5 for name, _ in metrics.END_TO_END}
    )
    assert list(end_to_end) == [m["name"] for m in SPEC["end_to_end"]]
    layers = metrics.per_layer_result({"tensor.backward_ms": 8.0})
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert layers["tensor.backward_ms"] == {"value": 8.0, "unit": "ms"}
    # A layer the workload never enters reads zero, times and counts alike.
    assert layers["serve.shm.pack_us"] == {"value": 0.0, "unit": "us"}
    assert layers["training.trainer.steps"]["value"] == 0.0
