"""Figure 4a: relative quality vs weak-supervision scale (1x -> 32x).

Paper's result: downsampling training data and measuring test quality on
three representative tasks (one per payload granularity: singleton,
sequence, set), "increasing the amount of supervision consistently results
in improved quality across all tasks.  Going from 30K examples or so (1x)
to 1M examples (32x) leads to a 12%+ bump in two tasks and a 5% bump in one
task."

Reproduction: the simulator scales 1x = 75 weakly-labeled training records
up to 32x = 2400 (same 32x ratio as the paper, scaled to laptop size).
The test set is fixed and shared.  Tasks: Intent (singleton), POS
(sequence), IntentArg (set); quality = accuracy or F1 relative to the 1x
model.  Shape targets: every task improves monotonically-ish with scale,
and the 32x relative quality exceeds 1x meaningfully for at least two
tasks.
"""

from __future__ import annotations

import numpy as np

from repro.api import Application
from repro.workloads import FactoidGenerator, WorkloadConfig, apply_standard_weak_supervision

from benchmarks.conftest import print_table, small_model_config

SCALES = (1, 2, 4, 8, 16, 32)
BASE_TRAIN = 75
TEST_SIZE = 400

# Representative task per payload granularity, matching the paper's
# "singleton, sequence, and set" framing (tasks obfuscated there).
TASKS = {"singleton": ("Intent", "accuracy"), "sequence": ("POS", "f1"), "set": ("IntentArg", "accuracy")}


def _build_pool(seed: int = 0):
    """One large weakly-supervised pool + one fixed gold test set."""
    max_train = BASE_TRAIN * SCALES[-1]
    pool = FactoidGenerator(
        WorkloadConfig(n=max_train, seed=seed, train=1.0, dev=0.0)
    ).generate()
    apply_standard_weak_supervision(pool.records, seed=seed)
    test = FactoidGenerator(
        WorkloadConfig(n=TEST_SIZE, seed=seed + 1000, train=0.0, dev=0.0)
    ).generate()
    for r in test.records:
        r.tags = ["test"]
    return pool, test


def run_fig4a(seed: int = 0) -> dict[str, list]:
    pool, test = _build_pool(seed)
    rows: dict[str, list] = {"scale": [], "n_train": []}
    for granularity in TASKS:
        rows[f"{granularity}_rel"] = []
    absolute: dict[str, list] = {g: [] for g in TASKS}

    for scale in SCALES:
        n = BASE_TRAIN * scale
        train_subset = pool.subset(np.arange(n))
        # Merge the fixed test set in (tags route usage).
        from repro.data import Dataset

        merged = Dataset(
            pool.schema, train_subset.records + test.records, validate=False
        )
        app = Application(pool.schema)
        config = small_model_config(size=24, epochs=8)
        trained = app.fit(merged, config).trained
        evals = app.evaluate(trained, merged, tag="test")
        rows["scale"].append(f"{scale}x")
        rows["n_train"].append(n)
        for granularity, (task, metric) in TASKS.items():
            absolute[granularity].append(evals[task].metrics[metric])

    for granularity in TASKS:
        base = max(absolute[granularity][0], 1e-9)
        rows[f"{granularity}_rel"] = [round(v / base, 4) for v in absolute[granularity]]
    return rows


def test_fig4a_supervision_scale(benchmark):
    rows = benchmark.pedantic(run_fig4a, rounds=1, iterations=1)
    print_table("Figure 4a: relative quality vs supervision scale", rows)

    final = {g: rows[f"{g}_rel"][-1] for g in TASKS}
    # Shape 1: more weak supervision never hurts at the endpoints.
    assert all(v >= 1.0 for v in final.values()), final
    # Shape 2: at least two tasks improve noticeably by 32x (paper: 12%+ on
    # two tasks, 5% on one; our simulator saturates earlier so the bar is
    # proportionally lower).
    improved = sum(1 for v in final.values() if v >= 1.03)
    assert improved >= 2, final
    # Shape 3: growth is roughly monotone (allowing small local dips).
    for g in TASKS:
        series = rows[f"{g}_rel"]
        assert all(b >= a - 0.05 for a, b in zip(series, series[1:])), (g, series)
