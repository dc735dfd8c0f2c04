"""§1(2), §3: multitask learning vs independent single-task models.

"Overton was built to natively support multitask learning so that all model
tasks are concurrently predicted ... Here, multitask learning is critical:
the combined system reduces error and improves product turn-around times."

This bench trains (a) the Overton multitask model (shared payload encoders,
label-model supervision) and (b) one independent model per task on
majority-vote labels — the "previous system" modeling style — on identical
data, then compares per-task quality.

Shape targets: multitask + label model wins on mean primary metric, with
the largest gains on tasks whose supervision is weakest (IntentArg), where
shared representations and source modeling matter most.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import train_single_task_system
from repro.api import Application
from repro.workloads import (
    FactoidGenerator,
    WorkloadConfig,
    apply_standard_weak_supervision,
)

from benchmarks.conftest import print_table, small_model_config

TASKS = ("POS", "EntityType", "Intent", "IntentArg")


def run_ablation(seeds=(0, 1, 2)) -> dict[str, list]:
    single_scores = {t: [] for t in TASKS}
    multi_scores = {t: [] for t in TASKS}
    for seed in seeds:
        dataset = FactoidGenerator(WorkloadConfig(n=600, seed=seed)).generate()
        apply_standard_weak_supervision(dataset.records, seed=seed)
        test = dataset.split("test")

        config = small_model_config(size=24, epochs=10)
        app = Application(dataset.schema)
        trained = app.fit(dataset, config).trained
        multitask = app.evaluate(trained, dataset, tag="test")

        system = train_single_task_system(dataset, config, method="majority", seed=seed)
        single = system.evaluate(test.records)
        for task in TASKS:
            single_scores[task].append(single[task].primary)
            multi_scores[task].append(multitask[task].primary)

    rows: dict[str, list] = {"task": [], "single_task": [], "multitask": [], "delta": []}
    for task in TASKS:
        s = float(np.mean(single_scores[task]))
        m = float(np.mean(multi_scores[task]))
        rows["task"].append(task)
        rows["single_task"].append(round(s, 4))
        rows["multitask"].append(round(m, 4))
        rows["delta"].append(round(m - s, 4))
    rows["task"].append("MEAN")
    rows["single_task"].append(round(float(np.mean(rows["single_task"])), 4))
    rows["multitask"].append(round(float(np.mean(rows["multitask"])), 4))
    rows["delta"].append(round(rows["multitask"][-1] - rows["single_task"][-1], 4))
    return rows


def test_multitask_vs_single_task(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print_table("Multitask + label model vs single-task + majority vote", rows)
    mean_delta = rows["delta"][-1]
    # Shape 1: the combined system reduces error on average.
    assert mean_delta > 0.0, rows
    # Shape 2: the weakly-supervised task (IntentArg) benefits most from
    # shared representations + source modeling.
    arg_delta = rows["delta"][rows["task"].index("IntentArg")]
    assert arg_delta > 0.08, rows
    # Shape 3: no task collapses under multitask sharing (seed-averaged).
    per_task_delta = rows["delta"][:-1]
    assert all(d > -0.08 for d in per_task_delta), rows
