"""Figure 4b: pretrained models vs weak supervision scale.

Paper's result: "For each training set, we calculate the relative test
quality change (percentage change in F1 or accuracy) of with-BERT over
without-BERT.  Almost all percentage changes are within a narrow 2% band of
no-change ... Pretrained models do have higher quality at smaller training
dataset sizes — the Set task here shows an improvement at small scale, but
this advantage vanishes at larger (weak) training set sizes."

Reproduction: "with-BERT" = token embeddings pretrained on a large synthetic
corpus (PPMI+SVD; see repro.workloads.pretrained and the DESIGN.md
substitution table); "without-BERT" = embeddings learned from scratch.
Same scale ladder as Fig. 4a.  Shape targets: at the largest scale every
task's with/without ratio sits inside a narrow band around 1.0; at the
smallest scale at least one task shows a pretraining advantage that shrinks
by the largest scale.
"""

from __future__ import annotations

import numpy as np

from repro.api import Application
from repro.core.tuning_spec import ModelConfig, PayloadConfig, TrainerConfig
from repro.data import Dataset
from repro.model.embeddings_registry import EmbeddingRegistry
from repro.workloads import (
    FactoidGenerator,
    WorkloadConfig,
    apply_standard_weak_supervision,
    build_pretrained_product,
)

from benchmarks.conftest import print_table

SCALES = (1, 4, 16, 32)
BASE_TRAIN = 75
TEST_SIZE = 400
DIM = 24

TASKS = {
    "singleton": ("Intent", "accuracy"),
    "sequence": ("POS", "f1"),
    "set": ("IntentArg", "accuracy"),
}


def _config(embedding: str) -> ModelConfig:
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(embedding=embedding, encoder="bow", size=DIM),
            "query": PayloadConfig(size=DIM),
            "entities": PayloadConfig(size=DIM),
        },
        trainer=TrainerConfig(epochs=8, batch_size=32, lr=0.05),
    )


def run_fig4b(seed: int = 0) -> dict[str, list]:
    product = build_pretrained_product(dim=DIM, corpus_queries=3000, seed=seed + 77)
    registry = EmbeddingRegistry([product])

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

    rows: dict[str, list] = {"scale": [], "n_train": []}
    for granularity in TASKS:
        rows[f"{granularity}_with_over_without"] = []

    for scale in SCALES:
        n = BASE_TRAIN * scale
        merged = Dataset(
            pool.schema, pool.records[:n] + test.records, validate=False
        )
        scores = {}
        for label, embedding in (("with", product.name), ("without", "learned")):
            app = Application(pool.schema, registry=registry)
            trained = app.fit(merged, _config(embedding)).trained
            evals = app.evaluate(trained, merged, tag="test")
            scores[label] = {
                g: evals[task].metrics[metric] for g, (task, metric) in TASKS.items()
            }
        rows["scale"].append(f"{scale}x")
        rows["n_train"].append(n)
        for g in TASKS:
            ratio = scores["with"][g] / max(scores["without"][g], 1e-9)
            rows[f"{g}_with_over_without"].append(round(ratio, 4))
    return rows


def test_fig4b_pretraining(benchmark):
    rows = benchmark.pedantic(run_fig4b, rounds=1, iterations=1)
    print_table("Figure 4b: with-pretrained / without-pretrained quality", rows)

    ratio_cols = {g: rows[f"{g}_with_over_without"] for g in TASKS}
    # Shape 1: at the largest scale, pretraining changes quality only within
    # a band around no-change.  The paper reports "almost all" changes in a
    # 2% band — we require most tasks inside 5% and every task inside 10%.
    finals = [series[-1] for series in ratio_cols.values()]
    assert all(0.90 <= v <= 1.10 for v in finals), ratio_cols
    in_narrow_band = sum(1 for v in finals if 0.95 <= v <= 1.05)
    assert in_narrow_band >= len(finals) - 1, ratio_cols
    # Shape 2: any small-scale pretraining advantage shrinks with scale for
    # at least one task that had one (paper: the Set task).
    advantaged = [g for g, s in ratio_cols.items() if s[0] > 1.02]
    if advantaged:
        assert any(
            ratio_cols[g][-1] < ratio_cols[g][0] for g in advantaged
        ), ratio_cols
