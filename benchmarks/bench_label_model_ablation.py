"""Ablation: the generative label model vs majority vote (§1(3), §2.2).

The paper's weak-supervision layer "estimates the accuracy of these sources
and then uses these accuracies to compute a probability that each training
point is correct" — the Snorkel claim that accuracy modeling beats counting
votes.  This bench sweeps source-quality mixes and reports both combiners'
label accuracy against known truth, plus how well EM recovers the true
source accuracies.

Shape targets: the label model never loses to majority vote (beyond noise),
wins clearly when source quality is heterogeneous, and recovers the true
accuracies within a few points.
"""

from __future__ import annotations

import numpy as np

from repro.supervision import ABSTAIN, LabelMatrix, LabelModel, majority_vote

from benchmarks.conftest import print_table

SCENARIOS = {
    # name: (source accuracies, coverages)
    "uniform_good": ([0.85, 0.85, 0.85], [1.0, 1.0, 1.0]),
    "heterogeneous": ([0.95, 0.65, 0.60, 0.55], [1.0, 1.0, 1.0, 1.0]),
    "one_expert_many_weak": ([0.95, 0.58, 0.58, 0.58, 0.58], [1.0, 1.0, 1.0, 1.0, 1.0]),
    "sparse_coverage": ([0.9, 0.8, 0.7], [0.4, 0.6, 0.9]),
}

N_ITEMS = 4000
CARDINALITY = 4


def synth(accuracies, coverages, seed: int):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, CARDINALITY, size=N_ITEMS)
    votes = np.full((N_ITEMS, len(accuracies)), ABSTAIN, dtype=np.int64)
    for j, (acc, cov) in enumerate(zip(accuracies, coverages)):
        labeled = rng.random(N_ITEMS) < cov
        correct = rng.random(N_ITEMS) < acc
        wrong = (truth + 1 + rng.integers(0, CARDINALITY - 1, size=N_ITEMS)) % CARDINALITY
        votes[labeled & correct, j] = truth[labeled & correct]
        votes[labeled & ~correct, j] = wrong[labeled & ~correct]
    matrix = LabelMatrix(
        votes=votes,
        sources=[f"s{j}" for j in range(len(accuracies))],
        cardinality=CARDINALITY,
        item_index=np.stack([np.arange(N_ITEMS), np.full(N_ITEMS, -1)], axis=1),
    )
    return matrix, truth


def run_ablation(seed: int = 0) -> dict[str, list]:
    rows: dict[str, list] = {
        "scenario": [],
        "majority_acc": [],
        "label_model_acc": [],
        "gain": [],
        "acc_recovery_mae": [],
    }
    for name, (accuracies, coverages) in SCENARIOS.items():
        matrix, truth = synth(accuracies, coverages, seed)
        voted = (matrix.votes != ABSTAIN).any(axis=1)
        mv = majority_vote(matrix).argmax(axis=1)
        mv_acc = float((mv == truth)[voted].mean())
        result = LabelModel(seed=seed).fit(matrix)
        lm = result.probs.argmax(axis=1)
        lm_acc = float((lm == truth)[voted].mean())
        recovery = float(np.abs(result.accuracies - np.asarray(accuracies)).mean())
        rows["scenario"].append(name)
        rows["majority_acc"].append(round(mv_acc, 4))
        rows["label_model_acc"].append(round(lm_acc, 4))
        rows["gain"].append(round(lm_acc - mv_acc, 4))
        rows["acc_recovery_mae"].append(round(recovery, 4))
    return rows


def assert_ablation_shape(rows: dict[str, list]) -> None:
    """The bench's shape targets (also run by the tier-1 smoke test)."""
    gains = dict(zip(rows["scenario"], rows["gain"]))
    # Shape 1: never meaningfully worse than majority vote.
    assert all(g >= -0.01 for g in gains.values()), gains
    # Shape 2: clear win with heterogeneous source quality.
    assert gains["heterogeneous"] > 0.02, gains
    assert gains["one_expert_many_weak"] > 0.05, gains
    # Shape 3: EM recovers true source accuracies within a few points.
    assert all(m < 0.06 for m in rows["acc_recovery_mae"]), rows


def test_label_model_vs_majority(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print_table("Label model vs majority vote", rows)
    assert_ablation_shape(rows)
