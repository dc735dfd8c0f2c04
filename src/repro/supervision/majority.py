"""Majority-vote supervision combination: the baseline the label model beats.

Majority vote treats every source as equally accurate — exactly the
assumption the Snorkel-style generative model relaxes.  It is kept both as
an ablation baseline (``benchmarks/bench_label_model_ablation.py``) and as
the labeling strategy of the "previous system" baseline in Fig. 3.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SupervisionError
from repro.supervision.label_matrix import ABSTAIN, LabelMatrix


def majority_vote(matrix: LabelMatrix) -> np.ndarray:
    """Probabilistic labels by (tied-split) majority vote.

    Returns ``(n_items, cardinality)`` row-stochastic probabilities; items
    with no votes get a uniform row (they carry no training signal and the
    caller typically weights them to zero).
    """
    n, k = matrix.n_items, matrix.cardinality
    rows, cols = np.nonzero(matrix.votes != ABSTAIN)
    cast = matrix.votes[rows, cols]
    if cast.size and not (0 <= cast.min() and cast.max() < k):
        raise SupervisionError(f"votes must be {ABSTAIN} (abstain) or in [0, {k})")
    counts = np.bincount(rows * k + cast, minlength=n * k).reshape(n, k)
    # Every class on the top count wins a share; an unvoted row is an
    # all-zero count where every class ties, hence uniform.
    winners = counts == counts.max(axis=1, keepdims=True)
    probs = np.where(winners, 1.0 / winners.sum(axis=1, keepdims=True), 0.0)
    if matrix.item_cardinality is not None:
        probs = _restrict_to_valid(probs, matrix.item_cardinality)
    return probs


def _restrict_to_valid(probs: np.ndarray, item_cardinality: np.ndarray) -> np.ndarray:
    """Zero out invalid candidate slots and renormalize (select tasks).

    A row whose mass all sat on invalid slots falls back to uniform over
    its valid ones; a row with no candidates at all stays zero.
    """
    card = np.asarray(item_cardinality, dtype=np.int64)[:, None]
    valid = np.arange(probs.shape[1]) < card
    out = np.where(valid, probs, 0.0)
    totals = out.sum(axis=1, keepdims=True)
    has_mass = totals > 0
    return np.where(
        has_mass, out / np.where(has_mass, totals, 1.0), valid / np.maximum(card, 1)
    )


def vote_confidence(matrix: LabelMatrix) -> np.ndarray:
    """Per-item confidence weight: fraction of sources that voted.

    Items nobody labeled get weight 0 so losses ignore them.
    """
    if matrix.n_items == 0:
        return np.zeros(0)
    return (matrix.votes != ABSTAIN).mean(axis=1)
