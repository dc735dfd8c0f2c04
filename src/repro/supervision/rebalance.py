"""Class rebalancing.

"Overton incorporates this information into the loss function for a task;
this also allows Overton to automatically handle common issues like
rebalancing classes" (§2.2).  Weights are computed from the *probabilistic*
labels so rare classes get upweighted even when no hard labels exist.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SupervisionError


def class_weights_from_probs(
    probs: np.ndarray,
    item_weights: np.ndarray | None = None,
    smoothing: float = 1.0,
    max_ratio: float = 10.0,
) -> np.ndarray:
    """Inverse-frequency class weights from soft labels.

    Parameters
    ----------
    probs:
        ``(n, k)`` probabilistic labels (rows roughly sum to 1).
    item_weights:
        Optional per-item weights; low-confidence items contribute less to
        the estimated class frequencies.
    smoothing:
        Additive smoothing mass per class (avoids infinite weights for
        unobserved classes).
    max_ratio:
        Cap on ``max(weight)/min(weight)`` so one ultra-rare class cannot
        dominate the loss.

    Returns normalized weights with mean 1.0.
    """
    if probs.ndim != 2:
        raise SupervisionError(f"probs must be 2-D, got shape {probs.shape}")
    n, k = probs.shape
    if n == 0:
        return np.ones(k)
    if item_weights is not None:
        mass = (probs * item_weights[:, None]).sum(axis=0)
    else:
        mass = probs.sum(axis=0)
    mass = mass + smoothing
    weights = mass.sum() / (k * mass)
    # Cap the dynamic range.
    floor = weights.max() / max_ratio
    weights = np.maximum(weights, floor)
    return weights * (k / weights.sum())
