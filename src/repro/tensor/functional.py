"""Numerically stable activations and loss functions.

All losses here support *probabilistic targets* because Overton's weak
supervision layer produces soft labels: the label model emits a distribution
over classes per example, and the noise-aware loss is the expected
cross-entropy under that distribution (Ratner et al., 2016).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Array, Tensor, _as_array, _unbroadcast, is_grad_enabled


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` with the max-subtraction trick."""
    shifted_max = logits.data.max(axis=axis, keepdims=True)
    shifted = logits - Tensor(shifted_max)
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``.

    Off the tape it runs :func:`log_softmax`'s numpy ops and ``exp`` in
    order, so the same bits, without a Tensor per op.
    """
    if is_grad_enabled():
        return log_softmax(logits, axis=axis).exp()
    x = logits.data
    shifted = x - _as_array(x.max(axis=axis, keepdims=True))
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return Tensor._wrap(np.exp(shifted - log_norm), "softmax")


def cross_entropy(
    logits: Tensor,
    targets: Array,
    sample_weights: Array | None = None,
    class_weights: Array | None = None,
) -> Tensor:
    """Mean cross-entropy for hard or soft targets, as one tape node.

    Parameters
    ----------
    logits:
        ``(n, num_classes)`` unnormalized scores.
    targets:
        Either integer class ids of shape ``(n,)`` or a probabilistic label
        matrix of shape ``(n, num_classes)`` whose rows sum to 1.
    sample_weights:
        Optional per-example weights of shape ``(n,)`` (e.g. label-model
        confidence); normalized so the loss stays on the same scale.
    class_weights:
        Optional per-class weights of shape ``(num_classes,)`` used for class
        rebalancing.
    """
    loss = CrossEntropy(logits.data, targets, sample_weights, class_weights)
    return Tensor._make_joint(loss.value, [logits], lambda g: [loss.vjp(g)], "cross_entropy")


class CrossEntropy:
    """:func:`cross_entropy` of a logits array: ``-(log_softmax(x) * w).sum()``
    with ``w`` the targets times normalized example weights (``0 * sum(x)``
    when every weight is zero), and for an upstream ``g`` the logits'
    gradient, both in the float association of that expression op by op.
    """

    def __init__(self, logits, targets, sample_weights=None, class_weights=None) -> None:
        targets = np.asarray(targets)
        if logits.ndim != 2:
            raise ShapeError(f"cross_entropy expects 2-D logits, got {logits.shape}")
        # Loss arithmetic follows the logits' storage dtype: float32 models
        # get float32 losses without the targets silently upcasting them.
        dtype = logits.dtype
        n, num_classes = self.shape = logits.shape
        if targets.ndim == 1:
            target_probs = np.zeros((n, num_classes), dtype=dtype)
            target_probs[np.arange(n), targets.astype(np.int64)] = 1.0
        elif targets.shape == (n, num_classes):
            target_probs = targets.astype(dtype, copy=False)
        else:
            raise ShapeError(
                f"targets shape {targets.shape} incompatible with logits {logits.shape}"
            )
        weights = np.ones(n, dtype=dtype)
        if sample_weights is not None:
            weights = weights * np.asarray(sample_weights, dtype=dtype)
        if class_weights is not None:
            cw = np.asarray(class_weights, dtype=dtype)
            if cw.shape != (num_classes,):
                raise ShapeError(f"class_weights shape {cw.shape} != ({num_classes},)")
            weights = weights * (target_probs @ cw)
        total = weights.sum()
        if total <= 0:
            self.weighted, self.zero = None, _as_array(0.0)
            self.value = np.asarray((logits * self.zero).sum())
            return
        self.weighted = _as_array(target_probs * (weights / total)[:, None])
        shifted = logits - _as_array(logits.max(axis=-1, keepdims=True))
        self.exp = np.exp(shifted)
        self.norm = self.exp.sum(axis=-1, keepdims=True)
        log_probs = shifted - np.log(self.norm)
        self.value = -np.asarray((log_probs * self.weighted).sum())

    def vjp(self, g) -> Array:
        if self.weighted is None:
            return np.broadcast_to(g, self.shape) * self.zero
        grad = np.broadcast_to(-g, self.shape) * self.weighted
        d_norm = _unbroadcast(-grad, self.norm.shape) / self.norm
        return grad + np.broadcast_to(d_norm, self.shape) * self.exp


def binary_cross_entropy_with_logits(
    logits: Tensor,
    targets: Array,
    sample_weights: Array | None = None,
    pos_weight: Array | float | None = None,
) -> Tensor:
    """Mean BCE over all elements, accepting soft targets in ``[0, 1]``.

    Implemented via the stable identity
    ``bce(x, t) = max(x, 0) - x*t + log(1 + exp(-|x|))``, extended with
    optional per-example and per-class (``pos_weight``) weighting.  Used for
    Overton's *bitvector* tasks where labels are non-exclusive.
    """
    targets = np.asarray(targets, dtype=logits.data.dtype)
    if targets.shape != logits.shape:
        raise ShapeError(
            f"targets shape {targets.shape} != logits shape {logits.shape}"
        )
    x = logits
    t = Tensor(targets)
    relu_x = x.relu()
    abs_x = x.abs()
    softplus = (1.0 + (-abs_x).exp()).log()
    per_element = relu_x - x * t + softplus

    if pos_weight is not None:
        pw = np.asarray(pos_weight, dtype=targets.dtype)
        # Weight the positive-label term: loss stays stable because we scale
        # the per-element loss, interpolated by the (soft) target.
        scale = targets * pw + (1.0 - targets)
        per_element = per_element * Tensor(scale)

    if sample_weights is not None:
        sw = np.asarray(sample_weights, dtype=targets.dtype)
        while sw.ndim < per_element.ndim:
            sw = sw[:, None] if sw.ndim == 1 else np.expand_dims(sw, -1)
        per_element = per_element * Tensor(np.broadcast_to(sw, per_element.shape).copy())
        denom = float(np.broadcast_to(sw, per_element.shape).sum())
        if denom <= 0:
            return (logits * 0.0).sum()
        return per_element.sum() * (1.0 / denom)
    return per_element.mean()


def select_loss(
    scores: Tensor,
    target_probs: Array,
    candidate_mask: Array,
    sample_weights: Array | None = None,
) -> Tensor:
    """Loss for Overton's *select* tasks (choose one element of a set).

    Parameters
    ----------
    scores:
        ``(n, max_candidates)`` raw scores per candidate.
    target_probs:
        ``(n, max_candidates)`` probabilistic labels over candidates (rows
        sum to 1 over valid candidates).
    candidate_mask:
        ``(n, max_candidates)`` with 1.0 at valid candidate positions.
        Invalid positions are excluded from the softmax.
    """
    from repro.tensor.ops import masked_fill

    dtype = scores.data.dtype
    mask = np.asarray(candidate_mask, dtype=bool)
    masked_scores = masked_fill(scores, ~mask, -1e9)
    log_probs = log_softmax(masked_scores, axis=-1)
    targets = np.asarray(target_probs, dtype=dtype) * mask

    n = scores.shape[0]
    weights = np.ones(n, dtype=dtype)
    if sample_weights is not None:
        weights = weights * np.asarray(sample_weights, dtype=dtype)
    total = weights.sum()
    if total <= 0:
        return (scores * 0.0).sum()
    weights = weights / total
    weighted = Tensor(targets * weights[:, None])
    return -(log_probs * weighted).sum()


def l2_penalty(params: list[Tensor]) -> Tensor:
    """Sum of squared parameter values, for weight decay via the loss."""
    total: Tensor | None = None
    for p in params:
        term = (p * p).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total


def accuracy(logits: Array, targets: Array) -> float:
    """Plain accuracy for hard integer targets (numpy arrays, no autodiff)."""
    preds = np.asarray(logits).argmax(axis=-1)
    targets = np.asarray(targets)
    if len(targets) == 0:
        return 0.0
    return float((preds == targets).mean())
