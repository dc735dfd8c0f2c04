"""The per-op slice-aware head ``repro.slicing.heads`` replaced.

These are ``SliceAwareHead.forward`` and ``slice_loss`` as they were before
the head became one forward node and one loss node, unchanged except that
the head is an argument — plus the class-weighted cross-entropy that
``MulticlassTaskHead.loss`` used to add on top, and ``cross_entropy`` as it
was before it became one node.  One ``Tensor`` op — one tape node — per
matmul, bias add, activation, stack, product, residual add and loss step.
They are the reference the fused head must reproduce bit for bit (loss,
every gradient, and which parameters get none), so they live in the tests
and are not to be "optimized".  One fix has been made to both: the
attention softmax's "no slice" pad is allocated in the scores' dtype, so a
float32 forward no longer runs its slice softmax in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor import (
    Tensor,
    binary_cross_entropy_with_logits,
    log_softmax,
    no_grad,
    stack,
)


@dataclass
class SliceForward:
    final_logits: Tensor
    base_logits: Tensor
    indicator_logits: Tensor | None
    expert_logits: Tensor | None
    attention: np.ndarray | None


def forward(head, rep: Tensor) -> SliceForward:
    base_logits = head.base_head(rep)
    if not head.slice_names:
        return SliceForward(
            final_logits=base_logits,
            base_logits=base_logits,
            indicator_logits=None,
            expert_logits=None,
            attention=None,
        )

    indicator_cols = []
    expert_features = []
    expert_logit_list = []
    confidences = []
    for i in range(head.num_slices):
        ind = head.indicator_heads[i](rep)  # (n, 1)
        indicator_cols.append(ind)
        feat = head.expert_transforms[i](rep)  # (n, e)
        expert_features.append(feat)
        logits = head.expert_heads[i](feat)  # (n, k)
        expert_logit_list.append(logits)
        with no_grad():
            log_probs = log_softmax(logits, axis=-1)
        confidences.append(log_probs.data.max(axis=-1))

    indicator_logits = (
        stack([c.squeeze(1) for c in indicator_cols], axis=1)
        if head.num_slices > 1
        else indicator_cols[0]
    )
    if head.num_slices == 1:
        indicator_logits = indicator_cols[0].reshape(rep.shape[0], 1)

    membership_score = indicator_logits.data  # (n, s), detached
    confidence_score = np.stack(confidences, axis=1)  # (n, s)
    raw = membership_score + confidence_score
    pad = np.zeros((rep.shape[0], 1), dtype=raw.dtype)
    padded = np.concatenate([pad, raw], axis=1)
    shifted = padded - padded.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    weights = weights / weights.sum(axis=1, keepdims=True)
    attention = weights[:, 1:]  # (n, s)

    expert_stack = stack(expert_logit_list, axis=1)  # (n, s, k)
    combined = rep
    for i in range(head.num_slices):
        contribution = head.reconstruct(expert_features[i])
        combined = combined + contribution * Tensor(attention[:, i : i + 1])
    final_logits = head.final_head(combined)
    return SliceForward(
        final_logits=final_logits,
        base_logits=base_logits,
        indicator_logits=indicator_logits,
        expert_logits=expert_stack,
        attention=attention,
    )


def slice_loss(
    forward: SliceForward,
    target_probs: np.ndarray,
    sample_weights: np.ndarray,
    membership: np.ndarray | None,
    slice_weight: float = 0.5,
    class_weights: np.ndarray | None = None,
) -> Tensor:
    total = _slice_loss(forward, target_probs, sample_weights, membership, slice_weight)
    if class_weights is not None:
        total = total + cross_entropy(
            forward.final_logits, target_probs, sample_weights, class_weights
        )
    return total


def _slice_loss(forward, target_probs, sample_weights, membership, slice_weight):
    total = cross_entropy(forward.final_logits, target_probs, sample_weights)
    if membership is None or forward.indicator_logits is None:
        return total
    total = total + cross_entropy(forward.base_logits, target_probs, sample_weights)

    indicator_loss = binary_cross_entropy_with_logits(
        forward.indicator_logits, membership, sample_weights=None
    )
    total = total + indicator_loss * slice_weight

    n, s, k = forward.expert_logits.shape
    for i in range(s):
        member_weights = sample_weights * membership[:, i]
        if member_weights.sum() <= 0:
            continue
        expert_logits_i = forward.expert_logits[:, i, :]
        expert_loss = cross_entropy(expert_logits_i, target_probs, member_weights)
        total = total + expert_loss * slice_weight
    return total


def cross_entropy(logits, targets, sample_weights=None, class_weights=None) -> Tensor:
    """Soft-target cross-entropy through ``log_softmax``, op by op."""
    dtype = logits.data.dtype
    n = logits.shape[0]
    target_probs = np.asarray(targets).astype(dtype, copy=False)
    weights = np.ones(n, dtype=dtype)
    if sample_weights is not None:
        weights = weights * np.asarray(sample_weights, dtype=dtype)
    if class_weights is not None:
        weights = weights * (target_probs @ np.asarray(class_weights, dtype=dtype))
    total = weights.sum()
    if total <= 0:
        return (logits * 0.0).sum()
    weights = weights / total
    log_probs = log_softmax(logits, axis=-1)
    weighted_targets = Tensor(target_probs * weights[:, None])
    return -(log_probs * weighted_targets).sum()
