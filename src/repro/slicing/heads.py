"""Slice-aware model heads: residual experts + learned indicators.

Implements the slice-based-learning architecture the paper adopts from Chen
et al. (NeurIPS 2019), §2.2:

* a **base head** makes the backbone prediction;
* per slice, an **indicator head** learns "am I in this slice?" — this is
  what lets a heuristic slice generalize to unseen examples;
* per slice, an **expert feature transform + expert head** adds the "slightly
  increased representation capacity";
* at inference there is still *one* prediction per task: expert features are
  recombined into the backbone representation by **membership-and-confidence
  weighted attention**, and a final head predicts from the residual sum.

The module is granularity-agnostic: it operates on ``(n_items, d)``
representations (callers flatten sequence reps to items).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import Linear, Module
from repro.tensor import (
    Tensor,
    binary_cross_entropy_with_logits,
    cross_entropy,
    log_softmax,
    no_grad,
    softmax,
    stack,
)


@dataclass
class SliceForward:
    """Everything a slice-aware head produces in one pass."""

    final_logits: Tensor  # (n, k) the single served prediction
    base_logits: Tensor  # (n, k)
    indicator_logits: Tensor | None  # (n, s)
    expert_logits: Tensor | None  # (n, s, k)
    attention: np.ndarray | None  # (n, s) detached weights, for monitoring


class SliceAwareHead(Module):
    """Task head with optional slice experts.

    With ``slice_names`` empty this degrades exactly to a plain linear head
    (the ablation baseline in ``benchmarks/bench_slice_ablation.py``).
    """

    def __init__(
        self,
        rep_dim: int,
        num_classes: int,
        slice_names: list[str],
        rng: np.random.Generator,
        expert_dim: int | None = None,
    ) -> None:
        super().__init__()
        self.rep_dim = rep_dim
        self.num_classes = num_classes
        self.slice_names = list(slice_names)
        # Experts ADD capacity on top of the backbone (that is the point of
        # slicing, §2.2), so their width must not shrink with a bottlenecked
        # backbone representation.
        self.expert_dim = expert_dim or max(2 * rep_dim, 16)

        self.base_head = Linear(rep_dim, num_classes, rng)
        self.indicator_heads = [
            Linear(rep_dim, 1, rng) for _ in self.slice_names
        ]
        self.expert_transforms = [
            Linear(rep_dim, self.expert_dim, rng, activation="relu")
            for _ in self.slice_names
        ]
        self.expert_heads = [
            Linear(self.expert_dim, num_classes, rng) for _ in self.slice_names
        ]
        self.reconstruct = (
            Linear(self.expert_dim, rep_dim, rng) if self.slice_names else None
        )
        # Without slices the base head *is* the final head; creating a
        # second head would leave dead parameters.
        self.final_head = (
            Linear(rep_dim, num_classes, rng) if self.slice_names else None
        )

    @property
    def num_slices(self) -> int:
        return len(self.slice_names)

    def forward(self, rep: Tensor) -> SliceForward:
        base_logits = self.base_head(rep)
        if not self.slice_names:
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
        for i in range(self.num_slices):
            ind = self.indicator_heads[i](rep)  # (n, 1)
            indicator_cols.append(ind)
            feat = self.expert_transforms[i](rep)  # (n, e)
            expert_features.append(feat)
            logits = self.expert_heads[i](feat)  # (n, k)
            expert_logit_list.append(logits)
            # Expert confidence: max log-probability (high when the expert
            # is decisive).  Detached — attention should not push experts
            # toward overconfidence, so the value is read off the tape.
            with no_grad():
                log_probs = log_softmax(logits, axis=-1)
            confidences.append(log_probs.data.max(axis=-1))

        indicator_logits = (
            stack([c.squeeze(1) for c in indicator_cols], axis=1)
            if self.num_slices > 1
            else indicator_cols[0]
        )
        if self.num_slices == 1:
            indicator_logits = indicator_cols[0].reshape(rep.shape[0], 1)

        # Attention over slices: membership likelihood + expert confidence.
        membership_score = indicator_logits.data  # (n, s), detached
        confidence_score = np.stack(confidences, axis=1)  # (n, s)
        raw = membership_score + confidence_score
        # Stable softmax over slices with an implicit "no slice" option of
        # score 0, so examples in no slice keep the backbone representation.
        padded = np.concatenate([np.zeros((rep.shape[0], 1)), raw], axis=1)
        shifted = padded - padded.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        weights = weights / weights.sum(axis=1, keepdims=True)
        attention = weights[:, 1:]  # (n, s)

        expert_stack = stack(expert_logit_list, axis=1)  # (n, s, k)
        combined = rep
        for i in range(self.num_slices):
            contribution = self.reconstruct(expert_features[i])
            combined = combined + contribution * Tensor(attention[:, i : i + 1])
        final_logits = self.final_head(combined)
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
) -> Tensor:
    """Total loss for a slice-aware multiclass head.

    ``target_probs`` is ``(n, k)`` soft labels, ``sample_weights`` ``(n,)``,
    ``membership`` ``(n, s)`` heuristic slice indicators (None when the head
    has no slices).  The final-head loss always applies; indicator and
    expert losses are scaled by ``slice_weight``.
    """
    total = cross_entropy(forward.final_logits, target_probs, sample_weights)
    if membership is None or forward.indicator_logits is None:
        return total
    # With slices active, also supervise the backbone prediction directly so
    # the shared representation does not rely solely on expert routing.
    total = total + cross_entropy(forward.base_logits, target_probs, sample_weights)

    # Indicator heads learn heuristic membership.
    indicator_loss = binary_cross_entropy_with_logits(
        forward.indicator_logits, membership, sample_weights=None
    )
    total = total + indicator_loss * slice_weight

    # Expert heads train only on their slice members.
    n, s, k = forward.expert_logits.shape
    for i in range(s):
        member_weights = sample_weights * membership[:, i]
        if member_weights.sum() <= 0:
            continue
        expert_logits_i = forward.expert_logits[:, i, :]
        expert_loss = cross_entropy(expert_logits_i, target_probs, member_weights)
        total = total + expert_loss * slice_weight
    return total


def predicted_membership(forward: SliceForward) -> np.ndarray | None:
    """Learned membership probabilities (n, s), or None without slices."""
    if forward.indicator_logits is None:
        return None
    x = forward.indicator_logits.data
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))
