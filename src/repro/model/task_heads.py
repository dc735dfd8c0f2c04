"""Task heads: per-task prediction + noise-aware losses.

"At the level of TensorFlow, Overton takes the embedding of the payload as
input, and builds an output prediction and loss function of the appropriate
type" (§2.1).  Multiclass heads are slice-aware (the capacity mechanism of
§2.2); bitvector and select heads are direct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tasks import TaskSpec
from repro.errors import TrainingError
from repro.nn import Linear, Module
from repro.slicing import SliceAwareHead, slice_loss
from repro.tensor import (
    Tensor,
    binary_cross_entropy_with_logits,
    no_grad,
    select_loss,
    softmax,
)


@dataclass
class TaskTargets:
    """Training targets for one task, as produced by combine_supervision.

    ``probs``/``weights`` shapes follow
    :class:`repro.supervision.CombinedSupervision`; ``class_weights``
    optionally rebalances classes; ``membership`` carries record-level slice
    indicators ``(N, S)`` for slice-aware heads.
    """

    probs: np.ndarray
    weights: np.ndarray
    class_weights: np.ndarray | None = None
    membership: np.ndarray | None = None


@dataclass
class TaskOutput:
    """Predictions for one task on one batch (detached numpy + live logits)."""

    logits: Tensor
    probs: np.ndarray
    predictions: np.ndarray
    extra: dict = field(default_factory=dict)


class MulticlassTaskHead(Module):
    """Multiclass head over singleton (B, d) or sequence (B, L, d) reps."""

    def __init__(
        self,
        task: TaskSpec,
        rep_dim: int,
        slice_names: list[str],
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.task = task
        self.head = SliceAwareHead(rep_dim, task.num_classes, slice_names, rng)
        self.rep_dim = rep_dim

    def forward(self, rep: Tensor, mask: np.ndarray | None = None) -> TaskOutput:
        original_shape = rep.shape
        is_sequence = rep.ndim == 3
        flat = rep.reshape(-1, self.rep_dim) if is_sequence else rep
        out = self.head(flat)
        logits = out.final_logits
        with no_grad():  # only the array is kept; the loss reads the logits
            probs = softmax(logits).data
        preds = probs.argmax(axis=-1)
        if is_sequence:
            b, l = original_shape[0], original_shape[1]
            probs = probs.reshape(b, l, -1)
            preds = preds.reshape(b, l)
        return TaskOutput(
            logits=logits,
            probs=probs,
            predictions=preds,
            extra={"slice_forward": out, "is_sequence": is_sequence, "shape": original_shape},
        )

    def loss(self, output: TaskOutput, targets: TaskTargets, slice_weight: float = 0.5) -> Tensor:
        probs = targets.probs
        weights = targets.weights
        membership = targets.membership
        if output.extra["is_sequence"]:
            b, l = output.extra["shape"][0], output.extra["shape"][1]
            probs = probs.reshape(b * l, -1)
            weights = weights.reshape(b * l)
            if membership is not None:
                # Record-level membership lifted to every position.
                membership = np.repeat(membership, l, axis=0)
        return slice_loss(
            output.extra["slice_forward"],
            probs,
            weights,
            membership,
            slice_weight,
            class_weights=targets.class_weights,
        )


class BitvectorTaskHead(Module):
    """Multi-label head: independent sigmoid per class."""

    def __init__(self, task: TaskSpec, rep_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.task = task
        self.head = Linear(rep_dim, task.num_classes, rng)

    def forward(self, rep: Tensor, mask: np.ndarray | None = None) -> TaskOutput:
        logits = self.head(rep)
        x = np.minimum(np.maximum(logits.data, -60), 60)
        probs = 1.0 / (1.0 + np.exp(-x))
        preds = (probs >= 0.5).astype(np.int64)
        return TaskOutput(logits=logits, probs=probs, predictions=preds)

    def loss(self, output: TaskOutput, targets: TaskTargets, slice_weight: float = 0.5) -> Tensor:
        # weights have shape (N,) or (N, L); broadcast over classes.
        weights = targets.weights
        logits = output.logits
        if logits.ndim == 3:
            b, l, k = logits.shape
            flat_logits = logits.reshape(b * l, k)
            flat_targets = targets.probs.reshape(b * l, k)
            flat_weights = weights.reshape(b * l)
        else:
            flat_logits = logits
            flat_targets = targets.probs
            flat_weights = weights
        pos_weight = targets.class_weights
        return binary_cross_entropy_with_logits(
            flat_logits, flat_targets, sample_weights=flat_weights, pos_weight=pos_weight
        )


class SelectTaskHead(Module):
    """Score each set member; softmax over valid candidates.

    When a context representation is available (a singleton payload that
    aggregates the set's range payload, e.g. the query summary), scoring is
    linear + bilinear: ``score(m) = w·m + m·(W c)``.  The bilinear term is
    what lets selection depend on intent — the paper's "complex
    disambiguation" cases are unlearnable from the member alone.
    """

    def __init__(
        self,
        task: TaskSpec,
        rep_dim: int,
        rng: np.random.Generator,
        context_dim: int | None = None,
    ) -> None:
        super().__init__()
        self.task = task
        self.scorer = Linear(rep_dim, 1, rng)
        self.context_proj = (
            Linear(context_dim, rep_dim, rng, bias=False)
            if context_dim is not None
            else None
        )

    def forward(
        self,
        rep: Tensor,
        mask: np.ndarray | None = None,
        context: Tensor | None = None,
    ) -> TaskOutput:
        if rep.ndim != 3:
            raise TrainingError(
                f"select head expects (B, M, d) member reps, got {rep.shape}"
            )
        scores = self.scorer(rep).squeeze(2)  # (B, M)
        if context is not None and self.context_proj is not None:
            projected = self.context_proj(context)  # (B, d)
            bilinear = (rep * projected.expand_dims(1)).sum(axis=-1)  # (B, M)
            scores = scores + bilinear
        data = scores.data.copy()
        if mask is not None:
            data = np.where(mask > 0, data, -1e30)
        # Stable softmax over candidates for reporting.  Rows with no valid
        # candidate (all masked) become all-zero probabilities.
        row_max = data.max(axis=1, keepdims=True)
        shifted = np.where(row_max > -1e29, data - row_max, -np.inf)
        exp = np.where(shifted > -1e29, np.exp(np.maximum(shifted, -60.0)), 0.0)
        probs = exp / np.maximum(exp.sum(axis=1, keepdims=True), 1e-12)
        preds = probs.argmax(axis=1)
        return TaskOutput(
            logits=scores, probs=probs, predictions=preds, extra={"mask": mask}
        )

    def loss(self, output: TaskOutput, targets: TaskTargets, slice_weight: float = 0.5) -> Tensor:
        mask = output.extra.get("mask")
        if mask is None:
            mask = np.ones_like(targets.probs)
        return select_loss(
            output.logits, targets.probs, mask, sample_weights=targets.weights
        )


def build_task_head(
    task: TaskSpec,
    rep_dim: int,
    slice_names: list[str],
    rng: np.random.Generator,
    context_dim: int | None = None,
) -> Module:
    """Factory over the three task types."""
    if task.type == "multiclass":
        return MulticlassTaskHead(task, rep_dim, slice_names, rng)
    if task.type == "bitvector":
        return BitvectorTaskHead(task, rep_dim, rng)
    if task.type == "select":
        return SelectTaskHead(task, rep_dim, rng, context_dim=context_dim)
    raise TrainingError(f"unknown task type {task.type!r}")
