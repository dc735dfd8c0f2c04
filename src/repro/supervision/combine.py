"""High-level supervision combination: records -> training targets.

This is the "Combine Supervision" stage of Figure 1.  Given a dataset and a
task it builds the label matrix, fits the requested combination method, and
scatters the probabilistic labels back to the task's natural shape so the
trainer can consume them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.schema_def import Schema
from repro.data.record import Record
from repro.errors import SupervisionError
from repro.supervision.label_matrix import (
    LabelMatrix,
    build_bitvector_matrices,
    build_label_matrix,
)
from repro.supervision.label_model import LabelModel, model_confidence
from repro.supervision.majority import majority_vote, vote_confidence

METHODS = ("label_model", "majority")


@dataclass
class CombinedSupervision:
    """Probabilistic training targets for one task.

    Shapes by granularity (N records, L sequence positions, K classes, M
    max set members):

    * multiclass singleton: ``probs (N, K)``, ``weights (N,)``
    * multiclass sequence:  ``probs (N, L, K)``, ``weights (N, L)``
    * bitvector singleton:  ``probs (N, K)``, ``weights (N,)``
    * bitvector sequence:   ``probs (N, L, K)``, ``weights (N, L)``
    * select:               ``probs (N, M)``, ``weights (N,)``

    ``weights`` fold label-model confidence into the loss; unlabeled items
    carry weight 0.  ``source_accuracies`` exposes what the label model
    learned, for monitoring dashboards.
    """

    task: str
    method: str
    probs: np.ndarray
    weights: np.ndarray
    source_accuracies: dict[str, float] = field(default_factory=dict)


def combine_supervision(
    records: Sequence[Record],
    schema: Schema,
    task_name: str,
    method: str = "label_model",
    sources: Sequence[str] | None = None,
    exclude_sources: Sequence[str] = (),
    label_model: LabelModel | None = None,
) -> CombinedSupervision:
    """Combine per-source supervision for ``task_name`` into soft targets."""
    if method not in METHODS:
        raise SupervisionError(f"unknown method {method!r}; expected {METHODS}")
    task = schema.task(task_name)
    payload = schema.payload(task.payload)

    if task.type == "bitvector":
        matrices = build_bitvector_matrices(
            records, schema, task_name, sources=sources, exclude_sources=exclude_sources
        )
        item_index = matrices[task.classes[0]].item_index
        probs, weights, accuracies = _fit_bitvector(matrices, method, label_model)
    else:
        matrix = build_label_matrix(
            records, schema, task_name, sources=sources, exclude_sources=exclude_sources
        )
        item_index = matrix.item_index
        probs, weights, accuracies = _fit(matrix, method, label_model)

    # Singleton and select tasks are already one item per record.
    if payload.type == "sequence":
        probs, weights = _to_positions(
            item_index, probs, weights, len(records), payload.max_length or 0
        )
    return CombinedSupervision(
        task=task_name,
        method=method,
        probs=probs,
        weights=weights,
        source_accuracies=accuracies,
    )


def _fit_bitvector(
    matrices: dict[str, LabelMatrix], method: str, label_model: LabelModel | None
) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """Combine each class's binary matrix; every matrix has the same items."""
    n_items = next(iter(matrices.values())).n_items
    probs = np.zeros((n_items, len(matrices)))
    weights = np.zeros(n_items)
    accuracies: dict[str, float] = {}
    for c_idx, (cls_name, matrix) in enumerate(matrices.items()):
        cls_probs, cls_weights, cls_acc = _fit(matrix, method, label_model)
        probs[:, c_idx] = cls_probs[:, 1]  # P(class present)
        np.maximum(weights, cls_weights, out=weights)
        for source, acc in cls_acc.items():
            accuracies[f"{source}[{cls_name}]"] = acc
    return probs, weights, accuracies


def _to_positions(
    item_index: np.ndarray, probs: np.ndarray, weights: np.ndarray, n: int, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter per-item rows to ``(n, length, ...)``; unowned positions stay 0."""
    record, position = item_index[:, 0], item_index[:, 1]
    full_probs = np.zeros((n, length, probs.shape[1]))
    full_weights = np.zeros((n, length))
    full_probs[record, position] = probs
    full_weights[record, position] = weights
    return full_probs, full_weights


def _fit(matrix, method: str, label_model: LabelModel | None):
    """Run one combination method over a label matrix."""
    if method == "majority":
        probs = majority_vote(matrix)
        weights = vote_confidence(matrix)
        # Items with any vote train at full weight under majority vote.
        weights = (weights > 0).astype(float)
        return probs, weights, {}
    model = label_model or LabelModel()
    result = model.fit(matrix)
    confidence = model_confidence(result)
    voted = (matrix.votes != -1).any(axis=1).astype(float)
    weights = confidence * voted
    accuracies = {s: result.accuracy_of(s) for s in result.sources}
    return result.probs, weights, accuracies
