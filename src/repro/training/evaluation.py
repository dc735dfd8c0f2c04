"""Evaluation harness: model quality against a trusted gold source.

"This quality is measured within Overton by evaluation on curated test
sets" (§2).  The gold source is just another lineage name — typically
``gold`` — kept out of training and used only here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.schema_def import Schema
from repro.core.tasks import TaskSpec
from repro.data.batching import iterate_batches
from repro.data.encoded import EncodedDataset
from repro.data.record import Record
from repro.data.vocab import Vocab
from repro.model.multitask import MultitaskModel
from repro.tensor import default_dtype, dtype_policy, no_grad
from repro.training.metrics import accuracy, macro_f1, micro_f1_multilabel


@dataclass
class TaskEvaluation:
    """Metrics for one task; ``primary`` is the headline number."""

    task: str
    metrics: dict[str, float] = field(default_factory=dict)
    n: int = 0

    @property
    def primary(self) -> float:
        if "f1" in self.metrics:
            return self.metrics["f1"]
        return self.metrics.get("accuracy", 0.0)


def predict_all(
    model: MultitaskModel,
    records: Sequence[Record],
    schema: Schema,
    vocabs: dict[str, Vocab],
    batch_size: int = 64,
    encoded: EncodedDataset | None = None,
) -> dict[str, dict[str, np.ndarray]]:
    """Run inference over all records; returns per-task stacked outputs.

    Batches are row slices of ``encoded``, an :class:`EncodedDataset` of
    ``records`` (the trainer passes one dev encoding to every epoch's
    evaluation); without one, the records are encoded here, under the
    model's dtype policy.  The forward passes run tape-free.
    """
    if encoded is None:
        encoded = encode_records(model, records, schema, vocabs)
    collected: dict[str, list] = {t.name: [] for t in schema.tasks}
    probs: dict[str, list] = {t.name: [] for t in schema.tasks}
    with no_grad():
        for idx in iterate_batches(len(records), batch_size):
            outputs = model.predict(encoded.batch(idx))
            for name, out in outputs.items():
                collected[name].append(out.predictions)
                probs[name].append(out.probs)
    return {
        name: {
            "predictions": np.concatenate(chunks, axis=0)
            if chunks
            else np.zeros(0, dtype=np.int64),
            "probs": np.concatenate(probs[name], axis=0)
            if probs[name]
            else np.zeros((0,)),
        }
        for name, chunks in collected.items()
    }


def encode_records(
    model: MultitaskModel,
    records: Sequence[Record],
    schema: Schema,
    vocabs: dict[str, Vocab],
) -> EncodedDataset:
    """``records`` encoded once under ``model``'s dtype policy.

    A float32 model is fed float32 batch arrays instead of re-casting
    float64 ones every forward.
    """
    with dtype_policy(getattr(model, "dtype", None) or default_dtype()):
        return EncodedDataset(records, schema, vocabs)


def evaluate(
    model: MultitaskModel,
    records: Sequence[Record],
    schema: Schema,
    vocabs: dict[str, Vocab],
    gold_source: str = "gold",
    batch_size: int = 64,
    encoded: EncodedDataset | None = None,
) -> dict[str, TaskEvaluation]:
    """Evaluate every task against ``gold_source`` labels.

    Inference runs tape-free over ``encoded`` (an
    :class:`~repro.data.EncodedDataset` of ``records``, built here when
    none is passed), and the gold targets come from the same encoding.
    """
    if not records:
        return {t.name: TaskEvaluation(task=t.name) for t in schema.tasks}
    if encoded is None:
        encoded = encode_records(model, records, schema, vocabs)
    outputs = predict_all(model, records, schema, vocabs, batch_size, encoded=encoded)
    return {
        task.name: _score(
            task,
            outputs[task.name]["predictions"],
            encoded.gold_targets(task.name, gold_source),
        )
        for task in schema.tasks
    }


def _score(
    task: TaskSpec,
    predictions: np.ndarray,
    gold: dict[str, np.ndarray],
    rows: np.ndarray | None = None,
) -> TaskEvaluation:
    """One task's metrics from stacked predictions and gold targets.

    ``rows`` restricts scoring to those record indices (a tag's members);
    ``None`` scores every row without gathering.  :func:`evaluate` and the
    per-tag quality report both score through here, so a report's
    "overall" row and ``evaluate`` on the same records cannot diverge.
    """
    labels, valid = gold["labels"], gold["valid"]
    if rows is not None:
        predictions, labels, valid = predictions[rows], labels[rows], valid[rows]
    if task.type == "multiclass":
        metrics = {
            "accuracy": accuracy(predictions, labels, valid),
            "f1": macro_f1(predictions, labels, task.num_classes, valid),
        }
    elif task.type == "bitvector":
        metrics = {
            "f1": micro_f1_multilabel(predictions, labels, valid),
            "exact_match": _exact_match(predictions, labels, valid),
        }
    else:  # select
        metrics = {"accuracy": accuracy(predictions, labels, valid)}
    return TaskEvaluation(
        task=task.name, metrics=metrics, n=int(np.asarray(valid).sum())
    )


def mean_primary(evaluations: dict[str, TaskEvaluation]) -> float:
    """Mean of per-task primary metrics — the tuning objective."""
    if not evaluations:
        return 0.0
    return float(np.mean([e.primary for e in evaluations.values()]))


def _exact_match(pred_bits: np.ndarray, gold_bits: np.ndarray, valid) -> float:
    keep = np.asarray(valid, dtype=bool)
    if keep.sum() == 0:
        return 0.0
    matches = (np.asarray(pred_bits) == np.asarray(gold_bits)).all(axis=-1)
    return float(matches[keep].mean())
