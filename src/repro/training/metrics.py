"""Classification metrics: accuracy and precision/recall/F1.

"Overton allows report per-tag monitoring, such as the accuracy, precision
and recall ... as appropriate" (§2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError


@dataclass
class PRF:
    """Precision / recall / F1 triple."""

    precision: float
    recall: float
    f1: float


def accuracy(predictions: np.ndarray, gold: np.ndarray, valid: np.ndarray | None = None) -> float:
    """Fraction correct over (optionally masked) items."""
    predictions, gold = _flatten_pair(predictions, gold)
    keep = _resolve_mask(valid, gold.shape)
    if keep.sum() == 0:
        return 0.0
    return float((predictions[keep] == gold[keep]).mean())


def per_class_prf(
    predictions: np.ndarray,
    gold: np.ndarray,
    num_classes: int,
    valid: np.ndarray | None = None,
) -> list[PRF]:
    """One PRF per class."""
    predictions, gold = _flatten_pair(predictions, gold)
    keep = _resolve_mask(valid, gold.shape)
    predictions, gold = predictions[keep], gold[keep]
    out = []
    for c in range(num_classes):
        tp = float(((predictions == c) & (gold == c)).sum())
        fp = float(((predictions == c) & (gold != c)).sum())
        fn = float(((predictions != c) & (gold == c)).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        out.append(PRF(precision=precision, recall=recall, f1=f1))
    return out


def macro_f1(
    predictions: np.ndarray,
    gold: np.ndarray,
    num_classes: int,
    valid: np.ndarray | None = None,
) -> float:
    """Unweighted mean of per-class F1 over classes present in gold."""
    predictions, gold = _flatten_pair(predictions, gold)
    keep = _resolve_mask(valid, gold.shape)
    gold_kept = gold[keep]
    present = [c for c in range(num_classes) if (gold_kept == c).any()]
    if not present:
        return 0.0
    prfs = per_class_prf(predictions, gold, num_classes, valid)
    return float(np.mean([prfs[c].f1 for c in present]))


def micro_f1_multilabel(
    pred_bits: np.ndarray, gold_bits: np.ndarray, valid: np.ndarray | None = None
) -> float:
    """Micro-F1 for multilabel (bitvector) predictions.

    ``pred_bits``/``gold_bits`` are ``(..., K)`` 0/1 arrays; ``valid`` masks
    leading dims.
    """
    pred_bits = np.asarray(pred_bits)
    gold_bits = np.asarray(gold_bits)
    if pred_bits.shape != gold_bits.shape:
        raise TrainingError(
            f"shape mismatch: {pred_bits.shape} vs {gold_bits.shape}"
        )
    if valid is not None:
        keep = np.asarray(valid, dtype=bool)
        pred_bits = pred_bits[keep]
        gold_bits = gold_bits[keep]
    tp = float(((pred_bits == 1) & (gold_bits == 1)).sum())
    fp = float(((pred_bits == 1) & (gold_bits == 0)).sum())
    fn = float(((pred_bits == 0) & (gold_bits == 1)).sum())
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def _flatten_pair(predictions: np.ndarray, gold: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    predictions = np.asarray(predictions).reshape(-1)
    gold = np.asarray(gold).reshape(-1)
    if predictions.shape != gold.shape:
        raise TrainingError(
            f"predictions shape {predictions.shape} != gold shape {gold.shape}"
        )
    return predictions, gold


def _resolve_mask(valid: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    if valid is None:
        return np.ones(shape, dtype=bool)
    return np.asarray(valid, dtype=bool).reshape(shape)
