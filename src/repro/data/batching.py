"""Batching: convert payloads into padded numpy inputs for the compiled model.

The split of responsibilities mirrors the paper: records carry raw payloads
and per-source supervision; the *label model* (repro.supervision) combines
sources into probabilistic targets; this module only prepares model inputs
and gold targets for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.core.schema_def import Schema
from repro.data.record import Record
from repro.data.vocab import Vocab
from repro.errors import DataError
from repro.tensor.backend import default_dtype


@dataclass
class PayloadInputs:
    """Numpy inputs for one payload across a batch."""

    # Sequence payloads
    ids: np.ndarray | None = None  # (B, L) int64
    mask: np.ndarray | None = None  # (B, L) float
    # Set payloads
    member_ids: np.ndarray | None = None  # (B, M) int64
    spans: np.ndarray | None = None  # (B, M, 2) int64
    member_mask: np.ndarray | None = None  # (B, M) float
    # Raw singleton payloads
    features: np.ndarray | None = None  # (B, dim) float


@dataclass
class Batch:
    """All model inputs for a batch of records."""

    indices: np.ndarray  # positions of these records in the source dataset
    payloads: dict[str, PayloadInputs] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.indices)


def encode_inputs(
    payloads: Sequence[Mapping[str, Any]],
    schema: Schema,
    vocabs: dict[str, Vocab],
    indices: np.ndarray | None = None,
) -> Batch:
    """Encode payload mappings (name -> value) into a :class:`Batch`.

    The values must pass :func:`repro.data.values.value_rule`.  Sequences
    are padded to the payload's ``max_length`` (fixed width keeps shapes
    stable across batches, which the serving signature relies on).
    """
    if indices is None:
        indices = np.arange(len(payloads))
    batch = Batch(indices=np.asarray(indices))
    n = len(payloads)
    # Float inputs (masks, raw features) follow the dtype policy; id/index
    # arrays are *always* integer — the policy must never touch them.
    dtype = default_dtype()

    for spec in schema.payloads:
        if spec.base:
            continue  # derived inside the model
        inputs = PayloadInputs()
        if spec.type == "sequence":
            vocab = _require_vocab(vocabs, spec.name)
            length = spec.max_length or 0
            ids = np.zeros((n, length), dtype=np.int64)
            if n and length:
                # Vectorized fill: one bulk vocab lookup over all tokens,
                # scattered into the padded matrix by a row-length mask.
                token_lists = [
                    (row.get(spec.name) or [])[:length] for row in payloads
                ]
                lengths = np.fromiter(
                    (len(t) for t in token_lists), dtype=np.int64, count=n
                )
                valid = np.arange(length) < lengths[:, None]
                if lengths.any():
                    ids[valid] = vocab.ids_flat(token_lists)
                mask = valid.astype(dtype)
            else:
                mask = np.zeros((n, length), dtype=dtype)
            inputs.ids = ids
            inputs.mask = mask
        elif spec.type == "set":
            vocab = _require_vocab(vocabs, spec.name)
            m = spec.max_members or 0
            member_ids = np.zeros((n, m), dtype=np.int64)
            spans = np.zeros((n, m, 2), dtype=np.int64)
            member_mask = np.zeros((n, m), dtype=dtype)
            range_payload = schema.payload(spec.range) if spec.range else None
            max_pos = range_payload.max_length if range_payload else None
            for i, row in enumerate(payloads):
                members = (row.get(spec.name) or [])[:m]
                for j, member in enumerate(members):
                    member_ids[i, j] = vocab.id(member.get("id", ""))
                    span = member.get("range") or [0, 1]
                    start, end = span
                    if max_pos is not None:
                        start = min(start, max_pos - 1)
                        end = min(end, max_pos)
                    spans[i, j] = (start, max(end, start + 1))
                    member_mask[i, j] = 1.0
            inputs.member_ids = member_ids
            inputs.spans = spans
            inputs.member_mask = member_mask
        elif spec.type == "singleton" and spec.dim is not None:
            features = np.zeros((n, spec.dim), dtype=dtype)
            for i, row in enumerate(payloads):
                value = row.get(spec.name)
                if value is not None:
                    features[i] = np.asarray(value, dtype=dtype)
            inputs.features = features
        batch.payloads[spec.name] = inputs
    return batch


def _require_vocab(vocabs: dict[str, Vocab], name: str) -> Vocab:
    vocab = vocabs.get(name)
    if vocab is None:
        raise DataError(f"no vocabulary built for payload {name!r}")
    return vocab


def iterate_batches(
    n: int,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> Iterator[np.ndarray]:
    """Yield index arrays covering ``range(n)`` in batches.

    Shuffles when ``rng`` is given (training); sequential otherwise (eval).
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    order = np.arange(n)
    if rng is not None:
        order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


# ----------------------------------------------------------------------
# Gold-target extraction (for evaluation against a trusted source)
# ----------------------------------------------------------------------
def extract_targets(
    records: Sequence[Record],
    schema: Schema,
    task_name: str,
    source: str,
) -> dict[str, np.ndarray]:
    """Extract hard targets from one source (usually the curated gold one).

    Returns arrays shaped per task granularity with a parallel validity
    mask; positions the source did not label are invalid.

    * multiclass singleton: ``labels (N,)``, ``valid (N,)``
    * multiclass sequence:  ``labels (N, L)``, ``valid (N, L)``
    * bitvector singleton:  ``labels (N, K)``, ``valid (N,)``
    * bitvector sequence:   ``labels (N, L, K)``, ``valid (N, L)``
    * select:               ``labels (N,)``, ``valid (N,)``
    """
    task = schema.task(task_name)
    payload = schema.payload(task.payload)
    n = len(records)
    k = task.num_classes

    if task.type == "multiclass" and payload.type != "sequence":
        labels = np.full(n, -1, dtype=np.int64)
        valid = np.zeros(n, dtype=bool)
        for i, record in enumerate(records):
            value = record.label_from(task_name, source)
            if value is not None:
                labels[i] = task.class_index(value)
                valid[i] = True
        return {"labels": labels, "valid": valid}

    if task.type == "multiclass" and payload.type == "sequence":
        length = payload.max_length or 0
        labels = np.full((n, length), -1, dtype=np.int64)
        valid = np.zeros((n, length), dtype=bool)
        for i, record in enumerate(records):
            value = record.label_from(task_name, source)
            if value is None:
                continue
            for t, item in enumerate(value[:length]):
                if item is not None:
                    labels[i, t] = task.class_index(item)
                    valid[i, t] = True
        return {"labels": labels, "valid": valid}

    if task.type == "bitvector":
        dtype = default_dtype()
        if payload.type == "sequence":
            length = payload.max_length or 0
            labels = np.zeros((n, length, k), dtype=dtype)
            valid = np.zeros((n, length), dtype=bool)
            for i, record in enumerate(records):
                value = record.label_from(task_name, source)
                if value is None:
                    continue
                for t, item in enumerate(value[:length]):
                    if item is None:
                        continue
                    valid[i, t] = True
                    for cls_name in item:
                        labels[i, t, task.class_index(cls_name)] = 1.0
            return {"labels": labels, "valid": valid}
        labels = np.zeros((n, k), dtype=dtype)
        valid = np.zeros(n, dtype=bool)
        for i, record in enumerate(records):
            value = record.label_from(task_name, source)
            if value is None:
                continue
            valid[i] = True
            for cls_name in value:
                labels[i, task.class_index(cls_name)] = 1.0
        return {"labels": labels, "valid": valid}

    if task.type == "select":
        labels = np.full(n, -1, dtype=np.int64)
        valid = np.zeros(n, dtype=bool)
        for i, record in enumerate(records):
            value = record.label_from(task_name, source)
            if value is not None:
                labels[i] = int(value)
                valid[i] = True
        return {"labels": labels, "valid": valid}

    raise DataError(f"unsupported task type {task.type!r}")
