"""Epoch-level encoded-batch caching.

The trainer's hot loop used to call :func:`repro.data.batching.encode_inputs`
on the same records every epoch — re-tokenizing, re-padding, and re-masking
identical data dozens of times per fit.  :class:`EncodedDataset` encodes the
full dataset exactly once and serves per-batch *views* by row slicing, so an
epoch costs one fancy-index per payload array instead of a python loop over
records.

Correctness hinges on a property of :func:`encode_inputs`: every record is
encoded independently into fixed-width rows (sequences pad to the payload's
``max_length``, sets to ``max_members``), so encoding a subset of records
and slicing the same rows out of a full encoding produce bit-identical
arrays.  Shuffling therefore behaves exactly as before — the trainer draws
the same index permutations from the same RNG stream and only the array
construction changes.

The cache holds for one (schema, vocabs) pair; vocabs are append-only and
nothing mutates them while a dataset is being encoded or trained on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.schema_def import Schema
from repro.data.batching import Batch, PayloadInputs, encode_inputs, extract_targets
from repro.data.record import Record
from repro.data.vocab import Vocab


class EncodedDataset:
    """A dataset encoded once, served as per-batch row views.

    Build it from the records the trainer or evaluator will iterate;
    :meth:`batch` then replaces ``encode_inputs(records[idx], ...)`` with a
    row slice of the one full encoding.
    """

    def __init__(
        self,
        records: Sequence[Record],
        schema: Schema,
        vocabs: dict[str, Vocab],
    ) -> None:
        self.schema = schema
        self._records = list(records)
        self._full = encode_inputs([r.payloads for r in records], schema, vocabs)
        self._n = len(records)
        self._targets: dict[tuple[str, str], dict[str, np.ndarray]] = {}

    def __len__(self) -> int:
        return self._n

    def batch(self, indices: np.ndarray) -> Batch:
        """The encoded batch for dataset rows ``indices`` (any order).

        Row ``i`` of every returned array corresponds to record
        ``indices[i]``, exactly as ``encode_inputs`` with ``indices=`` would
        produce.
        """
        idx = np.asarray(indices)
        payloads: dict[str, PayloadInputs] = {}
        for name, p in self._full.payloads.items():
            payloads[name] = PayloadInputs(
                ids=p.ids[idx] if p.ids is not None else None,
                mask=p.mask[idx] if p.mask is not None else None,
                member_ids=p.member_ids[idx] if p.member_ids is not None else None,
                spans=p.spans[idx] if p.spans is not None else None,
                member_mask=p.member_mask[idx] if p.member_mask is not None else None,
                features=p.features[idx] if p.features is not None else None,
            )
        return Batch(indices=idx, payloads=payloads)

    def gold_targets(self, task_name: str, source: str) -> dict[str, np.ndarray]:
        """Memoized :func:`extract_targets` over the full record set.

        The evaluation harness extracts the same gold labels for every task
        on every call; per-epoch dev evaluation makes that an epoch-hot
        python loop.  Labels are as immutable as the encoded inputs, so
        they are cached for the dataset's lifetime.
        """
        key = (task_name, source)
        cached = self._targets.get(key)
        if cached is None:
            cached = extract_targets(self._records, self.schema, task_name, source)
            self._targets[key] = cached
        return cached
