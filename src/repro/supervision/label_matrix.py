"""Label matrices: per-task vote tensors extracted from records.

The label model consumes a uniform representation regardless of task
granularity: a dense integer matrix ``votes`` of shape ``(n_items,
n_sources)`` where entry ``-1`` means the source abstained.  Items are:

* one per record for singleton and select tasks;
* one per (record, position) for sequence tasks — sequence supervision is
  the same statistical problem at token granularity ("Overton can accept
  supervision at whatever granularity ... is available", §1).

Bitvector tasks expand into one binary matrix per class (label present /
absent), combined independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import is_not
from typing import Sequence

import numpy as np

from repro.core.schema_def import Schema
from repro.data.record import Record
from repro.errors import SupervisionError

ABSTAIN = -1


@dataclass
class LabelMatrix:
    """Votes for one task (or one bitvector class) plus item bookkeeping.

    ``item_index`` maps matrix rows back to data: ``(record_idx, position)``
    pairs, where position is -1 for non-sequence tasks.  ``cardinality`` is
    the number of classes; for select tasks it is the payload's
    ``max_members`` and ``item_cardinality`` bounds the valid candidates per
    item.
    """

    votes: np.ndarray  # (n_items, n_sources) int, -1 = abstain
    sources: list[str]
    cardinality: int
    item_index: np.ndarray  # (n_items, 2) int: record_idx, position
    item_cardinality: np.ndarray | None = None  # (n_items,) for select tasks

    @property
    def n_items(self) -> int:
        return self.votes.shape[0]

    @property
    def n_sources(self) -> int:
        return self.votes.shape[1]

    def coverage(self) -> np.ndarray:
        """Per-source fraction of items with a (non-abstain) vote."""
        if self.n_items == 0:
            return np.zeros(self.n_sources)
        return (self.votes != ABSTAIN).mean(axis=0)

    def overlap(self) -> float:
        """Fraction of items labeled by at least two sources."""
        if self.n_items == 0:
            return 0.0
        counts = (self.votes != ABSTAIN).sum(axis=1)
        return float((counts >= 2).mean())

    def conflict(self) -> float:
        """Fraction of items where two non-abstain sources disagree."""
        if self.votes.size == 0:
            return 0.0
        # ABSTAIN is below every vote, so the row max is the largest vote;
        # a row conflicts when its smallest vote differs from it.
        top = self.votes.max(axis=1, keepdims=True)
        low = np.where(self.votes == ABSTAIN, top, self.votes).min(
            axis=1, keepdims=True
        )
        return np.count_nonzero(low != top) / self.n_items


def build_label_matrix(
    records: Sequence[Record],
    schema: Schema,
    task_name: str,
    sources: Sequence[str] | None = None,
    exclude_sources: Sequence[str] = (),
) -> LabelMatrix:
    """Extract the vote matrix for a multiclass or select task."""
    task = schema.task(task_name)
    payload = schema.payload(task.payload)
    if task.type == "bitvector":
        raise SupervisionError(
            "bitvector tasks expand per class; use build_bitvector_matrices"
        )
    source_list = _resolve_sources(records, task_name, sources, exclude_sources)
    layout = _ItemLayout(records, payload, task_name)
    n_items = len(layout.item_index)
    votes = np.full((n_items, len(source_list)), ABSTAIN, dtype=np.int64)

    if task.type == "multiclass":
        cardinality, item_cardinality = task.num_classes, None
        # A position a source skipped (None) is an abstain like any other.
        codes = {c: y for y, c in enumerate(task.classes)}
        codes[None] = ABSTAIN
        for j, source in enumerate(source_list):
            rows, labels = layout.labels_from(source)
            try:
                votes[rows, j] = list(map(codes.__getitem__, labels))
            except (KeyError, TypeError):
                for label in labels:  # name the offender as class_index does
                    if label is not None:
                        task.class_index(label)
                raise
    else:
        # select: votes are candidate slots; a slot the payload cannot hold
        # is no vote.
        cardinality = payload.max_members or 0
        item_cardinality = np.minimum(_lengths(records, payload.name), cardinality)
        for j, source in enumerate(source_list):
            rows, labels = layout.labels_from(source)
            slots = np.array(list(map(int, labels)), dtype=np.int64)
            in_range = (slots >= 0) & (slots < cardinality)
            votes[rows[in_range], j] = slots[in_range]
    return LabelMatrix(
        votes=votes,
        sources=source_list,
        cardinality=cardinality,
        item_index=layout.item_index,
        item_cardinality=item_cardinality,
    )


def build_bitvector_matrices(
    records: Sequence[Record],
    schema: Schema,
    task_name: str,
    sources: Sequence[str] | None = None,
    exclude_sources: Sequence[str] = (),
) -> dict[str, LabelMatrix]:
    """One binary (present=1 / absent=0) matrix per bitvector class."""
    task = schema.task(task_name)
    payload = schema.payload(task.payload)
    if task.type != "bitvector":
        raise SupervisionError(f"task {task_name!r} is not a bitvector task")
    source_list = _resolve_sources(records, task_name, sources, exclude_sources)
    layout = _ItemLayout(records, payload, task_name)
    codes = {c: y for y, c in enumerate(task.classes)}

    # One (class, item, source) array; each class's matrix is a slab of it.
    # A source that labeled an item votes 0 for every class, then 1 for the
    # classes it named (names outside the schema are ignored).
    votes = np.full(
        (task.num_classes, len(layout.item_index), len(source_list)),
        ABSTAIN,
        dtype=np.int64,
    )
    for j, source in enumerate(source_list):
        rows, named = layout.labels_from(source)
        labeled = _is_given(named)
        rows, named = rows[labeled], list(compress(named, labeled))
        votes[:, rows, j] = 0
        n_named = np.fromiter(map(len, named), np.int64, count=len(named))
        owner = np.repeat(rows, n_named)
        cls = np.fromiter(
            map(codes.get, chain.from_iterable(named), repeat(-1)),
            np.int64,
            count=len(owner),
        )
        known = cls >= 0
        votes[cls[known], owner[known], j] = 1
    return {
        c: LabelMatrix(
            votes=votes[y],
            sources=source_list,
            cardinality=2,
            item_index=layout.item_index,
        )
        for c, y in codes.items()
    }


class _ItemLayout:
    """Which matrix rows each record owns for one task, computed once.

    A sequence payload gives a record one row per position (up to the
    payload's ``max_length``), anything else gives it one row; rows are
    laid out record by record.  ``item_index`` is ``LabelMatrix.item_index``.
    """

    def __init__(self, records: Sequence[Record], payload, task_name: str) -> None:
        n = len(records)
        self.by_record = [r.tasks.get(task_name, {}) for r in records]
        self.is_sequence = payload.type == "sequence"
        if self.is_sequence:
            lengths = _lengths(records, payload.name)
            self.n_pos = np.minimum(lengths, payload.max_length or 0)
            position = _run_offsets(self.n_pos)
        else:
            self.n_pos = np.ones(n, dtype=np.int64)
            position = np.full(n, -1, dtype=np.int64)
        self.starts = np.cumsum(self.n_pos) - self.n_pos
        owner = np.repeat(np.arange(n, dtype=np.int64), self.n_pos)
        self.item_index = np.stack([owner, position], axis=1)

    def labels_from(self, source: str) -> tuple[np.ndarray, list]:
        """``(rows, labels)``: the rows ``source`` spoke to and what it said.

        Records the source skipped contribute nothing; inside a sequence a
        skipped position stays in as ``None``.
        """
        given = list(map(dict.get, self.by_record, repeat(source)))
        spoke = _is_given(given)
        recs = np.nonzero(spoke)[0]
        given = list(compress(given, spoke))
        if not self.is_sequence:
            return recs, given
        given = [labels[:p] for labels, p in zip(given, self.n_pos[recs].tolist())]
        lens = np.fromiter(map(len, given), np.int64, count=len(given))
        rows = np.repeat(self.starts[recs], lens) + _run_offsets(lens)
        return rows, list(chain.from_iterable(given))


def _run_offsets(lens: np.ndarray) -> np.ndarray:
    """``0..len-1`` for each run of a ragged layout, runs back to back."""
    first = np.cumsum(lens) - lens
    return np.arange(lens.sum(), dtype=np.int64) - np.repeat(first, lens)


def _is_given(labels: list) -> np.ndarray:
    """Boolean mask of the entries that are not ``None``."""
    return np.fromiter(map(is_not, labels, repeat(None)), bool, count=len(labels))


def _lengths(records: Sequence[Record], payload_name: str) -> np.ndarray:
    """Each record's payload length (0 when the payload is missing)."""
    values = [r.payloads.get(payload_name) or () for r in records]
    return np.fromiter(map(len, values), np.int64, count=len(values))


def observed_sources(
    records: Sequence[Record], task_names: Sequence[str]
) -> dict[str, list[str]]:
    """Per task, the sorted names of every source that labeled any record."""
    seen: dict[str, set[str]] = {name: set() for name in task_names}
    for record in records:
        for task_name, by_source in record.tasks.items():
            if task_name in seen:
                seen[task_name].update(by_source)
    return {name: sorted(found) for name, found in seen.items()}


def _resolve_sources(
    records: Sequence[Record],
    task_name: str,
    sources: Sequence[str] | None,
    exclude_sources: Sequence[str],
) -> list[str]:
    if sources is None:
        sources = observed_sources(records, [task_name])[task_name]
    excluded = set(exclude_sources)
    result = [s for s in sources if s not in excluded]
    if not result:
        raise SupervisionError(
            f"no supervision sources available for task {task_name!r}"
        )
    return result
