"""Datasets: validated collections of records bound to a schema."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.schema_def import Schema
from repro.data.jsonl import read_records, write_records
from repro.data.record import Record
from repro.data.tags import TagTable
from repro.data.vocab import Vocab
from repro.errors import DataError


class Dataset:
    """An in-memory dataset validated against a schema.

    Records keep their file order; tags select subsets without copying the
    underlying records (Overton's monitoring is tag-driven).
    """

    def __init__(self, schema: Schema, records: Iterable[Record], validate: bool = True) -> None:
        self.schema = schema
        self.records = list(records)
        if validate:
            for i, record in enumerate(self.records):
                try:
                    record.validate(schema)
                except DataError as exc:
                    raise DataError(f"record {i}: {exc}") from exc

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, index: int) -> Record:
        return self.records[index]

    # ------------------------------------------------------------------
    # IO
    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, schema: Schema, path: str | Path, validate: bool = True) -> "Dataset":
        return cls(schema, read_records(path), validate=validate)

    def save(self, path: str | Path) -> int:
        return write_records(path, self.records)

    # ------------------------------------------------------------------
    # Tags and subsets
    # ------------------------------------------------------------------
    def tag_table(self) -> TagTable:
        return TagTable([r.tags for r in self.records])

    def subset(self, indices: np.ndarray | list[int]) -> "Dataset":
        """Select records by index (skips revalidation)."""
        picked = [self.records[int(i)] for i in indices]
        return Dataset(self.schema, picked, validate=False)

    def with_tag(self, tag: str) -> "Dataset":
        return self.subset(self.tag_table().indices(tag))

    def split(self, name: str) -> "Dataset":
        """Records in one of the default splits (train/dev/test)."""
        return self.with_tag(name)

    # ------------------------------------------------------------------
    # Vocab construction
    # ------------------------------------------------------------------
    def build_vocabs(self, min_count: int = 1) -> dict[str, Vocab]:
        """Build a vocab for each payload that carries symbols.

        Sequence payloads vocab over their items; set payloads vocab over
        member ``id`` fields.
        """
        vocabs: dict[str, Vocab] = {}
        for payload in self.schema.payloads:
            if payload.type == "sequence":
                sequences = (
                    r.payloads.get(payload.name) or [] for r in self.records
                )
                vocabs[payload.name] = Vocab.build(sequences, min_count=min_count)
            elif payload.type == "set":
                id_lists = (
                    [m.get("id", "") for m in (r.payloads.get(payload.name) or [])]
                    for r in self.records
                )
                vocabs[payload.name] = Vocab.build(id_lists, min_count=min_count)
        return vocabs

    # ------------------------------------------------------------------
    # Supervision summary
    # ------------------------------------------------------------------
    def supervision_stats(self) -> dict[str, dict[str, int]]:
        """Per task, per source: number of records that source labeled."""
        stats: dict[str, dict[str, int]] = {t.name: {} for t in self.schema.tasks}
        for record in self.records:
            for task_name, sources in record.tasks.items():
                per_task = stats.setdefault(task_name, {})
                for source, label in sources.items():
                    if label is not None:
                        per_task[source] = per_task.get(source, 0) + 1
        return stats
