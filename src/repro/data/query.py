"""Engineer-facing data-file queries.

"The file is meant to be engineer readable and queryable (say using jq)"
(§2.2).  This module is the in-library jq equivalent: composable filters
and projections over records, so an engineer can slice a data file from a
REPL without external tools.

Example::

    q = (RecordQuery(dataset.records)
         .with_tag("train")
         .where_task_label("Intent", "gold", "height")
         .conflicting("Intent"))
    print(q.count())
    for row in q.project("payloads.query", "tasks.Intent"):
        print(row)
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.data.record import Record


class RecordQuery:
    """A lazy, chainable filter pipeline over records."""

    def __init__(self, records: Sequence[Record]) -> None:
        self._records = list(records)

    # ------------------------------------------------------------------
    # Filters (each returns a new query)
    # ------------------------------------------------------------------
    def where(self, predicate: Callable[[Record], bool]) -> "RecordQuery":
        return RecordQuery([r for r in self._records if predicate(r)])

    def with_tag(self, tag: str) -> "RecordQuery":
        return self.where(lambda r: r.has_tag(tag))

    def unlabeled(self, task: str) -> "RecordQuery":
        """Records with no supervision at all for ``task``."""
        return self.where(
            lambda r: not any(
                label is not None for label in r.sources_for(task).values()
            )
        )

    def where_task_label(self, task: str, source: str, label: Any) -> "RecordQuery":
        return self.where(lambda r: r.label_from(task, source) == label)

    def conflicting(self, task: str) -> "RecordQuery":
        """Records where at least two sources disagree on ``task``.

        This is the view engineers inspect first when a task underperforms:
        conflicts are where the label model is earning (or losing) its keep.
        """

        def has_conflict(record: Record) -> bool:
            labels = [
                _hashable(v)
                for v in record.sources_for(task).values()
                if v is not None
            ]
            return len(set(labels)) > 1

        return self.where(has_conflict)

    # ------------------------------------------------------------------
    # Terminals
    # ------------------------------------------------------------------
    def records(self) -> list[Record]:
        return list(self._records)

    def count(self) -> int:
        return len(self._records)

    def sample(self, n: int, seed: int = 0) -> list[Record]:
        import numpy as np

        if n >= len(self._records):
            return list(self._records)
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self._records), size=n, replace=False)
        return [self._records[int(i)] for i in idx]

    def project(self, *paths: str) -> Iterator[dict[str, Any]]:
        """Extract dotted paths (e.g. ``payloads.query``, ``tasks.Intent``)."""
        for record in self._records:
            row = {}
            data = record.to_dict()
            for path in paths:
                row[path] = _walk(data, path.split("."))
            yield row

    def label_distribution(self, task: str, source: str) -> dict[Any, int]:
        """Histogram of one source's labels for one task."""
        counts: dict[Any, int] = {}
        for record in self._records:
            label = record.label_from(task, source)
            if label is None:
                continue
            key = _hashable(label)
            counts[key] = counts.get(key, 0) + 1
        return counts


def _walk(data: Any, parts: list[str]) -> Any:
    for part in parts:
        if isinstance(data, dict):
            data = data.get(part)
        else:
            return None
    return data


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value
