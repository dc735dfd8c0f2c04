"""Per-tag and per-slice quality reports: Overton's monitoring output.

"Engineers are free to define their own subsets of data via tags ...
Overton allows report per-tag monitoring" (§2.2).  A report row is (tag,
task, metric values, n); the table exports to pandas-compatible columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.schema_def import Schema
from repro.data.record import Record
from repro.data.tags import TagTable
from repro.data.vocab import Vocab
from repro.model.multitask import MultitaskModel
from repro.training.evaluation import _score, encode_records, predict_all


@dataclass
class ReportRow:
    """One (tag, task) line of a quality report."""

    tag: str
    task: str
    n: int
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass
class QualityReport:
    """A full fine-grained quality report for one model on one dataset."""

    rows: list[ReportRow] = field(default_factory=list)

    def for_tag(self, tag: str) -> list[ReportRow]:
        return [r for r in self.rows if r.tag == tag]

    def for_task(self, task: str) -> list[ReportRow]:
        return [r for r in self.rows if r.task == task]

    def metric(self, tag: str, task: str, name: str) -> float:
        for row in self.rows:
            if row.tag == tag and row.task == task:
                return row.metrics.get(name, float("nan"))
        return float("nan")

    def to_columns(self) -> dict[str, list]:
        """Pandas-compatible columnar dict."""
        metric_names = sorted({m for r in self.rows for m in r.metrics})
        columns: dict[str, list] = {
            "tag": [r.tag for r in self.rows],
            "task": [r.task for r in self.rows],
            "n": [r.n for r in self.rows],
        }
        for name in metric_names:
            columns[name] = [r.metrics.get(name, float("nan")) for r in self.rows]
        return columns


def quality_report(
    model: MultitaskModel,
    records: Sequence[Record],
    schema: Schema,
    vocabs: dict[str, Vocab],
    gold_source: str = "gold",
    tags: Sequence[str] | None = None,
    include_overall: bool = True,
) -> QualityReport:
    """Evaluate per tag (all tags by default, including slices).

    One encoding and one inference pass: every record is predicted once
    and each task's gold targets are read from that encoding once; a
    tag's rows score those arrays at the tag's record indices.  Rows come
    "overall" first, then tags in the given (default: :class:`TagTable`)
    order, each tag's tasks in schema order; a tag no record carries gets
    ``n=0`` rows.
    """
    table = TagTable([r.tags for r in records])
    groups: list[tuple[str, np.ndarray | None]] = []
    if include_overall:
        groups.append(("overall", None))
    tag_list = tags if tags is not None else table.all_tags
    groups.extend((tag, table.indices(tag)) for tag in tag_list)
    encoded = encode_records(model, records, schema, vocabs)
    outputs = predict_all(model, records, schema, vocabs, encoded=encoded)
    golds = {t.name: encoded.gold_targets(t.name, gold_source) for t in schema.tasks}
    report = QualityReport()
    for tag, rows in groups:
        size = len(records) if rows is None else len(rows)
        for task in schema.tasks:
            if not size:
                report.rows.append(ReportRow(tag=tag, task=task.name, n=0))
                continue
            scored = _score(
                task, outputs[task.name]["predictions"], golds[task.name], rows
            )
            report.rows.append(
                ReportRow(tag=tag, task=task.name, n=scored.n, metrics=scored.metrics)
            )
    return report
