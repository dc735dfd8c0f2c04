"""Example records.

"It is specified as (conceptually) a single file ... each line is a single
JSON record" (§2.2).  A record carries payload values, per-task supervision
keyed by *source* (lineage is first-class), and tags.

The canonical JSON layout (pretty-printed in Fig. 2a)::

    {
      "payloads": {
        "tokens": ["How", "tall", ...],
        "query": "How tall is the president of the united states",
        "entities": [{"id": "President_(title)", "range": [4, 5]}, ...]
      },
      "tasks": {
        "POS":    {"spacy": ["ADV", "ADJ", ...]},
        "Intent": {"weak1": "President", "weak2": "Height", "crowd": "Height"},
        "IntentArg": {"weak1": 2, "weak2": 0, "crowd": 1}
      },
      "tags": ["train", "slice:nutrition"]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.schema_def import Schema
from repro.data.values import value_rule
from repro.errors import DataError


@dataclass
class Record:
    """One example: payload values + per-source supervision + tags."""

    payloads: dict[str, Any] = field(default_factory=dict)
    tasks: dict[str, dict[str, Any]] = field(default_factory=dict)
    tags: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, spec: dict) -> "Record":
        if not isinstance(spec, dict):
            raise DataError("record must be a JSON object")
        unknown = set(spec) - {"payloads", "tasks", "tags"}
        if unknown:
            raise DataError(f"record has unknown fields {sorted(unknown)}")
        tasks = spec.get("tasks", {})
        if not isinstance(tasks, dict):
            raise DataError("record 'tasks' must be an object")
        for task_name, sources in tasks.items():
            if not isinstance(sources, dict):
                raise DataError(
                    f"record task {task_name!r} must map source -> label "
                    "(lineage is required)"
                )
        return cls(
            payloads=dict(spec.get("payloads", {})),
            tasks={t: dict(s) for t, s in tasks.items()},
            tags=list(spec.get("tags", [])),
        )

    @classmethod
    def from_json(cls, line: str) -> "Record":
        try:
            spec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"record is not valid JSON: {exc}") from exc
        return cls.from_dict(spec)

    def to_dict(self) -> dict:
        return {"payloads": self.payloads, "tasks": self.tasks, "tags": self.tags}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    # ------------------------------------------------------------------
    # Supervision access
    # ------------------------------------------------------------------
    def sources_for(self, task: str) -> dict[str, Any]:
        """All (source, label) pairs supplied for ``task`` (may be empty)."""
        return self.tasks.get(task, {})

    def label_from(self, task: str, source: str) -> Any:
        """The label ``source`` assigned for ``task``, or None if absent."""
        return self.tasks.get(task, {}).get(source)

    def add_label(self, task: str, source: str, label: Any) -> None:
        """Attach supervision (records lineage by construction)."""
        self.tasks.setdefault(task, {})[source] = label

    # ------------------------------------------------------------------
    # Tags
    # ------------------------------------------------------------------
    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    def add_tag(self, tag: str) -> None:
        if tag not in self.tags:
            self.tags.append(tag)

    # ------------------------------------------------------------------
    # Validation against a schema
    # ------------------------------------------------------------------
    def validate(self, schema: Schema) -> None:
        """Raise :class:`DataError` if this record violates ``schema``."""
        for name, value in self.payloads.items():
            value_rule(schema.payload(name))(value)  # SchemaError if unknown

        for task_name, sources in self.tasks.items():
            task = schema.task(task_name)  # raises SchemaError for unknown
            payload = schema.payload(task.payload)
            for source, label in sources.items():
                self._validate_label(task, payload, source, label)

    def _validate_label(self, task, payload, source: str, label: Any) -> None:
        where = f"task {task.name!r} source {source!r}"
        if label is None:
            return  # abstain
        if task.type == "multiclass":
            if payload.type == "sequence":
                seq = self.payloads.get(payload.name) or []
                if not isinstance(label, list) or len(label) != len(seq):
                    raise DataError(
                        f"{where}: sequence labels must align with "
                        f"{payload.name!r} ({len(seq)} positions)"
                    )
                for item in label:
                    if item is not None and item not in task.classes:
                        raise DataError(f"{where}: unknown class {item!r}")
            else:
                if label not in task.classes:
                    raise DataError(f"{where}: unknown class {label!r}")
        elif task.type == "bitvector":
            if payload.type == "sequence":
                seq = self.payloads.get(payload.name) or []
                if not isinstance(label, list) or len(label) != len(seq):
                    raise DataError(
                        f"{where}: bitvector sequence labels must align with "
                        f"{payload.name!r}"
                    )
                positions = label
            else:
                positions = [label]
            for item in positions:
                if item is None:
                    continue
                if not isinstance(item, list):
                    raise DataError(f"{where}: bitvector labels must be lists")
                for cls_name in item:
                    if cls_name not in task.classes:
                        raise DataError(f"{where}: unknown class {cls_name!r}")
        elif task.type == "select":
            members = self.payloads.get(payload.name) or []
            if not isinstance(label, int) or not 0 <= label < len(members):
                raise DataError(
                    f"{where}: select label must be a member index in "
                    f"[0, {len(members)}), got {label!r}"
                )
