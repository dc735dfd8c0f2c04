"""Data augmentation policies.

"Data augmentation is another major source of training data" (§4).  Policies
transform existing records into new ones; outputs carry an
``augmentation``-kind source so lineage distinguishes them from originals,
and an ``augmented`` tag supports fine-grained monitoring of their effect.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.data.record import Record
from repro.errors import SupervisionError
from repro.supervision.source import LabelSource

AUGMENT_TAG = "augmented"


@dataclass
class AugmentationPolicy:
    """A named record transform.

    ``fn(record, rng)`` returns a new record or ``None`` (not applicable).
    """

    name: str
    fn: Callable[[Record, np.random.Generator], Record | None]

    @property
    def source(self) -> LabelSource:
        return LabelSource(
            name=f"augment:{self.name}",
            kind="augmentation",
            description=f"records produced by the {self.name!r} policy",
        )

    def apply(self, record: Record, rng: np.random.Generator) -> Record | None:
        result = self.fn(copy.deepcopy(record), rng)
        if result is None:
            return None
        result.add_tag(AUGMENT_TAG)
        # Re-tag every label the new record carries with augmentation
        # lineage so the label model can learn its reliability separately.
        retagged: dict[str, dict] = {}
        for task, sources in result.tasks.items():
            merged: dict = {}
            for _, label in sources.items():
                merged[self.source.name] = label
            retagged[task] = merged
        result.tasks = retagged
        return result


def token_dropout(payload: str = "tokens", rate: float = 0.15) -> AugmentationPolicy:
    """Randomly delete tokens (and aligned sequence labels)."""
    if not 0 < rate < 1:
        raise SupervisionError(f"dropout rate must be in (0,1), got {rate}")

    def fn(record: Record, rng: np.random.Generator) -> Record | None:
        tokens = record.payloads.get(payload)
        if not tokens or len(tokens) < 3:
            return None
        keep = rng.random(len(tokens)) >= rate
        if keep.all() or keep.sum() < 2:
            return None
        keep_idx = [i for i, k in enumerate(keep) if k]
        record.payloads[payload] = [tokens[i] for i in keep_idx]
        _filter_aligned_labels(record, payload, tokens, keep_idx)
        _drop_span_members(record, keep_idx)
        return record

    return AugmentationPolicy(name="token_dropout", fn=fn)


def _filter_aligned_labels(
    record: Record, payload: str, original_tokens: list, keep_idx: list[int]
) -> None:
    """Keep sequence-task labels aligned after token deletion."""
    for task, sources in record.tasks.items():
        for source, label in list(sources.items()):
            if isinstance(label, list) and len(label) == len(original_tokens):
                sources[source] = [label[i] for i in keep_idx]


def _drop_span_members(record: Record, keep_idx: list[int]) -> None:
    """Remove set members whose spans were broken by token deletion.

    Kept indices are remapped; members referencing deleted positions are
    dropped, and select-task labels are remapped or removed accordingly.
    """
    position_map = {old: new for new, old in enumerate(keep_idx)}
    for name, value in list(record.payloads.items()):
        if not isinstance(value, list) or not value or not isinstance(value[0], dict):
            continue
        surviving: list[dict] = []
        member_map: dict[int, int] = {}
        for old_idx, member in enumerate(value):
            span = member.get("range")
            if span is None:
                member_map[old_idx] = len(surviving)
                surviving.append(member)
                continue
            positions = list(range(span[0], span[1]))
            if all(p in position_map for p in positions):
                new_span = [position_map[positions[0]], position_map[positions[-1]] + 1]
                new_member = dict(member)
                new_member["range"] = new_span
                member_map[old_idx] = len(surviving)
                surviving.append(new_member)
        record.payloads[name] = surviving
        # Remap select labels that pointed at members of this payload.
        for task, sources in record.tasks.items():
            for source, label in list(sources.items()):
                if isinstance(label, int):
                    if label in member_map:
                        sources[source] = member_map[label]
                    else:
                        del sources[source]


class Augmenter:
    """Apply a set of policies to a dataset, multiplying training data."""

    def __init__(self, policies: Sequence[AugmentationPolicy], seed: int = 0) -> None:
        self.policies = list(policies)
        self._rng = np.random.default_rng(seed)

    def augment(self, records: Sequence[Record], copies: int = 1) -> list[Record]:
        """Produce up to ``copies`` augmented variants per record per policy."""
        out: list[Record] = []
        for record in records:
            for policy in self.policies:
                for _ in range(copies):
                    new = policy.apply(record, self._rng)
                    if new is not None:
                        out.append(new)
        return out

    def sources(self) -> list[LabelSource]:
        return [p.source for p in self.policies]
