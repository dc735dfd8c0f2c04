"""Slice definitions and membership.

"An engineer defines a slice by tagging a subset of the data and indicating
that this tag is also a slice ... A slice also indicates to Overton that it
should increase its representation capacity (slightly) to learn a 'per
slice' representation for a task" (§2.2).

A slice is defined either by a tag already present on records (the
data-file path) or by a predicate (the programmatic path, which writes the
tag).  Membership is heuristic: the model additionally *learns* an
indicator so slices generalize to new examples (see
:mod:`repro.slicing.heads`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.data.record import Record
from repro.data.tags import slice_tag
from repro.errors import SliceError


@dataclass
class SliceSpec:
    """One slice: a name plus how membership is decided."""

    name: str
    predicate: Callable[[Record], bool] | None = None
    description: str = ""

    @property
    def tag(self) -> str:
        return slice_tag(self.name)

    def member(self, record: Record) -> bool:
        """Heuristic membership: tag match, or predicate if provided."""
        if record.has_tag(self.tag):
            return True
        if self.predicate is not None:
            return bool(self.predicate(record))
        return False

    def materialize(self, records: Sequence[Record]) -> int:
        """Write the slice tag onto matching records; returns the count."""
        count = 0
        for record in records:
            if self.member(record):
                record.add_tag(self.tag)
                count += 1
        return count


class SliceSet:
    """An ordered collection of slices for one application."""

    def __init__(self, slices: Sequence[SliceSpec] = ()) -> None:
        names = [s.name for s in slices]
        if len(set(names)) != len(names):
            raise SliceError(f"duplicate slice names: {names}")
        self.slices = list(slices)

    def __len__(self) -> int:
        return len(self.slices)

    def __iter__(self):
        return iter(self.slices)

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.slices]

    def add(self, spec: SliceSpec) -> None:
        if spec.name in self.names:
            raise SliceError(f"slice {spec.name!r} already defined")
        self.slices.append(spec)

    def get(self, name: str) -> SliceSpec:
        for s in self.slices:
            if s.name == name:
                return s
        raise SliceError(f"unknown slice {name!r}")

    def membership_matrix(self, records: Sequence[Record]) -> np.ndarray:
        """(n_records, n_slices) float membership indicators."""
        matrix = np.zeros((len(records), len(self.slices)))
        for j, spec in enumerate(self.slices):
            for i, record in enumerate(records):
                if spec.member(record):
                    matrix[i, j] = 1.0
        return matrix

    def materialize(self, records: Sequence[Record]) -> dict[str, int]:
        """Tag all records for all slices; returns per-slice counts."""
        return {s.name: s.materialize(records) for s in self.slices}

    @classmethod
    def from_tags(cls, records: Sequence[Record]) -> "SliceSet":
        """Discover slices from ``slice:`` tags already in the data."""
        from repro.data.tags import is_slice_tag, slice_name

        names: list[str] = []
        for record in records:
            for tag in record.tags:
                if is_slice_tag(tag) and slice_name(tag) not in names:
                    names.append(slice_name(tag))
        return cls([SliceSpec(name=n) for n in sorted(names)])
