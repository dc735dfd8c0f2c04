"""Tags: Overton's fine-grained monitoring handles (§2.2 "Monitoring").

"Overton allows engineers to provide user-defined tags that are associated
with individual data points.  The system additionally defines default tags
including train, test, dev ... These tags are stored in a format that is
compatible with Pandas."

Tags are plain strings on records.  Slice tags use the ``slice:`` prefix by
convention so slices are ordinary tags that the slicing subsystem also
understands.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SPLITS = ("train", "dev", "test")
SLICE_PREFIX = "slice:"


def is_slice_tag(tag: str) -> bool:
    return tag.startswith(SLICE_PREFIX)


def slice_name(tag: str) -> str:
    """Strip the ``slice:`` prefix from a slice tag."""
    if not is_slice_tag(tag):
        raise ValueError(f"{tag!r} is not a slice tag")
    return tag[len(SLICE_PREFIX) :]


def slice_tag(name: str) -> str:
    """Build the tag for a slice name."""
    return f"{SLICE_PREFIX}{name}"


def assign_splits(
    n: int,
    rng: np.random.Generator,
    train: float = 0.8,
    dev: float = 0.1,
) -> list[str]:
    """Randomly assign each of ``n`` records a default split tag.

    Proportions must satisfy ``0 < train``, ``0 <= dev``, ``train + dev < 1``
    (the remainder is test).
    """
    if not 0 < train < 1 or dev < 0 or train + dev >= 1:
        raise ValueError(
            f"invalid split proportions train={train}, dev={dev}"
        )
    draws = rng.random(n)
    splits = []
    for value in draws:
        if value < train:
            splits.append("train")
        elif value < train + dev:
            splits.append("dev")
        else:
            splits.append("test")
    return splits


class TagTable:
    """A columnar view of tags across a dataset.

    "These tags are stored in a format that is compatible with Pandas" — the
    table exposes ``to_columns()`` returning a dict of equal-length lists, the
    exact structure ``pandas.DataFrame(...)`` accepts, without requiring
    pandas itself to be installed.
    """

    def __init__(self, tags_per_record: list[list[str]]) -> None:
        self._size = len(tags_per_record)
        members: dict[str, list[int]] = {}
        for i, tags in enumerate(tags_per_record):
            for tag in set(tags):
                members.setdefault(tag, []).append(i)
        self._indices: dict[str, np.ndarray] = {}
        for tag in sorted(members):
            rows = np.array(members[tag], dtype=np.intp)
            rows.flags.writeable = False  # shared by every indices() call
            self._indices[tag] = rows

    def __len__(self) -> int:
        return self._size

    @property
    def all_tags(self) -> list[str]:
        return list(self._indices)

    def mask(self, tag: str) -> np.ndarray:
        """Boolean membership vector for ``tag`` over all records."""
        membership = np.zeros(self._size, dtype=bool)
        membership[self.indices(tag)] = True
        return membership

    def indices(self, tag: str) -> np.ndarray:
        """Record indices carrying ``tag``, ascending."""
        return self._indices.get(tag, np.zeros(0, dtype=np.intp))

    def count(self, tag: str) -> int:
        return len(self.indices(tag))

    def slice_tags(self) -> list[str]:
        return [t for t in self._indices if is_slice_tag(t)]

    def to_columns(self) -> dict[str, list]:
        """Pandas-compatible columnar dict: one bool column per tag."""
        columns: dict[str, list] = {"record": list(range(self._size))}
        for tag in self._indices:
            membership = self.mask(tag)
            columns[tag] = [bool(x) for x in membership]
        return columns
