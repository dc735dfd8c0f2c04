"""Large/small model synchronization.

"Teams use multiple models to train a 'large' and a 'small' model on the
same data.  The large model is often used to populate caches and do error
analysis, while the small model must meet SLA requirements.  Overton makes
it easy to keep these two models synchronized" (§2.4).

Synchronization here means: same schema fingerprint, same data fingerprint,
pushed together under ``<name>/large`` and ``<name>/small``.  The checker
that verifies a pushed pair and measures its prediction agreement serves
both halves, so it sits above this layer, in :mod:`repro.api.sync`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.data.record import Record
from repro.deploy.artifact import ModelArtifact
from repro.deploy.store import ModelStore, StoredVersion
from repro.errors import DeploymentError


def data_fingerprint(records: Sequence[Record]) -> str:
    """Stable hash of a training set, recorded on artifacts at train time."""
    return data_fingerprints(records, ())[0]


def data_fingerprints(records: Sequence[Record], subset: Sequence[Record]) -> tuple[str, str]:
    """``data_fingerprint`` of ``records`` and of ``subset``, an in-order
    selection of them such as a split, encoding each record once."""
    chosen = {id(record) for record in subset}
    whole, part = hashlib.sha256(), hashlib.sha256()
    for record in records:
        encoded = record.to_json().encode()
        whole.update(encoded)
        if id(record) in chosen:
            part.update(encoded)
    return whole.hexdigest()[:16], part.hexdigest()[:16]


@dataclass
class SyncedPush:
    """Result of pushing a synchronized pair."""

    large: StoredVersion
    small: StoredVersion


def push_pair(
    store: ModelStore,
    name: str,
    large: ModelArtifact,
    small: ModelArtifact,
) -> SyncedPush:
    """Push a large/small pair atomically, enforcing sync invariants."""
    if large.schema.fingerprint() != small.schema.fingerprint():
        raise DeploymentError(
            "large/small pair trained against different schemas"
        )
    large_data = large.metadata.get("data_fingerprint")
    small_data = small.metadata.get("data_fingerprint")
    if large_data != small_data:
        raise DeploymentError(
            f"large/small pair trained on different data: "
            f"{large_data!r} vs {small_data!r}"
        )
    return SyncedPush(
        large=store.push(f"{name}/large", large),
        small=store.push(f"{name}/small", small),
    )


def fetch_pair(store: ModelStore, name: str) -> tuple[ModelArtifact, ModelArtifact]:
    return store.fetch(f"{name}/large"), store.fetch(f"{name}/small")
