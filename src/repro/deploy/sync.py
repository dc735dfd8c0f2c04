"""Large/small model synchronization.

"Teams use multiple models to train a 'large' and a 'small' model on the
same data.  The large model is often used to populate caches and do error
analysis, while the small model must meet SLA requirements.  Overton makes
it easy to keep these two models synchronized" (§2.4).

Synchronization here means: same schema fingerprint, same data fingerprint,
pushed together under ``<name>/large`` and ``<name>/small``; a checker
verifies the invariants and measures prediction agreement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Sequence

from repro.api.endpoint import Endpoint
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


@dataclass
class SyncCheck:
    """Result of verifying a large/small pair's sync invariants."""

    in_sync: bool
    agreement: float | None
    problems: list[str]


def check_pair(
    store: ModelStore,
    name: str,
    probe_payloads: Sequence[dict] | None = None,
    min_agreement: float = 0.8,
) -> SyncCheck:
    """Verify a deployed pair's invariants; optionally probe agreement."""
    problems: list[str] = []
    try:
        large, small = fetch_pair(store, name)
    except Exception as exc:  # missing half of the pair etc.
        return SyncCheck(in_sync=False, agreement=None, problems=[str(exc)])
    if large.schema.fingerprint() != small.schema.fingerprint():
        problems.append("schema fingerprints differ")
    if large.metadata.get("data_fingerprint") != small.metadata.get("data_fingerprint"):
        problems.append("data fingerprints differ")
    if large.metadata.get("num_parameters", 0) < small.metadata.get("num_parameters", 0):
        problems.append("'large' model has fewer parameters than 'small'")
    agreement = None
    if probe_payloads:
        permissive = {"strict": False, "micro_batch_size": None}
        large_preds = Endpoint(large, **permissive).predict(list(probe_payloads))
        small_preds = Endpoint(small, **permissive).predict(list(probe_payloads))
        tasks = [o.name for o in large.signature.outputs]
        agreement = predictions_match(large_preds, small_preds, tasks)
        if agreement < min_agreement:
            problems.append(
                f"prediction agreement {agreement:.2f} below {min_agreement:.2f}"
            )
    return SyncCheck(in_sync=not problems, agreement=agreement, problems=problems)


def predictions_match(
    a: list[dict[str, Any]], b: list[dict[str, Any]], tasks: Sequence[str]
) -> float:
    """Agreement rate between two endpoints' hard outputs (for model sync)."""
    if len(a) != len(b):
        raise DeploymentError("prediction lists differ in length")
    if not a:
        return 1.0
    agree = 0
    total = 0
    for ra, rb in zip(a, b):
        for task in tasks:
            va, vb = ra.get(task, {}), rb.get(task, {})
            key = "label" if "label" in va else ("index" if "index" in va else "labels")
            agree += int(va.get(key) == vb.get(key))
            total += 1
    return agree / max(total, 1)
