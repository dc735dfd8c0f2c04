"""Check a deployed large/small pair (§2.4).

:mod:`repro.deploy.sync` pushes a pair under one schema and data
fingerprint.  This module verifies those invariants on what the store
holds and, given probe payloads, serves both halves through an
:class:`~repro.api.Endpoint` to measure how often they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.api.endpoint import Endpoint
from repro.deploy.store import ModelStore
from repro.deploy.sync import fetch_pair
from repro.errors import DeploymentError


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
