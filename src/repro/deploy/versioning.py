"""Model versioning — the extension the paper calls for.

"Overton does not have support for model versioning, which is likely a
design oversight" (§2.4).  This module supplies it: a per-model version log
with semantic versions, lineage (parent version, data/schema fingerprints),
promotion gates driven by the regression detector, and rollback.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.codec import Spec, replacing
from repro.deploy.store import ModelStore
from repro.errors import DeploymentError


@dataclass
class VersionRecord(Spec, error=DeploymentError):
    """One semantic version bound to a store content hash."""

    semver: str
    content_version: str
    parent: str | None
    created_at: float
    data_fingerprint: str | None = None
    schema_fingerprint: str | None = None
    notes: str = ""
    status: str = "candidate"  # candidate | released | rolled_back


class VersionLog:
    """Semantic-version history for one model name in a store."""

    def __init__(self, store: ModelStore, name: str) -> None:
        self.store = store
        self.name = name
        self._path = Path(store.root) / name / "versions.json"

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        content_version: str,
        bump: str = "minor",
        notes: str = "",
    ) -> VersionRecord:
        """Register a pushed content version under the next semver."""
        known = {v["version"] for v in (self.store._read_index(self.name)["versions"])}
        if content_version not in known:
            raise DeploymentError(
                f"content version {content_version!r} was never pushed to the store"
            )
        records = self.records()
        parent = records[-1].semver if records else None
        semver = _next_semver(records[-1].semver if records else None, bump)
        artifact = self.store.fetch(self.name, content_version)
        record = VersionRecord(
            semver=semver,
            content_version=content_version,
            parent=parent,
            created_at=time.time(),
            data_fingerprint=artifact.metadata.get("data_fingerprint"),
            schema_fingerprint=artifact.schema.fingerprint(),
            notes=notes,
        )
        entries = [r.to_dict() for r in records] + [record.to_dict()]
        self._write(entries)
        return record

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def release(self, semver: str) -> VersionRecord:
        """Promote a candidate and point the store's latest at it."""
        records = self.records()
        target = self._find(records, semver)
        target.status = "released"
        self.store.set_latest(self.name, target.content_version)
        self._write([r.to_dict() for r in records])
        return target

    def rollback(self, to_semver: str) -> VersionRecord:
        """Re-release an older version; newer releases are marked rolled back."""
        records = self.records()
        target = self._find(records, to_semver)
        found = False
        for record in records:
            if record.semver == to_semver:
                record.status = "released"
                found = True
            elif found and record.status == "released":
                record.status = "rolled_back"
        self.store.set_latest(self.name, target.content_version)
        self._write([r.to_dict() for r in records])
        return target

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records(self) -> list[VersionRecord]:
        if not self._path.exists():
            return []
        return [VersionRecord.from_dict(v) for v in json.loads(self._path.read_text())]

    def released(self) -> VersionRecord | None:
        released = [r for r in self.records() if r.status == "released"]
        return released[-1] if released else None

    def lineage(self, semver: str) -> list[str]:
        """Chain of semvers from the root to ``semver``."""
        by_semver = {r.semver: r for r in self.records()}
        if semver not in by_semver:
            raise DeploymentError(f"unknown version {semver!r}")
        chain = [semver]
        while by_semver[chain[-1]].parent is not None:
            chain.append(by_semver[chain[-1]].parent)
        return list(reversed(chain))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find(self, records: list[VersionRecord], semver: str) -> VersionRecord:
        for record in records:
            if record.semver == semver:
                return record
        raise DeploymentError(f"unknown version {semver!r} for model {self.name!r}")

    def _write(self, entries: list[dict]) -> None:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with replacing(self._path) as handle:
            json.dump(entries, handle, indent=2)


def _next_semver(current: str | None, bump: str) -> str:
    if bump not in ("major", "minor", "patch"):
        raise DeploymentError(f"unknown bump {bump!r}")
    if current is None:
        return "1.0.0"
    major, minor, patch = (int(x) for x in current.split("."))
    if bump == "major":
        return f"{major + 1}.0.0"
    if bump == "minor":
        return f"{major}.{minor + 1}.0"
    return f"{major}.{minor}.{patch + 1}"
