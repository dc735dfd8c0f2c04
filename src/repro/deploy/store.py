"""The model store: an S3-like, content-addressed artifact repository.

"The models and metadata are written to an S3-like data store that is
accessible from the production infrastructure.  This has enabled model
retraining and deployment to be nearly automatic" (§1).  The local
implementation keeps the same contract: immutable versions addressed by
content hash, per-model version listings, and a mutable ``latest`` pointer.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.codec import Spec, replacing
from repro.deploy.artifact import ModelArtifact
from repro.errors import ReproError, StoreError
from repro.faults import fault_point

# Chaos hook: fires per artifact load, inside fetch's error handling, so
# injected IO errors surface as friendly StoreErrors (see repro.faults).
_FP_FETCH = fault_point("store.fetch")


@dataclass(frozen=True)
class StoredVersion(Spec, error=StoreError):
    """One immutable pushed version."""

    model_name: str
    version: str  # content hash
    pushed_at: float
    metadata: dict


class ModelStore:
    """Filesystem-backed, content-addressed model store.

    Layout::

        root/
          <model_name>/
            index.json          # ordered version log + latest pointer
            <version_hash>/     # one artifact directory per version
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Serializes index read-modify-write cycles within this process
        # (e.g. a gateway promoting a canary while a trainer pushes).
        # Readers never need it: index writes are atomic replaces.
        self._write_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Push / fetch
    # ------------------------------------------------------------------
    def push(
        self, name: str, artifact: ModelArtifact, set_latest: bool = True
    ) -> StoredVersion:
        """Store an artifact; returns its immutable version record.

        Pushing byte-identical content is idempotent (same hash).
        ``set_latest=False`` stores the version without moving the latest
        pointer — the staging step a canary rollout uses, so followers of
        ``latest`` don't jump to a candidate that hasn't been promoted.
        """
        version = self._content_hash(artifact)
        target = self.root / name / version
        if not target.exists():
            artifact.save(target)
        record = StoredVersion(
            model_name=name,
            version=version,
            pushed_at=time.time(),
            metadata=dict(artifact.metadata),
        )
        with self._write_lock:
            index = self._read_index(name)
            if version not in [v["version"] for v in index["versions"]]:
                index["versions"].append(record.to_dict())
            if set_latest or not index.get("latest"):
                index["latest"] = version
            self._write_index(name, index)
        return record

    def fetch(self, name: str, version: str | None = None) -> ModelArtifact:
        """Load an artifact; ``version`` defaults to latest.

        Failure modes are named, not leaked: a missing version and a
        corrupt/unreadable artifact both raise :class:`StoreError`
        identifying the model, version, and path — the message an operator
        pastes into an incident channel, not a bare ``KeyError``.
        """
        version = version or self.latest_version(name)
        target = self.root / name / version
        if not target.exists():
            raise StoreError(f"no version {version!r} for model {name!r}")
        try:
            _FP_FETCH.hit(model=name)
            artifact = ModelArtifact.load(target)
        except StoreError:
            raise
        except (ReproError, OSError, ValueError, KeyError, TypeError, EOFError) as exc:
            raise StoreError(
                f"corrupt artifact for model {name!r} version {version!r} "
                f"at {target}: {type(exc).__name__}: {exc}"
            ) from exc
        actual = self._content_hash(artifact)
        if actual != version:
            raise StoreError(
                f"integrity failure for {name}@{version}: content hash {actual}"
            )
        return artifact

    # ------------------------------------------------------------------
    # Listings and pointers
    # ------------------------------------------------------------------
    def models(self) -> list[str]:
        return sorted(
            p.name for p in self.root.iterdir() if (p / "index.json").exists()
        )

    def versions(self, name: str) -> list[StoredVersion]:
        index = self._read_index(name)
        return [StoredVersion.from_dict(v) for v in index["versions"]]

    def latest_version(self, name: str) -> str:
        index = self._read_index(name)
        latest = index.get("latest")
        if not latest:
            raise StoreError(f"model {name!r} has no versions")
        return latest

    def set_latest(self, name: str, version: str) -> None:
        """Move the latest pointer (rollback / promotion)."""
        with self._write_lock:
            index = self._read_index(name)
            known = [v["version"] for v in index["versions"]]
            if version not in known:
                raise StoreError(
                    f"cannot point latest at unknown version {version!r}; known: {known}"
                )
            index["latest"] = version
            self._write_index(name, index)

    def delete(self, name: str, version: str) -> None:
        """Remove one version (not allowed for the latest pointer)."""
        with self._write_lock:
            index = self._read_index(name)
            if index.get("latest") == version:
                raise StoreError(
                    "refusing to delete the latest version; repoint first"
                )
            index["versions"] = [
                v for v in index["versions"] if v["version"] != version
            ]
            self._write_index(name, index)
        target = self.root / name / version
        if target.exists():
            shutil.rmtree(target)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _content_hash(artifact: ModelArtifact) -> str:
        hasher = hashlib.sha256()
        hasher.update(artifact.schema.fingerprint().encode())
        hasher.update(artifact.config.to_json().encode())
        for key in sorted(artifact.state):
            hasher.update(key.encode())
            hasher.update(artifact.state[key].tobytes())
        for name in sorted(artifact.vocabs):
            hasher.update(name.encode())
            hasher.update(json.dumps(artifact.vocabs[name].to_dict()).encode())
        return hasher.hexdigest()[:16]

    def _read_index(self, name: str) -> dict:
        path = self.root / name / "index.json"
        if not path.exists():
            return {"versions": [], "latest": None}
        return json.loads(path.read_text())

    def _write_index(self, name: str, index: dict) -> None:
        """Atomically replace the index so readers never see a torn file.

        A serving gateway polls ``latest_version`` while pushes and
        promotions rewrite the index; writing in place would let a reader
        observe a partially written JSON document.  Writing to a sibling
        temp file and ``os.replace``-ing it keeps every read all-or-nothing
        (POSIX rename atomicity).  Write-write consistency is the caller's
        concern: in-process mutators serialize on ``_write_lock``;
        concurrent writers in *separate* processes can still lose a
        read-modify-write race (a real S3-like store would use
        conditional puts).
        """
        path = self.root / name / "index.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with replacing(path) as handle:
            json.dump(index, handle, indent=2)
