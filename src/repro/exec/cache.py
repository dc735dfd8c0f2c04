"""Disk-backed trial cache: finished trials are never re-run.

A tuning search is a pure function of (application spec, dataset
fingerprint, candidate config, epoch budget) — re-running a search after a
crash, or widening a search space and re-submitting, should only pay for
the candidates that were never evaluated.  The cache stores one small JSON
file per completed trial under a directory the caller owns, keyed by a
stable content hash, so resumed and repeated searches short-circuit
straight to the recorded score.

Beside a trial's score the cache can hold one *state*: named arrays plus
a small JSON-able record, in ``<key>.state.npz``.  Tuning stores the
elected model's weights and training history there
(:func:`repro.exec.trial.winning_model`), so a repeated search returns
its model without training it again.  One state per distinct winner is
the only disk the cache adds.

Writes are atomic (temp file + ``os.replace``) so a crash mid-``put`` can
never leave a torn entry; unreadable entries are treated as misses.
"""

from __future__ import annotations

import hashlib
import json
import logging
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.codec import Spec, replacing
from repro.core.tuning_spec import ModelConfig
from repro.errors import TuningError
from repro.obs import get_registry

_log = logging.getLogger("repro.exec.cache")

# The npz member holding a state's JSON record, beside its named arrays.
_STATE_META = "__meta__"


def trial_key(
    namespace: str,
    config: ModelConfig,
    budget: int | None = None,
    seed: int | None = None,
) -> str:
    """Stable hash naming one trial.

    ``namespace`` binds the key to everything outside the candidate itself
    — typically the application spec plus the dataset fingerprint (see
    :func:`tuning_namespace`) — so the same config against different data
    or a different application never collides.  ``seed`` is the trial's
    own seed: executors with different base seeds hand out different
    trial seeds, and a seed-sensitive trial function's score must never
    be served to a caller who asked for a different seed.
    """
    canonical = json.dumps(
        {
            "namespace": namespace,
            "config": config.to_dict(),
            "budget": budget,
            "seed": seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def tuning_namespace(
    app_spec: dict,
    data_fingerprint: str,
    method: str | None = None,
    embeddings: list | tuple = (),
) -> str:
    """The cache namespace for one (application, dataset) tuning session.

    Everything outside the candidate config that changes a trial's outcome
    belongs here: the application spec, the dataset fingerprint, the
    per-call supervision ``method`` override, and the identities of any
    in-memory embedding products (which ``app_spec`` cannot carry).
    """
    canonical = json.dumps(
        {
            "application": app_spec,
            "data": data_fingerprint,
            "method": method,
            "embeddings": [list(item) for item in embeddings],
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


@dataclass
class CacheEntry(Spec, error=TuningError):
    """One recorded trial outcome."""

    key: str
    score: float
    seed: int = 0
    duration_s: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Entries are read back from disk: a score that is not a number is
        # a corrupt entry, not a result to rank.
        if isinstance(self.score, bool) or not isinstance(self.score, (int, float)):
            raise TuningError(
                f"cache entry score must be a number, got {self.score!r}"
            )


class TrialCache:
    """A directory of completed-trial records, one JSON file per key."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._warned_paths: set[str] = set()
        self._m_corrupt = get_registry().counter(
            "repro_trial_cache_corrupt_total",
            "Cache entries that existed but could not be parsed",
        )

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> CacheEntry | None:
        """The recorded entry for ``key``, or None (corrupt files miss).

        A *missing* file is a plain miss; a file that exists but cannot be
        parsed (or records the wrong key) is a **corrupt** miss — counted
        on ``corrupt`` / ``repro_trial_cache_corrupt_total`` and warned
        once per path, because silent data loss in the cache looks exactly
        like "the search is mysteriously slow".
        """
        path = self._path(key)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            entry = CacheEntry.from_json(raw)
        except TuningError as exc:
            self._note_corrupt(path, f"{type(exc).__name__}: {exc}")
            return None
        if entry.key != key:
            self._note_corrupt(path, f"entry records key {entry.key!r}")
            return None
        self.hits += 1
        return entry

    def _note_corrupt(self, path: Path, reason: str) -> None:
        self.misses += 1
        self.corrupt += 1
        self._m_corrupt.inc()
        if str(path) not in self._warned_paths:
            self._warned_paths.add(str(path))
            _log.warning(
                "corrupt trial-cache entry at %s (%s); treating as a miss",
                path,
                reason,
            )

    def put(
        self,
        key: str,
        score: float,
        seed: int = 0,
        duration_s: float = 0.0,
        meta: dict | None = None,
    ) -> CacheEntry:
        """Atomically record one finished trial."""
        entry = CacheEntry(
            key=key, score=float(score), seed=seed, duration_s=duration_s,
            meta=dict(meta or {}),
        )
        with replacing(self._path(key)) as handle:
            json.dump(entry.to_dict(), handle)
        return entry

    # ------------------------------------------------------------------
    # States: named arrays + a JSON record, one file per key
    # ------------------------------------------------------------------
    def _state_path(self, key: str) -> Path:
        return self.directory / f"{key}.state.npz"

    def put_state(self, key: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
        """Atomically record the state for ``key`` (replacing any other)."""
        record = np.array(json.dumps(meta))
        with replacing(self._state_path(key), "wb") as handle:
            np.savez(handle, **arrays, **{_STATE_META: record})

    def get_state(self, key: str) -> tuple[dict[str, np.ndarray], dict] | None:
        """The ``(arrays, meta)`` stored for ``key``, or None.

        No file is a plain miss — every entry written before states
        existed, and every first search, has none.  A file that cannot be
        read back is a corrupt miss, counted and warned like a corrupt
        score entry.
        """
        path = self._state_path(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data[_STATE_META]))
                arrays = {n: data[n] for n in data.files if n != _STATE_META}
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            self._note_corrupt(path, f"{type(exc).__name__}: {exc}")
            return None
        return arrays, meta

    def note_corrupt_state(self, key: str, reason: str) -> None:
        """Count a state that read back but that its reader had to reject."""
        self._note_corrupt(self._state_path(key), reason)

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def clear(self) -> int:
        """Delete every entry, state and orphaned temp file (a writer killed
        before its rename leaves one); returns how many trials were removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        for pattern in ("*.state.npz", "*.tmp"):
            for path in self.directory.glob(pattern):
                path.unlink(missing_ok=True)
        return removed
