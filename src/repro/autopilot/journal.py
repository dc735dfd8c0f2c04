"""Append-only decision journal for the self-healing supervisor.

Automated detect-and-correct pipelines are only trustworthy when every
decision they take — trigger, evidence, action, gate verdict — is written
down somewhere a human can audit after the fact.  The journal is that
record: an in-memory ring for dashboards plus an optional append-only
JSONL file that survives the process.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

from repro.core.codec import replacing
from repro.obs import current_trace_id


def jsonable(value: Any) -> Any:
    """Best-effort conversion of ``value`` into plain JSON types.

    Journal entries must never fail to serialize mid-heal, so anything
    exotic (numpy scalars, dataclasses with ``to_dict``, sets) degrades
    gracefully instead of raising.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "item") and not isinstance(value, (list, tuple, dict)):
        try:
            return jsonable(value.item())
        except Exception:
            pass
    if hasattr(value, "to_dict"):
        try:
            return jsonable(value.to_dict())
        except Exception:
            pass
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return str(value)


class DecisionJournal:
    """Every autopilot decision, in order, append-only.

    ``path=None`` keeps the journal purely in memory (tests, dry runs);
    with a path, each entry is additionally appended to a JSONL file the
    moment it is recorded, so a crash mid-heal still leaves the trail.
    """

    def __init__(self, path: str | Path | None = None, capacity: int = 512) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def record(self, kind: str, **detail) -> dict:
        """Append one decision; returns the entry that was written.

        When the caller sits inside an active trace (the supervisor's
        per-tick root span), the trace id is stamped onto the entry so a
        journaled decision links to the spans that explain it.
        """
        trace_id = current_trace_id()
        with self._lock:
            self._seq += 1
            entry = {
                "seq": self._seq,
                "at": time.time(),
                "kind": kind,
                "detail": jsonable(detail),
            }
            if trace_id is not None:
                entry["trace_id"] = trace_id
            self._entries.append(entry)
            if self.path is not None:
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(entry) + "\n")
        return entry

    def entries(self, kind: str | None = None) -> list[dict]:
        """All retained entries, oldest first; optionally one kind."""
        with self._lock:
            entries = list(self._entries)
        if kind is not None:
            entries = [e for e in entries if e["kind"] == kind]
        return entries

    def tail(self, n: int = 20) -> list[dict]:
        """The newest ``n`` entries, oldest first."""
        with self._lock:
            entries = list(self._entries)
        return entries[-n:]

    def kinds(self) -> list[str]:
        """Distinct entry kinds, in first-seen order."""
        seen: list[str] = []
        for entry in self.entries():
            if entry["kind"] not in seen:
                seen.append(entry["kind"])
        return seen

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def _read_file(path: str | Path) -> tuple[list[dict], str | None]:
        """Parse a journal file; returns (entries, truncated trailing line).

        A crash mid-append leaves a torn last line — recoverable damage,
        reported rather than raised.  Unparseable JSON *before* the last
        line is real corruption and raises ``ValueError``.
        """
        entries: list[dict] = []
        lines = [
            line
            for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        for lineno, line in enumerate(lines):
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if lineno == len(lines) - 1:
                    return entries, line
                raise ValueError(
                    f"corrupt journal {path}: unparseable line "
                    f"{lineno + 1} of {len(lines)}: {exc}"
                ) from exc
        return entries, None

    @staticmethod
    def read(path: str | Path, *, strict: bool = False) -> list[dict]:
        """Load a journal file written by a (possibly dead) supervisor.

        A truncated trailing line (crash mid-append) is silently dropped
        by default — the readable prefix is the recoverable record;
        ``strict=True`` raises ``ValueError`` on it instead.
        """
        entries, truncated = DecisionJournal._read_file(path)
        if truncated is not None and strict:
            raise ValueError(
                f"corrupt journal {path}: truncated trailing line "
                f"({len(truncated)} bytes)"
            )
        return entries

    @classmethod
    def check_file(
        cls, path: str | Path, *, allow_in_flight: bool = False
    ) -> list[str]:
        """Audit a journal *file*: torn-tail warning + lifecycle problems."""
        entries, truncated = cls._read_file(path)
        problems = []
        if truncated is not None:
            problems.append(
                "warning: dropped truncated trailing line "
                f"({len(truncated)} bytes)"
            )
        problems.extend(
            check_consistency(entries, allow_in_flight=allow_in_flight)
        )
        return problems

    def check(self, allow_in_flight: bool = False) -> list[str]:
        """Lifecycle-consistency problems in this journal (see module fn)."""
        return check_consistency(self.entries(), allow_in_flight=allow_in_flight)

    def compact(self, keep_last: int = 256) -> int:
        """Drop old completed-heal history; returns how many were dropped.

        A long-lived supervisor's file journal grows without bound.
        Compaction rewrites it (atomically) as one ``compacted`` marker —
        carrying the dropped range and a per-kind census — followed by the
        newest entries.  The cut point only ever lands on an *idle*
        boundary (no heal in flight, not triggered, not paused, and never
        between a promotion and its ``reference_updated``), so
        :func:`check_consistency` stays clean over the survivors.
        """
        if keep_last < 0:
            raise ValueError("keep_last must be >= 0")
        with self._lock:
            if self.path is not None and self.path.exists():
                entries, _ = self._read_file(self.path)
            else:
                entries = list(self._entries)
            boundary = self._compaction_boundary(entries, keep_last)
            if boundary <= 0:
                return 0
            dropped = entries[:boundary]
            kept = entries[boundary:]
            census: dict[str, int] = {}
            for entry in dropped:
                kind = entry.get("kind", "")
                census[kind] = census.get(kind, 0) + 1
            marker = {
                "seq": dropped[-1].get("seq", 0),
                "at": time.time(),
                "kind": "compacted",
                "detail": {
                    "dropped": len(dropped),
                    "first_seq": dropped[0].get("seq", 0),
                    "last_seq": dropped[-1].get("seq", 0),
                    "kinds": census,
                },
            }
            survivors = [marker] + kept
            if self.path is not None and self.path.exists():
                with replacing(self.path) as handle:
                    for entry in survivors:
                        handle.write(json.dumps(entry) + "\n")
            self._entries.clear()
            self._entries.extend(survivors[-(self._entries.maxlen or len(survivors)):])
            return len(dropped)

    @staticmethod
    def _compaction_boundary(entries: list[dict], keep_last: int) -> int:
        """The largest safe cut index <= len(entries) - keep_last.

        Safe means the journal is *idle* at the cut: every heal before it
        reached a terminal outcome, no un-consumed trigger, not paused,
        and the next survivor is not a ``reference_updated`` whose
        promotion would be dropped.
        """
        limit = len(entries) - keep_last
        if limit <= 0:
            return 0
        stage: str | None = None
        triggered = False
        paused = False
        best = 0
        for i, entry in enumerate(entries):
            kind = entry.get("kind", "")
            if kind == "paused":
                paused = True
            elif kind == "resumed":
                paused = False
            elif kind == "trigger":
                triggered = True
            elif kind == "retrain_started":
                stage = "in_heal"
            elif kind in _TERMINAL_KINDS:
                stage = None
                triggered = False
            cut = i + 1
            if cut > limit:
                break
            if stage is None and not triggered and not paused:
                nxt = entries[cut] if cut < len(entries) else None
                if nxt is None or nxt.get("kind") != "reference_updated":
                    best = cut
        return best


#: Entry kinds that end an in-flight heal attempt.
_TERMINAL_KINDS = frozenset({"promoted", "rejected", "heal_failed"})


def check_consistency(
    entries: list[dict], *, allow_in_flight: bool = False
) -> list[str]:
    """Audit a journal's entries against the supervisor lifecycle.

    Returns a list of human-readable problems (empty means consistent).
    The rules mirror :class:`~repro.autopilot.supervisor.Supervisor`'s
    state machine, so soak tests can assert that *many* heals in a row
    never interleave or skip a stage:

    - ``seq`` strictly increases;
    - a heal (``retrain_started``) requires a ``trigger`` since the last
      terminal outcome, and only one heal may be in flight at a time;
    - within a heal the stages run in order: ``retrain_started`` ->
      ``retrain_finished`` -> ``staged`` -> ``shadow_started`` ->
      ``gate`` -> terminal (``promoted`` / ``rejected``), with
      ``heal_failed`` allowed to cut any stage short;
    - ``promoted`` requires a *passing* ``gate`` entry in the same heal;
    - ``reference_updated`` may only follow a promotion;
    - no triggers or heals may be journaled while ``paused``.

    ``allow_in_flight=True`` accepts a journal that ends mid-heal (a
    soak stopped while a shadow window was still open).
    """
    problems: list[str] = []
    last_seq = 0
    stage: str | None = None  # last heal stage seen, None = idle
    triggered = False
    gate_passed = False
    promoted_once = False
    paused = False

    def _ordered(kind: str, expected: str | None, seq: int) -> None:
        if stage != expected:
            problems.append(
                f"seq {seq}: {kind!r} arrived while heal stage was "
                f"{stage!r} (expected {expected!r})"
            )

    for entry in entries:
        seq = entry.get("seq", 0)
        kind = entry.get("kind", "")
        detail = entry.get("detail", {}) or {}
        if seq <= last_seq:
            problems.append(f"seq {seq}: not strictly increasing (after {last_seq})")
        last_seq = max(last_seq, seq)

        if kind == "paused":
            paused = True
            continue
        if kind == "resumed":
            paused = False
            continue
        if paused and kind in ("trigger", "retrain_started"):
            problems.append(f"seq {seq}: {kind!r} recorded while paused")

        if kind == "trigger":
            if stage is not None:
                # Triggers may accumulate while shadowing; they only count
                # against the *next* heal, which is fine.
                pass
            triggered = True
        elif kind == "retrain_started":
            if stage is not None:
                problems.append(
                    f"seq {seq}: heal started while a previous heal was in "
                    f"stage {stage!r}"
                )
            if not triggered:
                problems.append(f"seq {seq}: heal started without a trigger")
            stage = "retrain_started"
            gate_passed = False
        elif kind == "retrain_finished":
            _ordered(kind, "retrain_started", seq)
            stage = "retrain_finished"
        elif kind == "staged":
            _ordered(kind, "retrain_finished", seq)
            stage = "staged"
        elif kind == "shadow_started":
            _ordered(kind, "staged", seq)
            stage = "shadow_started"
        elif kind == "gate":
            _ordered(kind, "shadow_started", seq)
            stage = "gate"
            gate_passed = bool(detail.get("passed"))
        elif kind == "promoted":
            _ordered(kind, "gate", seq)
            if not gate_passed:
                problems.append(f"seq {seq}: promoted without a passing gate")
            stage = None
            triggered = False
            promoted_once = True
        elif kind == "rejected":
            if stage not in ("gate", "shadow_started"):
                problems.append(
                    f"seq {seq}: rejected from unexpected stage {stage!r}"
                )
            stage = None
            triggered = False
        elif kind == "heal_failed":
            if stage is None:
                problems.append(f"seq {seq}: heal_failed outside a heal")
            stage = None
            triggered = False
        elif kind == "reference_updated":
            if not promoted_once:
                problems.append(
                    f"seq {seq}: reference_updated before any promotion"
                )
    if stage is not None and not allow_in_flight:
        problems.append(f"journal ends mid-heal (stage {stage!r})")
    return problems
