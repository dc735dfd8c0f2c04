"""Live serving telemetry: a lock-guarded ring buffer of request events.

The paper's monitoring story (§2.4) assumes the serving layer *produces*
the data that drift and regression analysis consume.  This module is that
producer: every answered request drops a :class:`RequestEvent` (tier,
rollout role, queue-to-answer latency, batch size) into a bounded ring,
and every Nth request's payload is sampled so the live input distribution
can be replayed into :func:`repro.monitoring.drift.detect_drift`.

Nothing here allocates per-request beyond the event itself; snapshots and
renders are computed on demand from the ring's current contents.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.record import Record
from repro.data.vocab import Vocab
from repro.monitoring.dashboards import format_table
from repro.monitoring.drift import DriftReport, detect_drift


@dataclass(frozen=True)
class RequestEvent:
    """One answered request, as seen by the gateway."""

    at: float  # time.monotonic() when the response was set
    tier: str
    role: str  # "stable" | "canary" | "shadow"
    latency_s: float  # enqueue -> response, includes queueing time
    batch_size: int
    ok: bool = True
    dtype: str = "float64"  # the precision the answering replica served in
    trace_id: str | None = None  # links back to the full span tree, if traced
    worker: int | None = None  # answering worker slot (process-parallel pools)


@dataclass(frozen=True)
class RolloutEvent:
    """One rollout lifecycle action (canary/shadow/promote/refresh)."""

    at: float  # time.monotonic() when the action was recorded
    action: str  # "set_canary" | "set_shadow" | "promote" | "cancel" | "refresh"
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"at": self.at, "action": self.action, "detail": dict(self.detail)}


@dataclass(frozen=True)
class TierStats:
    """Latency distribution for one replica tier over the ring window."""

    tier: str
    count: int
    p50_s: float
    p95_s: float
    p99_s: float
    mean_batch: float
    dtype: str = "float64"  # the tier's most recently observed serving dtype

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "count": self.count,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "mean_batch": self.mean_batch,
            "dtype": self.dtype,
        }


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Aggregate view of the ring at one instant."""

    total_requests: int
    window_s: float
    requests_per_s: float
    tiers: dict[str, TierStats] = field(default_factory=dict)
    roles: dict[str, int] = field(default_factory=dict)
    errors: int = 0
    batch_fill_rate: float | None = None  # mean batch size / max batch size

    def to_dict(self) -> dict:
        return {
            "total_requests": self.total_requests,
            "window_s": self.window_s,
            "requests_per_s": self.requests_per_s,
            "tiers": {t: s.to_dict() for t, s in self.tiers.items()},
            "roles": dict(self.roles),
            "errors": self.errors,
            "batch_fill_rate": self.batch_fill_rate,
        }


class TelemetryRing:
    """Bounded request-event history plus a sampled payload window.

    ``capacity`` bounds the event ring; ``payload_sample_every`` keeps one
    payload per N recorded events (in a separate, smaller ring) so the
    drift detector sees a representative live window without the telemetry
    layer retaining every request body.
    """

    def __init__(
        self,
        capacity: int = 4096,
        payload_sample_every: int = 8,
        payload_capacity: int = 512,
        rollout_capacity: int = 64,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._events: deque[RequestEvent] = deque(maxlen=capacity)
        self._payloads: deque[dict] = deque(maxlen=payload_capacity)
        self._rollout_events: deque[RolloutEvent] = deque(maxlen=rollout_capacity)
        self._breaker_events: deque[dict] = deque(maxlen=rollout_capacity)
        self._sheds: Counter = Counter()  # (tier, reason) -> count
        self._sample_every = max(1, payload_sample_every)
        self._recorded = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, event: RequestEvent, payload: dict | None = None) -> None:
        self.record_many((event,), None if payload is None else (payload,))

    def record_many(
        self,
        events: Sequence[RequestEvent],
        payloads: Sequence[dict] | None = None,
    ) -> None:
        """Record one batch's events under a single lock acquisition.

        ``payloads`` (one per event, or ``None`` to sample nothing) keeps
        the every-Nth cadence of the lifetime event count, so a batch
        samples exactly the payloads one-at-a-time recording would.
        """
        with self._lock:
            recorded = self._recorded
            self._events.extend(events)
            self._recorded = recorded + len(events)
            if payloads is not None:
                every = self._sample_every
                # Event i is the (recorded + i + 1)-th; sample multiples.
                self._payloads.extend(payloads[(-recorded - 1) % every :: every])

    def record_rollout(self, action: str, **detail) -> RolloutEvent:
        """Record a rollout lifecycle action (promotion, shadow start, ...).

        Rollout actions are rare but load-bearing for post-hoc analysis —
        "when did the candidate start shadowing" is unanswerable from
        request events alone, so the gateway drops a breadcrumb here.
        """
        event = RolloutEvent(at=time.monotonic(), action=action, detail=detail)
        with self._lock:
            self._rollout_events.append(event)
        return event

    def record_shed(self, tier: str, reason: str = "queue_full") -> None:
        """Count one load-shed request (queue full / circuit open).

        Shed requests never become :class:`RequestEvent`\\ s — they were
        rejected before any work — so overload pressure needs its own
        counter or it would be invisible in the ring.
        """
        with self._lock:
            self._sheds[(tier, reason)] += 1

    def record_breaker(self, tier: str, old_state: str, new_state: str) -> None:
        """Record one circuit-breaker state flip (rare, load-bearing)."""
        event = {
            "at": time.monotonic(),
            "tier": tier,
            "from": old_state,
            "to": new_state,
        }
        with self._lock:
            self._breaker_events.append(event)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def recorded_total(self) -> int:
        """Lifetime event count (the ring itself only keeps the newest)."""
        with self._lock:
            return self._recorded

    def events(self) -> list[RequestEvent]:
        with self._lock:
            return list(self._events)

    def payload_samples(self) -> list[dict]:
        with self._lock:
            return list(self._payloads)

    def rollout_events(self) -> list[RolloutEvent]:
        with self._lock:
            return list(self._rollout_events)

    def breaker_events(self) -> list[dict]:
        """Circuit-breaker transitions, oldest first."""
        with self._lock:
            return [dict(e) for e in self._breaker_events]

    def sheds(self) -> dict[str, dict[str, int]]:
        """Shed counts as ``{tier: {reason: count}}`` (JSON-able)."""
        with self._lock:
            out: dict[str, dict[str, int]] = {}
            for (tier, reason), count in sorted(self._sheds.items()):
                out.setdefault(tier, {})[reason] = count
            return out

    def clear_payload_samples(self) -> int:
        """Drop the sampled payload window; returns how many were dropped.

        Called when the drift reference changes (e.g. after an autopilot
        promotion absorbs the live window): samples gathered against the
        old reference are stale evidence and would immediately re-trigger.
        """
        with self._lock:
            dropped = len(self._payloads)
            self._payloads.clear()
        return dropped

    def live_records(self) -> list[Record]:
        """The sampled payload window as records, for the drift detector."""
        return [Record(payloads=dict(p)) for p in self.payload_samples()]

    def snapshot(self, max_batch_size: int | None = None) -> TelemetrySnapshot:
        """Percentiles, throughput, and role mix over the ring's window."""
        events = self.events()
        if not events:
            return TelemetrySnapshot(
                total_requests=0, window_s=0.0, requests_per_s=0.0
            )
        first = min(e.at for e in events)
        last = max(e.at for e in events)
        # A single event (or events sharing one timestamp) spans no time;
        # report zero throughput rather than dividing by an epsilon window
        # and claiming ~1e9 requests/s.
        window = last - first
        tiers: dict[str, TierStats] = {}
        for tier in sorted({e.tier for e in events}):
            tier_events = [e for e in events if e.tier == tier]
            latencies = np.asarray([e.latency_s for e in tier_events])
            tiers[tier] = TierStats(
                tier=tier,
                count=len(tier_events),
                p50_s=float(np.percentile(latencies, 50)),
                p95_s=float(np.percentile(latencies, 95)),
                p99_s=float(np.percentile(latencies, 99)),
                mean_batch=float(np.mean([e.batch_size for e in tier_events])),
                dtype=tier_events[-1].dtype,
            )
        roles = Counter(e.role for e in events)
        fill = None
        if max_batch_size:
            fill = float(np.mean([e.batch_size for e in events])) / max_batch_size
        return TelemetrySnapshot(
            total_requests=len(events),
            window_s=window,
            requests_per_s=len(events) / window if window > 0 else 0.0,
            tiers=tiers,
            roles=dict(roles),
            errors=sum(1 for e in events if not e.ok),
            batch_fill_rate=fill,
        )

    # ------------------------------------------------------------------
    # Feeding the monitoring stack
    # ------------------------------------------------------------------
    def drift_report(
        self,
        reference: Sequence[Record],
        vocab: Vocab,
        payload: str = "tokens",
        js_threshold: float = 0.1,
        oov_threshold: float = 0.05,
    ) -> DriftReport:
        """Compare the sampled live window against a training reference.

        Thresholds flow through to the returned report so a policy can set
        them here, once, rather than at every ``drifted()`` call site.
        """
        return detect_drift(
            reference,
            self.live_records(),
            vocab,
            payload=payload,
            js_threshold=js_threshold,
            oov_threshold=oov_threshold,
        )

    def render(self, max_batch_size: int | None = None) -> str:
        """The live dashboard: one aligned per-tier table plus headlines."""
        snap = self.snapshot(max_batch_size=max_batch_size)
        lines = [
            f"requests: {snap.total_requests}  "
            f"({snap.requests_per_s:.1f}/s over {snap.window_s:.2f}s window)",
            "roles: "
            + (
                "  ".join(f"{r}={n}" for r, n in sorted(snap.roles.items()))
                or "(none)"
            ),
        ]
        if snap.batch_fill_rate is not None:
            lines.append(f"batch fill rate: {snap.batch_fill_rate:.2f}")
        rollout = self.rollout_events()
        if rollout:
            recent = "  ".join(e.action for e in rollout[-5:])
            lines.append(f"rollout history ({len(rollout)}): {recent}")
        sheds = self.sheds()
        if sheds:
            parts = "  ".join(
                f"{tier}:{reason}={count}"
                for tier, reasons in sheds.items()
                for reason, count in reasons.items()
            )
            lines.append(f"shed requests: {parts}")
        flips = self.breaker_events()
        if flips:
            recent = "  ".join(
                f"{e['tier']}:{e['from']}->{e['to']}" for e in flips[-5:]
            )
            lines.append(f"breaker flips ({len(flips)}): {recent}")
        if snap.tiers:
            lines.append(
                format_table(
                    {
                        "tier": [s.tier for s in snap.tiers.values()],
                        "requests": [s.count for s in snap.tiers.values()],
                        "p50_ms": [s.p50_s * 1000 for s in snap.tiers.values()],
                        "p95_ms": [s.p95_s * 1000 for s in snap.tiers.values()],
                        "p99_ms": [s.p99_s * 1000 for s in snap.tiers.values()],
                        "mean_batch": [s.mean_batch for s in snap.tiers.values()],
                        "dtype": [s.dtype for s in snap.tiers.values()],
                    }
                )
            )
        return "\n".join(lines)
