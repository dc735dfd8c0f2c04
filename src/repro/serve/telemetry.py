"""Live serving telemetry: the gateway's instruments and its sample window.

The paper's monitoring story (§2.4) assumes the serving layer *produces*
the data that drift and regression analysis consume.  This module is that
producer.  Every serving fact is recorded once, per batch, into the eight
``repro_gateway_*`` instruments of a per-gateway, always-on
:class:`~repro.obs.metrics.MetricsRegistry`: requests by tier, role and
result, enqueue-to-answer latency, formed batch sizes, queue depth, sheds,
isolated batches and breaker flips.  ``/telemetry``, ``/dashboard`` and
``/metrics`` are read-only views over those instruments.

:class:`TelemetryRing` keeps only what a counter cannot hold: every Nth
answered payload, so the live input distribution can be replayed into
:func:`repro.monitoring.drift.detect_drift`, and the bounded rollout and
breaker logs with their timestamps.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.data.record import Record
from repro.data.vocab import Vocab
from repro.monitoring.dashboards import format_table
from repro.monitoring.drift import DriftReport, detect_drift
from repro.obs.metrics import MetricsRegistry, exponential_buckets

#: Latency histogram bounds: 0.1 ms to ~22 s, four buckets per doubling,
#: so a bucket-interpolated percentile is within a factor 2**0.25.
LATENCY_BUCKETS = exponential_buckets(1e-4, 2**0.25, 72)

#: How many sampled payloads the drift window holds.
PAYLOAD_CAPACITY = 512

# Breaker states as gauge values (for repro_gateway_breaker_state).
_BREAKER_STATE = {"closed": 0, "half_open": 1, "open": 2}


@dataclass(frozen=True)
class RolloutEvent:
    """One rollout lifecycle action (canary/shadow/promote/refresh)."""

    at: float  # time.monotonic() when the action was recorded
    action: str  # "set_canary" | "set_shadow" | "promote" | "cancel" | "refresh"
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"at": self.at, "action": self.action, "detail": dict(self.detail)}


class TelemetryRing:
    """One gateway's metric instruments plus a sampled payload window.

    ``payload_sample_every`` keeps one payload per N sample-eligible
    (answered, non-shadow) requests, so the drift detector sees a
    representative live window without the telemetry layer retaining
    every request body.
    """

    def __init__(self, payload_sample_every: int = 8, rollout_capacity: int = 64) -> None:
        self.metrics = registry = MetricsRegistry()
        registry.enabled = True
        self.requests = registry.counter(
            "repro_gateway_requests_total",
            "Requests answered by the gateway",
            ("tier", "role", "result"),
        )
        self.latency = registry.histogram(
            "repro_gateway_request_latency_seconds",
            "Enqueue-to-response latency per request",
            ("tier",),
            buckets=LATENCY_BUCKETS,
        )
        self.batch_size = registry.histogram(
            "repro_gateway_batch_size",
            "Formed batch sizes",
            ("tier",),
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self.queue_depth = registry.gauge(
            "repro_gateway_queue_depth",
            "Requests currently queued per lane",
            ("tier", "role"),
        )
        self.shed = registry.counter(
            "repro_gateway_shed_total",
            "Requests shed before queueing (queue full or circuit open)",
            ("tier", "reason"),
        )
        self.isolated = registry.counter(
            "repro_gateway_batch_isolated_total",
            "Failed batches retried per-request to isolate poison payloads",
            ("tier",),
        )
        self.breaker_flips = registry.counter(
            "repro_gateway_breaker_transitions_total",
            "Circuit-breaker state transitions",
            ("tier", "to"),
        )
        self.breaker_state = registry.gauge(
            "repro_gateway_breaker_state",
            "Breaker state per tier (0 closed, 1 half-open, 2 open)",
            ("tier",),
        )
        self.started_at = time.monotonic()
        self._payloads: deque[dict] = deque(maxlen=PAYLOAD_CAPACITY)
        self._rollout_events: deque[RolloutEvent] = deque(maxlen=rollout_capacity)
        self._breaker_events: deque[dict] = deque(maxlen=rollout_capacity)
        self._sample_every = max(1, payload_sample_every)
        self._eligible = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_payloads(self, payloads: Sequence[dict]) -> None:
        """Sample one answered batch's payloads for the drift window.

        Keeps every Nth payload of the lifetime eligible count, so a batch
        samples exactly the payloads one-at-a-time recording would.
        """
        with self._lock:
            seen = self._eligible
            self._eligible = seen + len(payloads)
            every = self._sample_every
            # Payload i is the (seen + i + 1)-th; sample multiples.
            self._payloads.extend(payloads[(-seen - 1) % every :: every])

    def record_rollout(self, action: str, **detail) -> RolloutEvent:
        """Record a rollout lifecycle action (promotion, shadow start, ...).

        Rollout actions are rare but load-bearing for post-hoc analysis —
        "when did the candidate start shadowing" is unanswerable from
        request counts alone, so the gateway drops a breadcrumb here.
        """
        event = RolloutEvent(at=time.monotonic(), action=action, detail=detail)
        with self._lock:
            self._rollout_events.append(event)
        return event

    def record_breaker(self, tier: str, old_state: str, new_state: str) -> None:
        """Record one circuit-breaker state flip: log, counter and gauge."""
        event = {
            "at": time.monotonic(),
            "tier": tier,
            "from": old_state,
            "to": new_state,
        }
        with self._lock:
            self._breaker_events.append(event)
        self.breaker_flips.inc(tier=tier, to=new_state)
        self.breaker_state.set(_BREAKER_STATE[new_state], tier=tier)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
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
        out: dict[str, dict[str, int]] = {}
        for (tier, reason), count in sorted(self.shed.samples()):
            out.setdefault(tier, {})[reason] = int(count)
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

    def snapshot(
        self,
        max_batch_size: int | None = None,
        dtypes: Mapping[str, str] | None = None,
    ) -> dict:
        """Lifetime counts, bucket-estimated percentiles and role mix.

        ``dtypes`` names each tier's serving precision (the pool knows
        it; the instruments do not).  ``mean_batch`` and the fill rate are
        per formed batch.
        """
        per_tier: Counter = Counter()
        roles: Counter = Counter()
        errors = 0
        for (tier, role, result), count in self.requests.samples():
            per_tier[tier] += int(count)
            roles[role] += int(count)
            if result == "error":
                errors += int(count)
        tiers = {}
        for tier in sorted(per_tier):
            sizes = self.batch_size.value(tier=tier)
            tiers[tier] = {
                "tier": tier,
                "count": per_tier[tier],
                "p50_s": self.latency.quantile(0.50, tier=tier),
                "p95_s": self.latency.quantile(0.95, tier=tier),
                "p99_s": self.latency.quantile(0.99, tier=tier),
                "mean_batch": sizes["sum"] / max(sizes["count"], 1),
                "dtype": (dtypes or {}).get(tier, "float64"),
            }
        formed = [series for _, series in self.batch_size.samples()]
        batches = sum(series["count"] for series in formed)
        fill = None
        if max_batch_size and batches:
            fill = sum(series["sum"] for series in formed) / batches / max_batch_size
        total = sum(per_tier.values())
        window = time.monotonic() - self.started_at
        return {
            "total_requests": total,
            "window_s": window,
            "requests_per_s": total / window if window > 0 else 0.0,
            "tiers": tiers,
            "roles": dict(roles),
            "errors": errors,
            "batch_fill_rate": fill,
        }

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
            [r.payloads for r in reference],
            self.payload_samples(),
            vocab,
            payload=payload,
            js_threshold=js_threshold,
            oov_threshold=oov_threshold,
        )

    def render(
        self,
        max_batch_size: int | None = None,
        dtypes: Mapping[str, str] | None = None,
    ) -> str:
        """The live dashboard: one aligned per-tier table plus headlines."""
        snap = self.snapshot(max_batch_size=max_batch_size, dtypes=dtypes)
        roles = snap["roles"]
        lines = [
            f"requests: {snap['total_requests']}  "
            f"({snap['requests_per_s']:.1f}/s over {snap['window_s']:.2f}s window)",
            "roles: "
            + ("  ".join(f"{r}={n}" for r, n in sorted(roles.items())) or "(none)"),
        ]
        if snap["batch_fill_rate"] is not None:
            lines.append(f"batch fill rate: {snap['batch_fill_rate']:.2f}")
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
        tiers = snap["tiers"].values()
        if tiers:
            lines.append(
                format_table(
                    {
                        "tier": [s["tier"] for s in tiers],
                        "requests": [s["count"] for s in tiers],
                        "p50_ms": [s["p50_s"] * 1000 for s in tiers],
                        "p95_ms": [s["p95_s"] * 1000 for s in tiers],
                        "p99_ms": [s["p99_s"] * 1000 for s in tiers],
                        "mean_batch": [s["mean_batch"] for s in tiers],
                        "dtype": [s["dtype"] for s in tiers],
                    }
                )
            )
        return "\n".join(lines)
