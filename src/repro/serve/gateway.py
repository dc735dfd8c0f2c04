"""The serving gateway: everything between "a request arrives" and an
:class:`~repro.api.Endpoint` answering it.

One object owns the production serving loop:

* requests enter through :meth:`ServingGateway.submit` /
  :meth:`~ServingGateway.submit_async` and are validated *in the caller's
  thread*, fully (field names and values, :meth:`Endpoint.admit_payload`):
  a bad payload never occupies queue space, never reaches a replica, and
  so never counts against a tier's circuit breaker;
* each request is routed to a **tier** (by latency budget, via the
  :class:`~repro.serve.replica.ReplicaPool`) and a **role** (stable or
  canary, via the :class:`~repro.serve.rollout.RolloutController`), which
  selects a *lane* — an independent queue + worker thread + replica;
* lane workers drain their queues with the work-conserving policy of
  :class:`~repro.serve.batcher.RequestQueue` — a free worker takes what
  is queued, a busy one lets the next batch accumulate — so concurrent
  callers share model batches (the dynamic micro-batching win) and a
  lone caller never waits for batch-mates;
* when shadowing is on, stable lanes mirror each answered request to a
  shadow lane where the candidate's response is compared and recorded,
  never returned;
* every batch's outcome is counted once, in the ``repro_gateway_*``
  instruments of the gateway's :class:`~repro.serve.telemetry.TelemetryRing`,
  whose sampled payloads feed ``repro.monitoring`` (drift, dashboards).

The gateway never changes when models change — replicas refresh from the
store in place (§1's model independence, now at the fleet level).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ServeError, ServeOverloadError
from repro.obs import get_tracer
from repro.serve.batcher import PendingResponse, QueuedRequest, RequestQueue
from repro.serve.breaker import BreakerPolicy, CircuitBreaker
from repro.serve.replica import CANDIDATE, STABLE, ReplicaPool
from repro.serve.rollout import RolloutController
from repro.serve.telemetry import TelemetryRing


@dataclass(frozen=True)
class GatewayConfig:
    """Batching, telemetry, and failure-domain knobs for one gateway.

    ``max_wait_s`` is how long a partial batch may linger for batch-mates.
    The default, 0, is work-conserving: a free lane consumer dispatches
    whatever is queued (up to ``max_batch_size``) and batches fill by
    queueing behind a busy one.  Raise it only for a replica whose fixed
    per-batch cost is large next to the wait (docs/serving.md).
    ``max_queue_depth`` bounds each lane's queue — beyond it, submissions
    shed with :class:`~repro.errors.ServeOverloadError` instead of
    buffering until every answer is a timeout (``None`` = unbounded).
    ``breaker`` governs the per-tier circuit breakers that stop routing
    into a persistently failing replica (``None`` disables them).
    """

    max_batch_size: int = 32
    max_wait_s: float = 0.0
    payload_sample_every: int = 8
    default_latency_budget: float | None = None
    request_timeout_s: float = 60.0
    max_queue_depth: int | None = 2048
    breaker: BreakerPolicy | None = field(default_factory=BreakerPolicy)

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ServeError("max_batch_size must be positive")
        if self.max_wait_s < 0:
            raise ServeError("max_wait_s must be non-negative")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ServeError("max_queue_depth must be >= 1 (or None)")


class _Lane:
    """One (tier, role) serving lane: queue, worker threads, replica.

    An in-process replica serializes batches behind its own lock, so one
    worker thread is all that can make progress; a process-parallel pool
    reports ``concurrency > 1`` and the lane runs that many threads, each
    popping the shared queue and keeping one worker process busy.
    """

    def __init__(self, tier: str, role: str, replica, max_depth: int | None = None):
        self.tier = tier
        self.role = role  # "stable" | "canary" | "shadow"
        self.replica = replica
        self.queue = RequestQueue(max_depth=max_depth)
        self.workers: list[threading.Thread] = []

    def join(self, timeout: float | None = None) -> None:
        for thread in self.workers:
            thread.join(timeout=timeout)


class ServingGateway:
    """Queue, batch, route, answer, and account for every request."""

    def __init__(
        self,
        pool: ReplicaPool,
        config: GatewayConfig | None = None,
        rollout: RolloutController | None = None,
    ) -> None:
        self.pool = pool
        self.config = config or GatewayConfig()
        self.rollout = rollout or RolloutController()
        self.telemetry = TelemetryRing(
            payload_sample_every=self.config.payload_sample_every
        )
        self._lanes: dict[tuple[str, str], _Lane] = {}
        self._lock = threading.Lock()
        self._stopped = False
        self._ids = itertools.count()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self.started_at = self.telemetry.started_at
        self._tracer = get_tracer()
        # One breaker per tier: routing consults them (submit_async) and
        # lane workers feed them (shadow lanes excluded — a candidate's
        # failures say nothing about the stable tier's health).
        self._breakers: dict[str, CircuitBreaker] = {}
        if self.config.breaker is not None:
            self._breakers = {
                tier: CircuitBreaker(
                    self.config.breaker,
                    on_transition=functools.partial(
                        self.telemetry.record_breaker, tier
                    ),
                )
                for tier in pool.tier_order
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Drain every lane and stop the workers; queued work is answered."""
        with self._lock:
            self._stopped = True
            lanes = list(self._lanes.values())
            self._lanes.clear()
        for lane in lanes:
            lane.queue.close()
        for lane in lanes:
            lane.join(timeout=30)

    def drain(self, timeout: float = 30.0) -> None:
        """Block until every accepted request (and mirror) is answered."""
        deadline = time.monotonic() + timeout
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServeError(
                        f"gateway did not drain within {timeout}s "
                        f"({self._inflight} in flight)"
                    )
                self._inflight_cond.wait(remaining)

    # ------------------------------------------------------------------
    # Request entry
    # ------------------------------------------------------------------
    def submit_async(
        self,
        payload: dict,
        latency_budget: float | None = None,
        request_id: str | None = None,
    ) -> PendingResponse:
        """Enqueue one request; returns its future immediately.

        Validation happens here, synchronously, against the replica that
        will answer — malformed requests raise before queueing, and the
        lane encodes what was admitted without checking it again.
        """
        if self._stopped:
            raise ServeError("gateway is stopped")
        if request_id is None:
            request_id = f"auto-{next(self._ids)}"
        if latency_budget is None:
            latency_budget = self.config.default_latency_budget
        with self._tracer.span(
            "gateway.enqueue", root=True, request_id=request_id
        ) as root:
            ctx = root.context
            route_t0 = self._tracer.clock() if ctx is not None else 0.0
            tier = self._healthy_tier(self.pool.tier_for(latency_budget))
            role = self.rollout.route(request_id)
            if role == "canary" and not self.pool.has_candidate(tier):
                role = "stable"
            if ctx is not None:
                # Routing is timed with raw clock reads and exported via
                # record() — a full child span here would be the most
                # expensive line on the per-request hot path.
                self._tracer.record(
                    "gateway.route", route_t0, self._tracer.clock(),
                    ctx=ctx, tier=tier, role=role,
                )
            replica_role = CANDIDATE if role == "canary" else STABLE
            replica = self.pool.replica(tier, replica_role)
            replica.endpoint.admit_payload(payload)
            item = QueuedRequest(payload, request_id, trace=ctx)
            item.future.trace_id = root.trace_id
            lane = self._lane(tier, role)
            self._track(+1)
            try:
                lane.queue.put(item)
            except ServeOverloadError:
                self._track(-1)
                self.telemetry.shed.inc(tier=lane.tier, reason="queue_full")
                raise
            except ServeError:
                self._track(-1)
                raise
        return item.future

    def submit(
        self,
        payload: dict,
        latency_budget: float | None = None,
        request_id: str | None = None,
    ) -> dict:
        """Submit one request and block for its response."""
        future = self.submit_async(
            payload, latency_budget=latency_budget, request_id=request_id
        )
        return future.result(timeout=self.config.request_timeout_s)

    # ------------------------------------------------------------------
    # Rollout control
    # ------------------------------------------------------------------
    def set_canary(
        self,
        versions: str | Mapping[str, str],
        fraction: float,
        shadow: bool = False,
    ) -> None:
        """Route ``fraction`` of traffic to candidate ``versions``.

        ``shadow=True`` additionally mirrors the stable-served remainder
        to the candidate for disagreement recording.
        """
        self.pool.add_candidate(versions)
        self.rollout.start_canary(fraction, shadow=shadow)
        self.telemetry.record_rollout(
            "set_canary",
            versions=self._describe_versions(versions),
            fraction=fraction,
            shadow=shadow,
        )

    def set_shadow(self, versions: str | Mapping[str, str]) -> None:
        """Mirror all traffic to candidate ``versions``; stable answers."""
        self.pool.add_candidate(versions)
        self.rollout.start_shadow()
        self.telemetry.record_rollout(
            "set_shadow", versions=self._describe_versions(versions)
        )

    def promote_canary(self, set_latest: bool = True) -> dict[str, str]:
        """The candidate becomes stable (and, by default, store-latest)."""
        self.rollout.stop()
        self._close_candidate_lanes()
        promoted = self.pool.promote_candidate(set_latest=set_latest)
        self.telemetry.record_rollout(
            "promote", versions=dict(promoted), set_latest=set_latest
        )
        return promoted

    def cancel_canary(self) -> None:
        """Abort the rollout; candidate replicas are dropped."""
        self.rollout.stop()
        self._close_candidate_lanes()
        self.pool.clear_candidate()
        self.telemetry.record_rollout("cancel")

    def poll_store(self) -> dict[str, bool]:
        """Refresh stable replicas from the store; per-tier changed flags."""
        changed = self.pool.refresh()
        refreshed = sorted(tier for tier, did in changed.items() if did)
        if refreshed:
            versions = self.pool.versions()
            self.telemetry.record_rollout(
                "refresh",
                tiers=refreshed,
                versions={tier: versions.get(tier) for tier in refreshed},
            )
        return changed

    @staticmethod
    def _describe_versions(versions: str | Mapping[str, str]) -> dict | str:
        return dict(versions) if isinstance(versions, Mapping) else versions

    # ------------------------------------------------------------------
    # Failure domains
    # ------------------------------------------------------------------
    def _healthy_tier(self, tier: str) -> str:
        """Degrade routing away from a tier whose circuit is open.

        Preference order: the requested tier, then the pool's tier order.
        When every circuit is open the request is shed — failing fast with
        a retryable error beats queueing into a known-broken replica.
        """
        breakers = self._breakers
        if not breakers or breakers[tier].allow():
            return tier
        for other in self.pool.tier_order:
            if other != tier and breakers[other].allow():
                return other
        self.telemetry.shed.inc(tier=tier, reason="breaker")
        raise ServeOverloadError(
            f"tier {tier!r} circuit is open and no healthy tier is available; "
            "retry after backing off"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One JSON-able view: telemetry + rollout + versions + batching."""
        dtypes = self.pool.dtypes()
        return {
            "uptime_s": time.monotonic() - self.started_at,
            "telemetry": self.telemetry.snapshot(
                max_batch_size=self.config.max_batch_size, dtypes=dtypes
            ),
            "rollout": self.rollout.status().to_dict(),
            "versions": self.pool.versions(),
            "dtypes": dtypes,
            "tier_order": self.pool.tier_order,
            "latency_estimates_s": {
                tier: self.pool.latency_estimate(tier)
                for tier in self.pool.tier_order
            },
            "rollout_history": [
                e.to_dict() for e in self.telemetry.rollout_events()
            ],
            "sheds": self.telemetry.sheds(),
            "breakers": {
                tier: breaker.to_dict()
                for tier, breaker in sorted(self._breakers.items())
            },
            "breaker_history": self.telemetry.breaker_events(),
            "workers": self.pool.worker_stats(),
        }

    def dashboard(self) -> str:
        """The live text dashboard (telemetry + rollout summary)."""
        lines = [
            self.telemetry.render(
                max_batch_size=self.config.max_batch_size,
                dtypes=self.pool.dtypes(),
            )
        ]
        status = self.rollout.status()
        if status.shadow or status.canary_fraction > 0 or status.shadow_served:
            rate = status.disagreement_rate
            lines.append(
                f"rollout: canary_fraction={status.canary_fraction:.2f} "
                f"shadow={status.shadow} "
                f"disagreement_rate="
                + (f"{rate:.3f}" if rate is not None else "n/a")
            )
        worker_stats = self.pool.worker_stats()
        if worker_stats:
            parts = []
            for entry in worker_stats:
                state = "up" if entry["alive"] else "down"
                parts.append(
                    f"w{entry['worker']}:{state} "
                    f"batches={entry['batches']} "
                    f"inflight={entry['inflight']} "
                    f"restarts={entry['restarts']}"
                )
            lines.append("workers: " + " | ".join(parts))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Lanes and workers
    # ------------------------------------------------------------------
    def _lane(self, tier: str, role: str) -> _Lane:
        key = (tier, role)
        with self._lock:
            if self._stopped:
                raise ServeError("gateway is stopped")
            lane = self._lanes.get(key)
            if lane is None:
                replica_role = STABLE if role == "stable" else CANDIDATE
                replica = self.pool.replica(tier, replica_role)
                lane = _Lane(
                    tier, role, replica, max_depth=self.config.max_queue_depth
                )
                for i in range(max(1, self.pool.concurrency)):
                    thread = threading.Thread(
                        target=self._worker,
                        args=(lane,),
                        name=f"serve-{tier}-{role}-{i}",
                        daemon=True,
                    )
                    lane.workers.append(thread)
                self._lanes[key] = lane
                for thread in lane.workers:
                    thread.start()
            return lane

    def _close_candidate_lanes(self) -> None:
        with self._lock:
            lanes = [
                self._lanes.pop(key)
                for key in list(self._lanes)
                if key[1] in ("canary", "shadow")
            ]
        for lane in lanes:
            lane.queue.close()
        for lane in lanes:
            lane.join(timeout=30)

    def _track(self, delta: int) -> None:
        with self._inflight_cond:
            self._inflight += delta
            if self._inflight <= 0:
                self._inflight_cond.notify_all()

    def _worker(self, lane: _Lane) -> None:
        tracer = self._tracer
        telemetry = self.telemetry
        while True:
            batch = lane.queue.pop_batch(
                self.config.max_batch_size, self.config.max_wait_s
            )
            if batch is None:
                return
            # The depth gauge is sampled at batch formation (not inc/dec'd
            # per request) so submit stays metric-free.
            telemetry.queue_depth.set(
                len(lane.queue), tier=lane.tier, role=lane.role
            )
            telemetry.batch_size.observe(len(batch), tier=lane.tier)
            payloads = [item.payload for item in batch]
            try:
                if tracer.enabled:
                    # Queue wait is over: stamp a batch_form span per
                    # request (enqueue -> pop), then serve the shared
                    # batch once, fanned out into every request's trace.
                    popped_at = tracer.clock()
                    for item in batch:
                        tracer.record(
                            "gateway.batch_form",
                            item.enqueued_at,
                            popped_at,
                            ctx=item.trace,
                            batch_size=len(batch),
                        )
                    with tracer.span_fanout(
                        "gateway.batch",
                        [item.trace for item in batch],
                        tier=lane.tier,
                        role=lane.role,
                        batch_size=len(batch),
                    ):
                        responses, _ = lane.replica.serve(payloads)
                else:
                    responses, _ = lane.replica.serve(payloads)
            except Exception as exc:  # noqa: BLE001 - propagate to callers
                self._handle_batch_failure(lane, batch, exc)
                continue
            breaker = self._lane_breaker(lane)
            if breaker is not None:
                breaker.record_success()
            self._resolve_items(lane, batch, responses)

    def _lane_breaker(self, lane: _Lane) -> CircuitBreaker | None:
        """The breaker a lane's outcomes feed, if any.

        Shadow lanes are excluded: a mirrored candidate's failures are
        rollout evidence, not a statement about the tier's health.
        """
        if lane.role == "shadow":
            return None
        return self._breakers.get(lane.tier)

    def _resolve_items(
        self, lane: _Lane, items: list[QueuedRequest], responses: list[dict]
    ) -> None:
        """Answer served requests: mirror, metrics, futures.

        Counts land before any future settles, and the rollout and
        in-flight locks are taken once per batch around the futures: a
        caller that holds response k already sees k requests counted, and
        ``drain()`` cannot return before every future is settled.
        """
        now = time.monotonic()
        if lane.role == "stable":
            self._mirror_to_shadow(lane.tier, items, responses)
        self._count(lane, items, now, result="ok")
        if lane.role == "shadow":
            for item, response in zip(items, responses):
                self.rollout.record_shadow(
                    item.request_id, item.payload, item.context, response
                )
        else:
            self.telemetry.record_payloads([item.payload for item in items])
            self.rollout.note_served(lane.role, len(items))
        for item, response in zip(items, responses):
            item.future.set_result(response)
        self._track(-len(items))

    def _fail_items(
        self, lane: _Lane, items: list[QueuedRequest], exc: BaseException
    ) -> None:
        """Fail requests whose serve raised: metrics, then futures."""
        self._count(lane, items, time.monotonic(), result="error")
        for item in items:
            item.future.set_exception(exc)
        self._track(-len(items))

    def _count(
        self, lane: _Lane, items: list[QueuedRequest], now: float, result: str
    ) -> None:
        """One counter bump and one histogram pass for a batch's outcome."""
        telemetry = self.telemetry
        telemetry.requests.inc(
            len(items), tier=lane.tier, role=lane.role, result=result
        )
        telemetry.latency.observe_many(
            [now - item.enqueued_at for item in items], tier=lane.tier
        )

    def _handle_batch_failure(
        self, lane: _Lane, batch: list[QueuedRequest], exc: BaseException
    ) -> None:
        """Isolate a failed batch so one poison payload costs one request.

        A batch exception says nothing about *which* co-batched request
        broke the forward pass — so for multi-request batches each item is
        retried individually: the poison request fails with its own error,
        the innocent bystanders are answered.  Every outcome feeds the
        tier's breaker, so a replica that fails each retry still opens the
        circuit promptly.
        """
        breaker = self._lane_breaker(lane)
        if breaker is not None:
            breaker.record_failure()
        if len(batch) == 1:
            self._fail_items(lane, batch, exc)
            return
        self.telemetry.isolated.inc(tier=lane.tier)
        salvaged_items: list[QueuedRequest] = []
        salvaged_responses: list[dict] = []
        for item in batch:
            try:
                responses, _ = lane.replica.serve([item.payload])
            except Exception as single_exc:  # noqa: BLE001 - per-item verdict
                if breaker is not None:
                    breaker.record_failure()
                self._fail_items(lane, [item], single_exc)
            else:
                if breaker is not None:
                    breaker.record_success()
                salvaged_items.append(item)
                salvaged_responses.append(responses[0])
        if salvaged_items:
            self._resolve_items(lane, salvaged_items, salvaged_responses)

    def _mirror_to_shadow(
        self, tier: str, batch: list[QueuedRequest], responses: list[dict]
    ) -> None:
        """Copy answered stable requests into the shadow lane (best effort).

        Runs *before* the primary futures resolve so ``drain()`` cannot
        observe an empty gateway while mirrors are still pending.
        """
        if not self.rollout.shadow or not self.pool.has_candidate(tier):
            return
        try:
            shadow_lane = self._lane(tier, "shadow")
            for item, response in zip(batch, responses):
                mirror = QueuedRequest(
                    item.payload, item.request_id, context=response
                )
                self._track(+1)
                try:
                    shadow_lane.queue.put(mirror)
                except ServeError:
                    self._track(-1)
                    raise
        except ServeError:
            # Shadowing must never affect primary serving: if the gateway
            # is stopping or the lane is closing, mirrors are dropped.
            pass
