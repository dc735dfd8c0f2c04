"""Replica tiers: which model answers, given a request's latency budget.

"Teams use multiple models to train a 'large' and a 'small' model on the
same data ... the small model must meet SLA requirements" (§2.4).  A
:class:`ReplicaPool` holds one serving :class:`~repro.api.Endpoint` per
tier (plus optional rollout *candidates*), orders tiers from most to least
capable, and routes each request to the most capable tier whose observed
latency fits the request's budget.

Latency knowledge is empirical: every served batch updates an EWMA of the
tier's request latency, and tests/operators can seed estimates with
:meth:`ReplicaPool.set_latency_hint` or a :meth:`ReplicaPool.warmup`
probe.  Store-backed pools know how to create candidate replicas pinned
to an explicit version (canary/shadow) and to promote them to stable.

Where the forward pass runs is the pool's *transport*
(:mod:`repro.serve.pool_worker`): in the calling thread (``workers=0``),
or in one of N resident worker processes (``workers=N``).  Everything
else — encode, decode, rollout, routing — is the same code.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.api.endpoint import Endpoint
from repro.errors import ServeError, StoreError
from repro.obs import get_tracer
from repro.serve.pool_worker import IN_PROCESS, WorkerTransport

if TYPE_CHECKING:
    from repro.deploy.store import ModelStore

STABLE = "stable"
CANDIDATE = "candidate"

_EWMA_ALPHA = 0.25


class Replica:
    """One endpoint behind the gateway: a tier + role + serving lock.

    The lock is the one :meth:`ReplicaPool.refresh` and
    :meth:`ReplicaPool.promote_candidate` take to move the endpoint; the
    EWMA tracks what a request experiences — the whole batch's latency.
    """

    def __init__(
        self, tier: str, role: str, endpoint: Endpoint, transport=IN_PROCESS
    ) -> None:
        self.tier = tier
        self.role = role
        self.endpoint = endpoint
        self.transport = transport
        self.lock = threading.Lock()
        self.ewma_latency_s: float | None = None
        self.requests_served = 0
        self.batches_served = 0

    @property
    def version(self) -> str | None:
        return self.endpoint.version

    def serve(self, payloads: list[dict]) -> tuple[list[dict], float]:
        """Answer one formed batch; returns (responses, batch latency).

        Encode, then the transport's forward, then finalize.  The endpoint
        and its version are read under the lock a refresh or promote takes,
        so the version the transport is told is the one whose vocabularies
        encoded the batch.  A worker forward runs outside that lock, so N
        lane threads can keep N workers busy.
        """
        with get_tracer().span(
            "replica.serve", child_only=True, tier=self.tier, role=self.role
        ):
            started = time.perf_counter()
            with self.lock:
                endpoint = self.endpoint
                version = endpoint.version
                records, batch = endpoint.encode_requests(payloads)
                with self.transport.unlocked(self.lock):
                    outputs = self.transport.forward(
                        self.tier, self.role, version, endpoint, batch
                    )
                responses = endpoint.finalize_outputs(outputs, records)
                endpoint.requests_served += len(payloads)
                elapsed = time.perf_counter() - started
                self._note_served(len(payloads), elapsed)
        return responses, elapsed

    def _note_served(self, n_requests: int, elapsed: float) -> None:
        """Update the serving counters and latency EWMA (caller holds lock)."""
        self.requests_served += n_requests
        self.batches_served += 1
        if self.ewma_latency_s is None:
            self.ewma_latency_s = elapsed
        else:
            self.ewma_latency_s = (
                _EWMA_ALPHA * elapsed + (1 - _EWMA_ALPHA) * self.ewma_latency_s
            )


class ReplicaPool:
    """Tiered replicas with budget routing and candidate management.

    ``workers=0`` forwards every batch in the lane thread that formed it;
    ``workers=N`` forwards it in one of N resident worker processes, each
    loading the tier pair once — from the store when the pool is
    store-backed, by fork-inheriting the gateway endpoints otherwise.  A
    worker follows the version each batch names, so rollout needs no
    message to the workers.  Use as a context manager (or call
    :meth:`stop`): teardown joins every worker and unlinks every shared
    segment.
    """

    def __init__(
        self,
        tiers: Mapping[str, Endpoint],
        tier_order: Sequence[str] | None = None,
        store: "ModelStore | None" = None,
        store_names: Mapping[str, str] | None = None,
        dtype: str | None = None,
        workers: int = 0,
    ) -> None:
        if not tiers:
            raise ServeError("a replica pool needs at least one tier")
        if workers < 0:
            raise ServeError(f"workers must be >= 0, got {workers}")
        # Serving precision for candidate replicas this pool creates later
        # (canary/shadow must run in the same dtype as the stable tier they
        # are compared against).  When not given explicitly it is derived
        # from the stable endpoints' own dtype override, so directly
        # constructed pools keep the invariant too.
        if dtype is None:
            overrides = {
                e.dtype_override
                for e in tiers.values()
                if e.dtype_override is not None
            }
            if len(overrides) == 1:
                dtype = overrides.pop()
        self._dtype = dtype
        self._store = store
        self._store_names = dict(store_names or {})
        self._transport = (
            WorkerTransport(workers, self._worker_table, store, self._store_names)
            if workers
            else IN_PROCESS
        )
        self._replicas: dict[tuple[str, str], Replica] = {
            (tier, STABLE): Replica(tier, STABLE, endpoint, self._transport)
            for tier, endpoint in tiers.items()
        }
        if tier_order is None:
            # Most capable first: order by parameter count, largest wins.
            tier_order = sorted(
                tiers,
                key=lambda t: tiers[t].artifact.metadata.get("num_parameters", 0),
                reverse=True,
            )
        if set(tier_order) != set(tiers):
            raise ServeError(
                f"tier_order {list(tier_order)} does not match tiers {sorted(tiers)}"
            )
        self.tier_order = list(tier_order)
        self._latency_hints: dict[str, float] = {}
        self._lock = threading.Lock()
        self._transport.start()

    def _worker_table(self) -> dict[tuple[str, str], Endpoint]:
        """Today's endpoint per (tier, role): what a (re)spawned worker loads."""
        return {key: replica.endpoint for key, replica in list(self._replicas.items())}

    @property
    def concurrency(self) -> int:
        """How many batches per lane the gateway may run concurrently.

        One in-process (the compiled model is not reentrant); the worker
        count otherwise, and the gateway starts that many threads per lane.
        """
        return self._transport.concurrency

    def worker_stats(self) -> list[dict]:
        """Per-worker liveness for ``gateway.stats()`` (``[]`` in-process)."""
        return self._transport.worker_stats()

    def set_fault_plan(self, plan) -> None:
        """Ship a fault plan (``None`` disarms) to every running worker.

        Workers forked after ``repro.faults.install`` inherit the armed
        plan; this covers plans changed while they run.  In-process serving
        reads the installed plan directly, so there it is a no-op.
        """
        self._transport.set_fault_plan(plan)

    def stop(self) -> None:
        """Join every worker and unlink every shared segment (idempotent)."""
        self._transport.stop()

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_endpoint(
        cls, endpoint: Endpoint, tier: str = "default", **kwargs
    ) -> "ReplicaPool":
        """A single-tier pool over one endpoint (store-backed or not).

        The endpoint's dtype override (if any) carries over to the pool
        (derived in ``__init__``) so candidate replicas created later
        serve in the same precision as the stable tier they are compared
        against.  Extra keyword arguments (``workers``) flow to the
        constructor.
        """
        store_names = {}
        if endpoint.model_name is not None:
            store_names[tier] = endpoint.model_name
        return cls(
            {tier: endpoint},
            store=endpoint.store,
            store_names=store_names,
            **kwargs,
        )

    @classmethod
    def from_store(
        cls,
        store: "ModelStore",
        name: str,
        tiers: Sequence[str] | None = None,
        dtype: str | None = None,
        **kwargs,
    ) -> "ReplicaPool":
        """Serve a stored model, resolving large/small synchronized pairs.

        With ``tiers=None`` the pool probes for the ``deploy.sync`` pair
        layout (``<name>/large`` + ``<name>/small``, as written by
        :func:`repro.deploy.sync.push_pair`); if neither half exists the
        model is served as a single ``default`` tier under ``name``.
        ``dtype`` sets every tier's serving precision (e.g. ``"float32"``
        inference mode); ``None`` keeps each artifact's compiled dtype.
        Extra keyword arguments (``workers``) flow to the constructor.
        """
        if tiers is None:
            found = []
            for tier in ("large", "small"):
                try:
                    store.latest_version(f"{name}/{tier}")
                    found.append(tier)
                except StoreError:
                    pass
            tiers = found or None
        if tiers is None:
            store_names = {"default": name}
        else:
            store_names = {tier: f"{name}/{tier}" for tier in tiers}
        endpoints = {
            tier: Endpoint.from_store(store, store_name, dtype=dtype)
            for tier, store_name in store_names.items()
        }
        return cls(
            endpoints, store=store, store_names=store_names, dtype=dtype, **kwargs
        )

    # ------------------------------------------------------------------
    # Tier routing
    # ------------------------------------------------------------------
    @property
    def tiers(self) -> list[str]:
        return list(self.tier_order)

    @property
    def store_names(self) -> dict[str, str]:
        """Per-tier store model names (empty for store-less pools)."""
        return dict(self._store_names)

    def latency_estimate(self, tier: str) -> float | None:
        """Observed EWMA if the tier has served, else the operator hint."""
        replica = self.replica(tier, STABLE)
        if replica.ewma_latency_s is not None:
            return replica.ewma_latency_s
        return self._latency_hints.get(tier)

    def set_latency_hint(self, tier: str, seconds: float) -> None:
        if tier not in self.tier_order:
            raise ServeError(f"unknown tier {tier!r}; tiers: {self.tier_order}")
        self._latency_hints[tier] = seconds

    def warmup(self, payloads: list[dict]) -> dict[str, float]:
        """Probe every stable tier on every worker to seed the estimates.

        One probe per tier would leave N-1 cold workers (lazy model state,
        cold page cache) to surprise the first real requests, so each
        tier's batch is encoded once and forwarded on all slots at once.
        A tier's estimate is the mean per-slot forward time.
        """
        payloads = list(payloads)
        estimates = {}
        for tier in self.tier_order:
            replica = self.replica(tier, STABLE)
            with replica.lock:
                endpoint = replica.endpoint
                version = endpoint.version
                for payload in payloads:
                    endpoint.admit_payload(payload)
                _, batch = endpoint.encode_requests(payloads)
                with self._transport.unlocked(replica.lock):
                    times = self._transport.probe(
                        tier, STABLE, version, endpoint, batch
                    )
                estimates[tier] = sum(times) / len(times)
                replica._note_served(len(payloads) * len(times), estimates[tier])
        return estimates

    def tier_for(self, latency_budget: float | None) -> str:
        """The most capable tier whose latency estimate fits the budget.

        ``None`` means unconstrained (most capable tier).  A tier with no
        estimate yet is assumed to fit — measurements correct the routing
        as soon as traffic flows.  If nothing fits, the cheapest tier is
        the graceful degradation.
        """
        if latency_budget is None:
            return self.tier_order[0]
        for tier in self.tier_order:
            estimate = self.latency_estimate(tier)
            if estimate is None or estimate <= latency_budget:
                return tier
        return self.tier_order[-1]

    def replica(self, tier: str, role: str = STABLE) -> Replica:
        try:
            return self._replicas[(tier, role)]
        except KeyError:
            raise ServeError(
                f"no {role!r} replica for tier {tier!r}; "
                f"tiers: {self.tier_order}"
            ) from None

    def has_candidate(self, tier: str | None = None) -> bool:
        tiers = [tier] if tier else self.tier_order
        return any((t, CANDIDATE) in self._replicas for t in tiers)

    # ------------------------------------------------------------------
    # Candidates (canary / shadow) and promotion
    # ------------------------------------------------------------------
    def _require_store(self) -> "ModelStore":
        if self._store is None or not self._store_names:
            raise ServeError(
                "candidate rollout needs a store-backed pool "
                "(build it with ReplicaPool.from_store)"
            )
        return self._store

    def add_candidate(self, versions: str | Mapping[str, str]) -> None:
        """Load candidate replicas pinned to explicit store versions.

        ``versions`` is one version hash for a single-tier pool, or a
        ``{tier: version}`` mapping for pairs (each half of a synchronized
        pair has its own content hash).
        """
        store = self._require_store()
        if isinstance(versions, str):
            if len(self.tier_order) != 1:
                raise ServeError(
                    f"pool has tiers {self.tier_order}; pass a "
                    "{tier: version} mapping for multi-tier candidates"
                )
            versions = {self.tier_order[0]: versions}
        unknown = set(versions) - set(self.tier_order)
        if unknown:
            raise ServeError(f"unknown candidate tiers {sorted(unknown)}")
        with self._lock:
            for tier, version in versions.items():
                endpoint = Endpoint.from_store(
                    store,
                    self._store_names[tier],
                    version=version,
                    dtype=self._dtype,
                )
                self._replicas[(tier, CANDIDATE)] = Replica(
                    tier, CANDIDATE, endpoint, self._transport
                )

    def clear_candidate(self) -> None:
        with self._lock:
            for tier in self.tier_order:
                self._replicas.pop((tier, CANDIDATE), None)

    def promote_candidate(self, set_latest: bool = True) -> dict[str, str]:
        """Candidates become stable; optionally move the store pointers.

        Returns the new stable versions per tier.  The promoted endpoints
        are un-pinned so they follow future pushes on :meth:`refresh`.
        """
        with self._lock:
            promoted: dict[str, str] = {}
            for tier in self.tier_order:
                candidate = self._replicas.pop((tier, CANDIDATE), None)
                if candidate is None:
                    continue
                stable = self._replicas[(tier, STABLE)]
                with stable.lock:
                    stable.endpoint = candidate.endpoint
                    stable.endpoint.pinned = False
                promoted[tier] = candidate.endpoint.version or ""
            if not promoted:
                raise ServeError("no candidate to promote")
            if set_latest and self._store is not None:
                for tier, version in promoted.items():
                    self._store.set_latest(self._store_names[tier], version)
            return promoted

    # ------------------------------------------------------------------
    # Store polling
    # ------------------------------------------------------------------
    def refresh(self) -> dict[str, bool]:
        """Poll the store for new latest versions; per-tier changed flags."""
        changed = {}
        for tier in self.tier_order:
            replica = self.replica(tier, STABLE)
            if replica.endpoint.store is None:
                changed[tier] = False
                continue
            with replica.lock:
                changed[tier] = replica.endpoint.refresh()
        return changed

    def versions(self) -> dict[str, dict[str, str | None]]:
        """Current versions per tier and role (for health endpoints)."""
        out: dict[str, dict[str, str | None]] = {}
        for (tier, role), replica in sorted(self._replicas.items()):
            out.setdefault(tier, {})[role] = replica.version
        return out

    def dtypes(self) -> dict[str, str]:
        """The serving dtype of each tier's stable replica."""
        return {
            tier: self.replica(tier, STABLE).endpoint.dtype_name
            for tier in self.tier_order
        }
