"""Process-parallel replicas: batches forwarded by resident worker processes.

The in-process :class:`~repro.serve.replica.ReplicaPool` serializes every
forward pass behind one GIL; this module is the paper's "serve heavy
production traffic" answer.  A :class:`WorkerReplicaPool` keeps N
long-lived worker processes (:mod:`repro.exec.workers` plumbing), each
holding its own copy of the model tier pair, and splits a request's life
across the process boundary at the narrowest possible waist:

* **gateway side** (``WorkerReplica.serve``): validate + encode once
  (:meth:`~repro.api.Endpoint.encode_requests`), ship the encoded arrays
  through a per-slot shared-memory arena (:mod:`repro.serve.shm`), then
  decode the returned ``probs``/``predictions`` with
  :meth:`~repro.api.Endpoint.finalize_outputs`;
* **worker side** (:func:`_worker_main`): map the arrays zero-copy,
  run :meth:`~repro.api.Endpoint.forward_raw` (dtype policy and
  ``no_grad`` inherited from the endpoint), write outputs back into the
  response arena.

Because both sides run the *same* endpoint code on the *same* encoded
batch, predictions are bit-identical to in-process serving — the parity
tests in ``tests/serve/test_worker_pool.py`` hold the pool to that.

Failure semantics compose with the gateway's existing domains: the
``"replica.serve"`` fault point is hit *inside* the worker (fork inherits
the armed plan; :meth:`WorkerReplicaPool.set_fault_plan` re-ships changes),
an injected ``crash`` kills the worker process for real, and a dead or
hung worker surfaces as :class:`~repro.errors.WorkerCrashError` — a batch
failure that feeds the tier's circuit breaker while the team puts a fresh
worker in the slot.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping

import numpy as np

from repro.api.endpoint import Endpoint
from repro.errors import ServeError
from repro.faults import FaultPlan, InjectedCrash, clear as clear_faults
from repro.faults import fault_point, install as install_faults
from repro.obs import get_registry
from repro.serve.replica import CANDIDATE, STABLE, Replica, ReplicaPool
from repro.serve.shm import (
    SegmentCache,
    ShmArena,
    arrays_to_batch,
    arrays_to_outputs,
    batch_to_arrays,
    outputs_to_arrays,
    read_arrays,
    required_bytes,
    write_arrays,
)
from repro.exec.workers import WorkerProcess, WorkerTeam, default_mp_context

# The same chaos hook Replica.serve compiles in — here it fires inside the
# worker process, with the answering slot as an extra label.
_FP_SERVE = fault_point("replica.serve")

# Fresh response arenas start at 256 KiB; a reply that does not fit falls
# back to inline pipe transport once and the arena grows for next time.
_RESP_MIN_BYTES = 1 << 18


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _WorkerState:
    """Everything one worker process owns: endpoints, segment cache."""

    def __init__(self, spec: dict) -> None:
        self.slot = spec["slot"]
        self.cache = SegmentCache()
        self.batches = 0
        self.store = None
        self.store_names: dict[str, str] = spec.get("store_names") or {}
        self.dtypes: dict[tuple[str, str], str | None] = spec.get("dtypes") or {}
        if spec["mode"] == "store":
            # Load the tier pair once from the ModelStore, pinned to the
            # exact versions the gateway serves right now.
            from repro.deploy.store import ModelStore

            self.store = ModelStore(spec["store_root"])
            self.endpoints = {
                (tier, role): Endpoint.from_store(
                    self.store,
                    self.store_names[tier],
                    version=version,
                    dtype=self.dtypes.get((tier, role)),
                )
                for (tier, role), version in spec["versions"].items()
            }
        else:
            # Store-less pools fork-inherit the gateway's endpoint objects
            # (copy-on-write snapshots; nothing is pickled).
            self.endpoints = dict(spec["endpoints"])

    def handle(self, msg: dict) -> dict:
        cmd = msg["cmd"]
        if cmd == "serve":
            return self._serve(msg)
        if cmd == "ping":
            return {"ok": True, "pid": os.getpid()}
        if cmd == "stats":
            return {"ok": True, "pid": os.getpid(), "batches": self.batches}
        if cmd == "set_fault_plan":
            if msg["plan"] is None:
                clear_faults()
            else:
                install_faults(FaultPlan.from_dict(msg["plan"]))
            return {"ok": True}
        if cmd == "add_candidate":
            return self._add_candidate(msg)
        if cmd == "clear_candidate":
            self.endpoints = {
                key: ep for key, ep in self.endpoints.items() if key[1] != CANDIDATE
            }
            return {"ok": True}
        if cmd == "promote":
            for tier, role in list(self.endpoints):
                if role == CANDIDATE:
                    self.endpoints[(tier, STABLE)] = self.endpoints.pop(
                        (tier, CANDIDATE)
                    )
            return {"ok": True}
        if cmd == "refresh":
            return self._refresh(msg)
        raise ServeError(f"unknown worker command {cmd!r}")

    def _serve(self, msg: dict) -> dict:
        tier, role = msg["tier"], msg["role"]
        endpoint = self.endpoints.get((tier, role))
        if endpoint is None:
            raise ServeError(
                f"worker {self.slot} has no ({tier!r}, {role!r}) endpoint"
            )
        # Fault points fire in the worker: an "error" rule becomes an
        # error reply (a batch failure gateway-side), a "latency" rule
        # stalls this worker only, a "crash" rule kills this process.
        _FP_SERVE.hit(tier=tier, role=role, worker=self.slot)
        batch = arrays_to_batch(self.cache.view(msg["batch"]), msg["payload_names"])
        started = time.perf_counter()
        outputs = endpoint.forward_raw(batch)
        forward_s = time.perf_counter() - started
        self.batches += 1
        arrays = outputs_to_arrays(outputs)
        reply = {"ok": True, "forward_s": forward_s}
        try:
            reply["entries"] = write_arrays(
                self.cache.buf(msg["resp"]["segment"]), arrays
            )
        except ServeError:
            # Outputs outgrew the response arena: ship inline this once
            # and tell the gateway how much to grow it.
            reply["inline"] = [(k, np.ascontiguousarray(a)) for k, a in arrays]
            reply["needed"] = required_bytes(arrays)
        return reply

    def _add_candidate(self, msg: dict) -> dict:
        if self.store is None:
            raise ServeError("candidate rollout needs a store-backed worker")
        for tier, version in msg["versions"].items():
            self.endpoints[(tier, CANDIDATE)] = Endpoint.from_store(
                self.store,
                self.store_names[tier],
                version=version,
                dtype=msg["dtypes"].get(tier),
            )
        return {"ok": True}

    def _refresh(self, msg: dict) -> dict:
        changed = {}
        for tier, version in msg["versions"].items():
            current = self.endpoints.get((tier, STABLE))
            if current is None or current.version == version:
                changed[tier] = False
                continue
            if self.store is None:
                raise ServeError("refresh needs a store-backed worker")
            self.endpoints[(tier, STABLE)] = Endpoint.from_store(
                self.store,
                self.store_names[tier],
                version=version,
                dtype=self.dtypes.get((tier, STABLE)),
            )
            changed[tier] = True
        return {"ok": True, "changed": changed}

    def close(self) -> None:
        self.cache.close()


def _worker_main(conn, spec: dict) -> None:
    """Entry point of one worker process: load once, answer until EOF.

    An :class:`~repro.faults.InjectedCrash` is fatal by design — the
    process hard-exits so the supervisor sees a *real* worker death, not
    a polite error reply.
    """
    from repro.exec.workers import serve_connection

    state = _WorkerState(spec)
    try:
        serve_connection(conn, state.handle, fatal=(InjectedCrash,))
    finally:
        state.close()


# ----------------------------------------------------------------------
# Gateway side
# ----------------------------------------------------------------------
class WorkerReplica(Replica):
    """A replica whose forward pass runs in a worker process.

    Encode and finalize stay in the gateway thread (and so does payload
    validation, which happens at submit time) — the replica lock only
    guards the serving counters, *not* the forward, so N lane threads can
    keep N workers busy concurrently.
    """

    def __init__(
        self, tier: str, role: str, endpoint: Endpoint, pool: "WorkerReplicaPool"
    ) -> None:
        super().__init__(tier, role, endpoint)
        self._wpool = pool
        self._tls = threading.local()

    def serve(self, payloads: list[dict]) -> tuple[list[dict], float]:
        """Encode here, forward in a worker, finalize here."""
        endpoint = self.endpoint  # one consistent object across the batch
        started = time.perf_counter()
        records, batch = endpoint.encode_requests(payloads)
        outputs, slot, _ = self._wpool._forward(self.tier, self.role, batch)
        responses = endpoint.finalize_outputs(outputs, records)
        endpoint.requests_served += len(payloads)
        elapsed = time.perf_counter() - started
        with self.lock:
            self._note_served(len(payloads), elapsed)
        self._tls.worker = slot
        return responses, elapsed

    def served_by(self) -> int | None:
        return getattr(self._tls, "worker", None)


class WorkerReplicaPool(ReplicaPool):
    """A :class:`ReplicaPool` that fans forwards out to worker processes.

    ``workers`` resident processes each load the pool's tier pair once —
    from the :class:`~repro.deploy.store.ModelStore` when the pool is
    store-backed, by fork-inheriting the gateway endpoints otherwise (the
    store-less path needs the ``fork`` start method).  Rollout operations
    (:meth:`add_candidate` / :meth:`promote_candidate` /
    :meth:`clear_candidate` / :meth:`refresh`) apply gateway-side first,
    then broadcast, so a worker respawned at any moment is rebuilt from
    already-consistent state.

    Use as a context manager (or call :meth:`stop`): teardown joins every
    worker and unlinks every shared segment; an ``atexit`` hook and
    daemonized children cover runs that die without cleanup.
    """

    def __init__(
        self,
        tiers: Mapping[str, Endpoint],
        tier_order=None,
        store=None,
        store_names=None,
        dtype: str | None = None,
        *,
        workers: int = 2,
        reply_timeout_s: float = 60.0,
        mp_start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.reply_timeout_s = reply_timeout_s
        self._mp = default_mp_context(mp_start_method)
        self._slot_arenas: dict[int, tuple[ShmArena, ShmArena]] = {}
        self._arena_lock = threading.Lock()
        self._batches = [0] * workers
        self._inflight = [0] * workers
        registry = get_registry()
        self._m_worker_batches = registry.counter(
            "repro_serve_worker_batches_total",
            "Batches forwarded per worker process",
            ("tier", "worker"),
        )
        self._m_worker_restarts = registry.counter(
            "repro_serve_worker_restarts_total",
            "Worker processes respawned after a crash",
            ("worker",),
        )
        super().__init__(
            tiers,
            tier_order=tier_order,
            store=store,
            store_names=store_names,
            dtype=dtype,
        )
        self._team = WorkerTeam(
            workers,
            self._spawn_worker,
            name="serve-workers",
            on_restart=self._note_restart,
        )
        self._team.start()

    # -- replica + worker factories ------------------------------------
    def _make_replica(self, tier: str, role: str, endpoint: Endpoint) -> Replica:
        return WorkerReplica(tier, role, endpoint, self)

    def _spawn_worker(self, slot: int) -> WorkerProcess:
        """Build one (unstarted) worker from the pool's *current* state.

        Called at start and again for every respawn: a replacement worker
        is born knowing today's versions and candidates, which is why
        control broadcasts never need replaying.
        """
        if self._store is not None and self._store_names:
            spec = {
                "slot": slot,
                "mode": "store",
                "store_root": str(self._store.root),
                "store_names": dict(self._store_names),
                "versions": {
                    key: replica.endpoint.version
                    for key, replica in self._replicas.items()
                },
                "dtypes": {
                    key: replica.endpoint.dtype_override
                    for key, replica in self._replicas.items()
                },
            }
        else:
            spec = {
                "slot": slot,
                "mode": "inherit",
                "endpoints": {
                    key: replica.endpoint
                    for key, replica in self._replicas.items()
                },
            }
        return WorkerProcess(
            _worker_main,
            (spec,),
            name=f"serve-worker-{slot}",
            mp_context=self._mp,
            reply_timeout_s=self.reply_timeout_s,
        )

    def _note_restart(self, slot: int) -> None:
        self._m_worker_restarts.inc(worker=str(slot))

    # -- the forward fan-out -------------------------------------------
    @property
    def concurrency(self) -> int:
        return self.workers

    def _arenas(self, slot: int) -> tuple[ShmArena, ShmArena]:
        with self._arena_lock:
            arenas = self._slot_arenas.get(slot)
            if arenas is None:
                arenas = (
                    ShmArena(f"req-{slot}"),
                    ShmArena(f"resp-{slot}", min_bytes=_RESP_MIN_BYTES),
                )
                self._slot_arenas[slot] = arenas
        return arenas

    def _forward(self, tier: str, role: str, batch):
        """Lease a worker, forward one encoded batch, gather its outputs."""
        slot = self._team.lease(timeout=self.reply_timeout_s)
        try:
            outputs, forward_s = self._forward_on_slot(slot, tier, role, batch)
        finally:
            # release() is where a crashed worker is replaced; the raised
            # WorkerCrashError still propagates to the gateway, which
            # records the breaker failure and retries per item.
            self._team.release(slot)
        return outputs, slot, forward_s

    def _forward_on_slot(self, slot: int, tier: str, role: str, batch):
        req_arena, resp_arena = self._arenas(slot)
        arrays, payload_names = batch_to_arrays(batch)
        manifest = req_arena.pack(arrays)
        resp_arena.ensure(_RESP_MIN_BYTES)
        msg = {
            "cmd": "serve",
            "tier": tier,
            "role": role,
            "batch": manifest,
            "payload_names": payload_names,
            "resp": {"segment": resp_arena.name},
        }
        self._inflight[slot] += 1
        try:
            reply = self._team.request(slot, msg, timeout=self.reply_timeout_s)
        finally:
            self._inflight[slot] -= 1
        if not reply.get("ok"):
            raise ServeError(
                f"worker {slot} failed serving tier {tier!r}/{role}: "
                f"{reply.get('error')}"
            )
        if "entries" in reply:
            # Copy out of the response arena: the very next batch on this
            # slot reuses the same segment.
            outputs = arrays_to_outputs(
                read_arrays(resp_arena.buf, reply["entries"]), copy=True
            )
        else:
            outputs = arrays_to_outputs(dict(reply["inline"]), copy=False)
            resp_arena.ensure(reply["needed"] * 2)
        self._batches[slot] += 1
        self._m_worker_batches.inc(tier=tier, worker=str(slot))
        return outputs, reply["forward_s"]

    # -- warmup / stats -------------------------------------------------
    def warmup(self, payloads: list[dict]) -> dict[str, float]:
        """Probe every tier on *every* worker: models hot, EWMAs seeded.

        The in-process pool probes each tier once; here one probe would
        leave N-1 cold workers (lazy model state, cold page cache) to
        surprise the first real requests, so warmup quiesces the team and
        fans each tier's batch out to all slots — concurrently, one thread
        per leased slot (pipes and arenas are per slot), since a slot's
        first forward is several times a warm one.  A tier's estimate is
        the mean per-slot time.
        """
        payloads = list(payloads)
        estimates: dict[str, float] = {}
        with self._team.all_slots(timeout=self.reply_timeout_s) as slots:
            with ThreadPoolExecutor(max_workers=len(slots)) as probes:
                for tier in self.tier_order:
                    replica = self.replica(tier, STABLE)
                    _, batch = replica.endpoint.encode_requests(payloads)

                    def probe(slot: int, tier=tier, batch=batch) -> float:
                        started = time.perf_counter()
                        self._forward_on_slot(slot, tier, STABLE, batch)
                        return time.perf_counter() - started

                    mean = sum(probes.map(probe, slots)) / len(slots)
                    with replica.lock:
                        replica._note_served(len(payloads) * len(slots), mean)
                    estimates[tier] = mean
        return estimates

    def worker_stats(self) -> list[dict]:
        """Per-worker liveness for ``gateway.stats()`` and the dashboard."""
        stats = self._team.stats()
        for entry in stats:
            slot = entry["worker"]
            entry["batches"] = self._batches[slot]
            entry["inflight"] = self._inflight[slot]
        return stats

    @property
    def restarts_total(self) -> int:
        return self._team.restarts_total

    # -- rollout control: gateway-side first, then broadcast -----------
    def add_candidate(self, versions) -> None:
        super().add_candidate(versions)
        candidate_versions: dict[str, str] = {}
        candidate_dtypes: dict[str, str | None] = {}
        for tier in self.tier_order:
            replica = self._replicas.get((tier, CANDIDATE))
            if replica is not None:
                candidate_versions[tier] = replica.endpoint.version
                candidate_dtypes[tier] = replica.endpoint.dtype_override
        self._team.broadcast(
            {
                "cmd": "add_candidate",
                "versions": candidate_versions,
                "dtypes": candidate_dtypes,
            },
            timeout=self.reply_timeout_s,
        )

    def clear_candidate(self) -> None:
        super().clear_candidate()
        self._team.broadcast(
            {"cmd": "clear_candidate"}, timeout=self.reply_timeout_s
        )

    def promote_candidate(self, set_latest: bool = True) -> dict[str, str]:
        promoted = super().promote_candidate(set_latest=set_latest)
        self._team.broadcast({"cmd": "promote"}, timeout=self.reply_timeout_s)
        return promoted

    def refresh(self) -> dict[str, bool]:
        changed = super().refresh()
        if any(changed.values()):
            versions = {
                tier: self.replica(tier, STABLE).endpoint.version
                for tier in self.tier_order
            }
            self._team.broadcast(
                {"cmd": "refresh", "versions": versions},
                timeout=self.reply_timeout_s,
            )
        return changed

    def set_fault_plan(self, plan: "FaultPlan | dict | None") -> None:
        """Ship a fault plan (or ``None`` to disarm) to every worker.

        Workers forked *after* ``repro.faults.install`` inherit the armed
        plan automatically; this broadcast covers plans installed or
        cleared while the team is already running.
        """
        plan_dict = plan.to_dict() if isinstance(plan, FaultPlan) else plan
        self._team.broadcast(
            {"cmd": "set_fault_plan", "plan": plan_dict},
            timeout=self.reply_timeout_s,
        )

    # -- lifecycle ------------------------------------------------------
    def stop(self) -> None:
        """Join every worker and unlink every shared segment (idempotent)."""
        self._team.stop()
        with self._arena_lock:
            for req_arena, resp_arena in self._slot_arenas.values():
                req_arena.close()
                resp_arena.close()
            self._slot_arenas.clear()
