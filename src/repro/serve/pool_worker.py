"""Forward transports: where a replica pool runs the model's forward pass.

``ReplicaPool(..., workers=0)`` forwards through :data:`IN_PROCESS`, in
the lane thread that formed the batch.  That serializes every model pass
behind one GIL; :class:`WorkerTransport` is the paper's "serve heavy
production traffic" answer.  It keeps N long-lived worker processes
(:mod:`repro.exec.workers` plumbing), each holding its own copy of the
model tier pair, and is what a ``ReplicaPool(..., workers=N)`` forwards
through.  A request's life splits across the process boundary at the
narrowest possible waist:

* **gateway side** (:meth:`~repro.serve.replica.Replica.serve`): validate
  + encode once (:meth:`~repro.api.Endpoint.encode_requests`), ship the
  encoded arrays through a per-slot shared-memory arena
  (:mod:`repro.serve.shm`), then decode the returned
  ``probs``/``predictions`` with :meth:`~repro.api.Endpoint.finalize_outputs`;
* **worker side** (:func:`_worker_main`): map the arrays zero-copy, run
  :meth:`~repro.api.Endpoint.forward_raw` (dtype policy and ``no_grad``
  inherited from the endpoint) at exactly the version the batch names,
  write outputs back into the response arena.

Because both sides run the *same* endpoint code on the *same* encoded
batch, predictions are bit-identical to in-process serving — the parity
tests in ``tests/serve/test_worker_pool.py`` hold the pool to that.

Rollout sends the workers nothing.  Every ``serve`` message names
``(tier, role, version, dtype)``; a worker that holds no endpoint at that
version loads it from the store once (after a promote it already holds
the candidate's).  Fresh and respawned workers start from the pool's
current table.

Failure semantics compose with the gateway's existing domains: the
``"replica.serve"`` fault point is hit *inside* the worker (fork inherits
the armed plan; :meth:`WorkerTransport.set_fault_plan` re-ships changes),
an injected ``crash`` kills the worker process for real, and a dead or
hung worker surfaces as :class:`~repro.errors.WorkerCrashError` — a batch
failure that feeds the tier's circuit breaker while the team puts a fresh
worker in the slot.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from typing import Callable, Mapping

import numpy as np

from repro.api.endpoint import Endpoint
from repro.errors import ServeError
from repro.exec.workers import WorkerProcess, WorkerTeam
from repro.faults import FaultPlan, InjectedCrash, clear as clear_faults
from repro.faults import fault_point, install as install_faults
from repro.obs import get_registry
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

# Chaos hook: fires once per formed batch, before the forward pass — in
# the worker process, with the answering slot as an extra label, when the
# forward runs there.  A disarmed point costs one attribute check.
_FP_SERVE = fault_point("replica.serve")

# Fresh response arenas start at 256 KiB; a reply that does not fit falls
# back to inline pipe transport once and the arena grows for next time.
_RESP_MIN_BYTES = 1 << 18

# How long a lease or a reply may take before the worker counts as hung.
# A dead worker surfaces at once (EOF on its pipe); this only bounds one
# that is alive but stuck.
_REPLY_TIMEOUT_S = 60.0


class _InProcess:
    """The forward runs in the calling thread, under the replica lock.

    The compiled numpy model is not reentrant, so the forward stays inside
    the lock ``Replica.serve`` holds; one lane thread is all that can make
    progress.  There are no workers to report or to arm.
    """

    concurrency = 1

    def unlocked(self, lock):
        return nullcontext()

    def forward(self, tier, role, version, endpoint, batch):
        _FP_SERVE.hit(tier=tier, role=role)
        return endpoint.forward_raw(batch), None

    def probe(self, tier, role, version, endpoint, batch) -> list[float]:
        started = time.perf_counter()
        self.forward(tier, role, version, endpoint, batch)
        return [time.perf_counter() - started]

    def worker_stats(self) -> list[dict]:
        return []

    def set_fault_plan(self, plan) -> None:
        pass

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass


IN_PROCESS = _InProcess()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _WorkerState:
    """Everything one worker process owns: endpoints, segment cache.

    Endpoints are keyed by ``(tier, version, dtype)``, not by role: a
    promote is a hit on the candidate's entry.  A tier keeps the two it
    served last — its stable and its candidate.
    """

    def __init__(self, spec: dict) -> None:
        self.slot = spec["slot"]
        self.cache = SegmentCache()
        self.store = None
        self.store_names: dict[str, str] = spec["store_names"]
        if "store_root" in spec:
            # Load the tier pair once from the ModelStore, at the exact
            # versions the gateway serves right now.
            from repro.deploy.store import ModelStore

            self.store = ModelStore(spec["store_root"])
            self.endpoints = {key: self._load(*key) for key in spec["versions"]}
        else:
            # Store-less pools fork-inherit the gateway's endpoint objects
            # (copy-on-write snapshots; nothing is pickled).
            self.endpoints = dict(spec["endpoints"])

    def _load(self, tier: str, version: str, dtype: str | None) -> Endpoint:
        return Endpoint.from_store(
            self.store, self.store_names[tier], version=version, dtype=dtype
        )

    def handle(self, msg: dict) -> dict:
        cmd = msg["cmd"]
        if cmd == "serve":
            return self._serve(msg)
        if cmd == "set_fault_plan":
            if msg["plan"] is None:
                clear_faults()
            else:
                install_faults(FaultPlan.from_dict(msg["plan"]))
            return {"ok": True}
        raise ServeError(f"unknown worker command {cmd!r}")

    def _endpoint(self, tier: str, version, dtype) -> Endpoint:
        """The endpoint at exactly the version (and dtype) the batch names.

        Loaded from the store once; store-less endpoints never move, so a
        miss there is an error.
        """
        key = (tier, version, dtype)
        endpoint = self.endpoints.pop(key, None)
        if endpoint is None:
            if self.store is None:
                raise ServeError(f"worker {self.slot} holds no endpoint {key}")
            endpoint = self._load(*key)
            older = [held for held in self.endpoints if held[0] == tier]
            for stale in older[:-1]:
                del self.endpoints[stale]
        self.endpoints[key] = endpoint  # most recently served last
        return endpoint

    def _serve(self, msg: dict) -> dict:
        tier, role = msg["tier"], msg["role"]
        endpoint = self._endpoint(tier, msg["version"], msg["dtype"])
        # Fault points fire in the worker: an "error" rule becomes an
        # error reply (a batch failure gateway-side), a "latency" rule
        # stalls this worker only, a "crash" rule kills this process.
        _FP_SERVE.hit(tier=tier, role=role, worker=self.slot)
        batch = arrays_to_batch(self.cache.view(msg["batch"]), msg["payload_names"])
        started = time.perf_counter()
        outputs = endpoint.forward_raw(batch)
        forward_s = time.perf_counter() - started
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
class WorkerTransport:
    """N resident worker processes a replica pool forwards through.

    ``table()`` returns the pool's current ``{(tier, role): Endpoint}``;
    it is read at start and again for every respawn, so a replacement
    worker is born at today's versions.  With a store the spec carries
    ``(tier, version, dtype)`` keys (workers load from the store); without
    one it carries the endpoint objects themselves (fork-inherited, which
    needs the ``fork`` start method).
    """

    def __init__(
        self,
        workers: int,
        table: Callable[[], Mapping[tuple[str, str], Endpoint]],
        store,
        store_names: Mapping[str, str],
    ) -> None:
        self.concurrency = workers
        self._table = table
        self._store = store if store_names else None
        self._store_names = dict(store_names)
        # One request and one response arena per slot; a segment is only
        # created by the first pack.
        self._arenas = [
            (
                ShmArena(f"req-{slot}"),
                ShmArena(f"resp-{slot}", min_bytes=_RESP_MIN_BYTES),
            )
            for slot in range(workers)
        ]
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
        self._team = WorkerTeam(
            workers,
            self._spawn_worker,
            name="serve-workers",
            on_restart=lambda slot: self._m_worker_restarts.inc(worker=str(slot)),
        )

    def _spawn_worker(self, slot: int) -> WorkerProcess:
        """Build one (unstarted) worker from the pool's *current* table."""
        table = {
            (tier, endpoint.version, endpoint.dtype_override): endpoint
            for (tier, _), endpoint in self._table().items()
        }
        spec: dict = {"slot": slot, "store_names": self._store_names}
        if self._store is not None:
            spec["store_root"] = str(self._store.root)
            spec["versions"] = list(table)
        else:
            spec["endpoints"] = table
        return WorkerProcess(_worker_main, (spec,), name=f"serve-worker-{slot}")

    def start(self) -> None:
        self._team.start()

    @contextmanager
    def unlocked(self, lock: threading.Lock):
        """Release the replica lock while a worker runs the forward."""
        lock.release()
        try:
            yield
        finally:
            lock.acquire()

    # -- the forward fan-out -------------------------------------------
    def forward(self, tier: str, role: str, version, endpoint: Endpoint, batch):
        """Lease a worker, forward one encoded batch; (outputs, slot)."""
        slot = self._team.lease(timeout=_REPLY_TIMEOUT_S)
        try:
            outputs = self._forward_on_slot(slot, tier, role, version, endpoint, batch)
        finally:
            # release() is where a crashed worker is replaced; the raised
            # WorkerCrashError still propagates to the gateway, which
            # records the breaker failure and retries per item.
            self._team.release(slot)
        return outputs, slot

    def _forward_on_slot(self, slot, tier, role, version, endpoint, batch):
        req_arena, resp_arena = self._arenas[slot]
        arrays, payload_names = batch_to_arrays(batch)
        manifest = req_arena.pack(arrays)
        resp_arena.ensure(_RESP_MIN_BYTES)
        msg = {
            "cmd": "serve",
            "tier": tier,
            "role": role,
            "version": version,
            "dtype": endpoint.dtype_override,
            "batch": manifest,
            "payload_names": payload_names,
            "resp": {"segment": resp_arena.name},
        }
        self._inflight[slot] += 1
        try:
            reply = self._team.request(slot, msg, timeout=_REPLY_TIMEOUT_S)
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
        return outputs

    def probe(self, tier, role, version, endpoint, batch) -> list[float]:
        """Forward ``batch`` on every slot at once; the per-slot times.

        The team is quiesced first and each leased slot gets its own
        thread (pipes and arenas are per slot), since a slot's first
        forward is several times a warm one.
        """
        with self._team.all_slots(timeout=_REPLY_TIMEOUT_S) as slots:

            def one(slot: int) -> float:
                started = time.perf_counter()
                self._forward_on_slot(slot, tier, role, version, endpoint, batch)
                return time.perf_counter() - started

            with ThreadPoolExecutor(max_workers=len(slots)) as probes:
                return list(probes.map(one, slots))

    # -- stats, faults, lifecycle ---------------------------------------
    def worker_stats(self) -> list[dict]:
        """Per-worker liveness for ``gateway.stats()`` and the dashboard."""
        stats = self._team.stats()
        for entry in stats:
            slot = entry["worker"]
            entry["batches"] = self._batches[slot]
            entry["inflight"] = self._inflight[slot]
        return stats

    def set_fault_plan(self, plan: "FaultPlan | dict | None") -> None:
        plan_dict = plan.to_dict() if isinstance(plan, FaultPlan) else plan
        self._team.broadcast(
            {"cmd": "set_fault_plan", "plan": plan_dict}, timeout=_REPLY_TIMEOUT_S
        )

    def stop(self) -> None:
        """Join every worker and unlink every shared segment (idempotent)."""
        self._team.stop()
        for req_arena, resp_arena in self._arenas:
            req_arena.close()
            resp_arena.close()
