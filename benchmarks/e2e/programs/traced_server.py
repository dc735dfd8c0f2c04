"""The traced stand-in for ``python -m repro serve``.

Builds the pool, ``GatewayConfig``, ``ServingGateway`` and
``AsyncGatewayServer`` exactly as ``repro.cli.cmd_serve`` does with its
defaults, then wraps bound public methods on those instances so that the
calls into each layer leave spans — recorded here, in the benchmark's
file; ``src/`` is untouched.  End-to-end numbers never come from this
process: the same out-of-process load generator drives it for shorter
phases, and only the per-layer ledger is read from its spans.

Control lines on stdin: ``microloops {"phase": [start, end], ...}`` runs
the sequential replays on the idle server and answers ``microloops done``.
SIGTERM drains and stops like the CLI, then writes every span to
``--spans-out``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness.spans import Tracer, fingerprint  # noqa: E402

from repro.api import Endpoint  # noqa: E402
from repro.serve import (  # noqa: E402
    AsyncGatewayServer,
    GatewayConfig,
    ReplicaPool,
    ServingGateway,
    WorkerReplicaPool,
)
from repro.serve.batcher import PendingResponse  # noqa: E402
from repro.serve.replica import STABLE, Replica  # noqa: E402
from repro.serve.shm import (  # noqa: E402
    ShmArena,
    arrays_to_batch,
    batch_to_arrays,
    read_arrays,
    required_bytes,
)

# cmd_serve's defaults: --batch 32, --max-wait-ms 5.
MAX_BATCH = 32
MAX_WAIT_S = 0.005
REPLAY_BATCHES = 100
SHM_ROUNDS = 200


def install_wrappers(tracer: Tracer, gateway, pool, endpoint) -> SimpleNamespace:
    """Wrap the public calls into each serve layer; returns shared state."""
    state = SimpleNamespace(
        new_group=True,
        group=0,
        req_ids=itertools.count(),
        batch_ids=itertools.count(),
        req_of_payload={},
        batches={},
        plain_serve={},
    )

    # The async front submits one POST's payloads back to back, then
    # registers one on_done per future: an on_done call closes the run.
    plain_on_done = PendingResponse.on_done

    def on_done(self, callback):
        state.new_group = True
        return plain_on_done(self, callback)

    PendingResponse.on_done = on_done

    plain_submit = gateway.submit_async

    def submit_async(payload, latency_budget=None, request_id=None):
        mark = None
        if state.new_group:
            state.new_group = False
            state.group += 1
            if request_id is None:
                mark = fingerprint(payload)
        req = next(state.req_ids)
        # Known before the enqueue: a lane thread may pop it at once.
        state.req_of_payload[id(payload)] = req
        start = time.perf_counter()
        try:
            future = plain_submit(
                payload, latency_budget=latency_budget, request_id=request_id
            )
        except BaseException:
            state.req_of_payload.pop(id(payload), None)
            raise
        end = time.perf_counter()

        def settled(_future, req=req):
            now = time.perf_counter()
            tracer.record("future.settled", now, now, req=req)

        plain_on_done(future, settled)
        tracer.record(
            "gateway.submit", start, end,
            req=req, request_id=request_id, group=state.group, fp=mark,
        )
        return future

    gateway.submit_async = submit_async

    for tier in pool.tier_order:
        replica = pool.replica(tier, STABLE)
        plain_serve = state.plain_serve[tier] = replica.serve

        def serve(payloads, plain_serve=plain_serve):
            reqs = [state.req_of_payload.pop(id(p), -1) for p in payloads]
            batch = next(state.batch_ids)
            state.batches[batch] = payloads
            with tracer.span("replica.serve", batch=batch, n=len(payloads), reqs=reqs):
                return plain_serve(payloads)

        replica.serve = serve

    endpoint.encode_requests = tracer.wrap(endpoint.encode_requests, "endpoint.encode")
    endpoint.forward_raw = tracer.wrap(endpoint.forward_raw, "endpoint.forward")
    endpoint.finalize_outputs = tracer.wrap(endpoint.finalize_outputs, "endpoint.finalize")
    return state


def run_microloops(tracer, state, pool, endpoint, windows: dict) -> dict:
    """Sequential replays on the idle pool (process-parallel pools only).

    Each phase's recorded batches are served again, one at a time, by the
    worker replica and by an in-process ``Replica`` over the same
    endpoint: the difference is what crossing shared memory to a worker
    costs, and the in-process forward is the phase's forward time, which
    the gateway process cannot otherwise see.
    """
    serves = [s for s in tracer.spans if s["name"] == "replica.serve"]
    tier = pool.tier_order[0]
    in_process = Replica(tier, STABLE, endpoint)
    worker_serve = state.plain_serve[tier]
    for phase, (low, high) in windows.items():
        ids = [s["batch"] for s in serves if low <= s["start"] < high]
        step = max(1, len(ids) // REPLAY_BATCHES)
        for batch in ids[::step][:REPLAY_BATCHES]:
            payloads = state.batches[batch]
            with tracer.span("microloop.worker_serve", phase=phase, batch=batch):
                worker_serve(payloads)
            with tracer.span("microloop.inproc_serve", phase=phase, batch=batch):
                in_process.serve(payloads)

    # The transport's own halves on a harness-owned arena, one full batch.
    full = max(state.batches.values(), key=len)
    _, batch = endpoint.encode_requests(full)
    arrays, names = batch_to_arrays(batch)
    arena = ShmArena("bench")
    try:
        for _ in range(SHM_ROUNDS):
            with tracer.span("shm.pack"):
                manifest = arena.pack(arrays)
        for _ in range(SHM_ROUNDS):
            with tracer.span("shm.read"):
                arrays_to_batch(read_arrays(arena.buf, manifest["entries"]), names)
    finally:
        arena.close()
    # Computed from array sizes, not measured on the wire.
    return {"shm_bytes_per_batch": required_bytes(arrays)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--warmup", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    meta: dict = {"max_batch": MAX_BATCH, "pooled": args.workers > 0}
    started = time.perf_counter()
    endpoint = Endpoint.from_directory(args.artifact)
    meta["artifact_load_s"] = time.perf_counter() - started

    if args.workers > 0:
        pool_cls, pool_kwargs = WorkerReplicaPool, {"workers": args.workers}
    else:
        pool_cls, pool_kwargs = ReplicaPool, {}
    started = time.perf_counter()
    pool = pool_cls.from_endpoint(endpoint, **pool_kwargs)
    meta["pool_build_s"] = time.perf_counter() - started

    gateway = ServingGateway(
        pool, GatewayConfig(max_batch_size=MAX_BATCH, max_wait_s=MAX_WAIT_S)
    )
    # After the pool exists: forked workers keep the unwrapped endpoint.
    state = install_wrappers(tracer, gateway, pool, endpoint)

    request = json.loads(Path(args.warmup).read_text())
    started = time.perf_counter()
    estimates = pool.warmup(request if isinstance(request, list) else [request])
    meta["pool_warmup_s"] = time.perf_counter() - started
    print("warmup: " + "  ".join(f"{t}={s * 1000:.1f}ms" for t, s in estimates.items()))

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        with pool, gateway, AsyncGatewayServer(
            gateway, host="127.0.0.1", port=0
        ) as server:
            versions = ", ".join(
                f"{tier}@{roles.get('stable')}"
                for tier, roles in pool.versions().items()
            )
            print(f"serving {versions} on {server.url}", flush=True)
            for line in sys.stdin:
                command, _, argument = line.strip().partition(" ")
                if command == "microloops":
                    if meta["pooled"]:
                        meta.update(
                            run_microloops(
                                tracer, state, pool, endpoint, json.loads(argument)
                            )
                        )
                    print("microloops done", flush=True)
            # stdin closed: keep serving until SIGTERM, as the CLI does.
            while True:
                time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    tracer.dump(args.spans_out, **meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
