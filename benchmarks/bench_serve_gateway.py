"""Gateway throughput: dynamic batching and process-parallel worker pools.

The serving gateway exists so that heavy traffic — many independent
callers, one request each — still gets the amortization wins of model
batching.  This bench serves one request log several ways:

* **per-request baseline**: a bare ``Endpoint.predict`` call per request,
  the way PR 1's serving session answers a single caller;
* **gateway (batch 32)**: concurrent clients submit the same requests
  through a :class:`repro.serve.ServingGateway` whose lanes form batches
  by size-or-deadline, served by the in-process :class:`ReplicaPool`;
* **pool (N workers)**: the same gateway fronting a
  ``ReplicaPool(..., workers=N)`` — batches encoded once in the
  gateway, shipped to worker processes over shared memory, for
  ``N in (1, 2, 4)``.

Shape targets: the gateway achieves **≥ 3×** the per-request throughput,
and the 4-worker pool scales over the in-process gateway by a factor
that depends on how many cores this host actually grants (a 1-core CI
box cannot parallelize; it only pays transport overhead, so the bar
there is a sanity floor, not a speedup).  Worker-pool responses must be
**bit-identical** to in-process responses on every host when the same
batches are served — the pool has no numerical seam — so that gate is
unconditional (composition-pinned: the forward itself is batch-shape
sensitive at the last ulp, like any padded reduction).  When
``BENCH_SERVE_JSON`` is set (as ``tools/run_benchmarks.py`` does), the
latency percentiles, throughput, per-worker-count scaling, and the host
core count are written there so the perf trajectory is tracked between
PRs.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.api import Endpoint
from repro.serve import GatewayConfig, ReplicaPool, ServingGateway

from benchmarks.conftest import bench_workload, print_table, small_model_config

N_RECORDS = 500
N_REQUESTS = 512
MAX_BATCH = 32
MAX_WAIT_S = 0.005
N_CLIENTS = 4
WORKER_COUNTS = (1, 2, 4)


def _host_cores() -> int:
    """Cores actually granted to this process (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _scaling_floor(cores: int) -> float:
    """Required 4-worker speedup over the in-process gateway, per host.

    With ≥ 4 cores the paper-shape target applies: process parallelism
    must win ≥ 2.5×.  With 2–3 cores partial scaling is all physics
    allows.  On 1 core workers cannot run concurrently at all — the run
    only measures transport overhead — so the gate degrades to a floor
    that catches pathological regressions (e.g. per-request pickling)
    without pretending a speedup is possible.
    """
    if cores >= 4:
        return 2.5
    if cores >= 2:
        return 1.3
    return 0.4


def _artifact_and_requests(n_records: int, n_requests: int, epochs: int):
    built = bench_workload("factoid", scale=n_records, seed=0)
    dataset = built.dataset
    run = built.application.fit(dataset, small_model_config(epochs=epochs))
    artifact = run.artifact()
    records = dataset.records
    requests = [
        {
            "tokens": records[i % len(records)].payloads["tokens"],
            "entities": records[i % len(records)].payloads["entities"],
        }
        for i in range(n_requests)
    ]
    return artifact, requests


def _per_request_rps(artifact, requests) -> float:
    endpoint = Endpoint(artifact)
    start = time.perf_counter()
    responses = [endpoint.predict(r) for r in requests]
    elapsed = time.perf_counter() - start
    assert len(responses) == len(requests)
    return len(requests) / elapsed


def _gateway_run(artifact, requests, workers: int = 0):
    """Concurrent clients draining the same log through one gateway.

    ``workers=0`` forwards in-process; ``workers>0`` forwards in that
    many worker processes.
    Returns ``(rps, metrics, parity_log)`` where ``parity_log`` is the
    response list for one direct full-log batch through the pool.  The
    forward pass is batch-composition-sensitive at the last ulp
    (reduction order under padding), so bit-identical comparisons must
    pin the composition — the parity log serves the whole request log
    as a single batch on every path, isolating the transport itself.
    """
    n_requests = len(requests)
    pool = ReplicaPool.from_endpoint(Endpoint(artifact), workers=workers)
    config = GatewayConfig(
        max_batch_size=MAX_BATCH,
        max_wait_s=MAX_WAIT_S,
        payload_sample_every=16,
    )
    chunks = [requests[i::N_CLIENTS] for i in range(N_CLIENTS)]
    ordered: list = [None] * n_requests
    with pool, ServingGateway(pool, config) as gateway:

        def client(lane: int, chunk: list[dict]) -> None:
            futures = [gateway.submit_async(r) for r in chunk]
            responses = [f.result(timeout=120) for f in futures]
            ordered[lane::N_CLIENTS] = responses

        start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(lane, chunk))
            for lane, chunk in enumerate(chunks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        assert all(r is not None for r in ordered)
        snapshot = gateway.stats()["telemetry"]
        parity_log, _ = pool.replica("default").serve(list(requests))
    rps = n_requests / elapsed
    tier = snapshot["tiers"]["default"]
    return rps, {
        "requests": n_requests,
        "max_batch_size": MAX_BATCH,
        "max_wait_s": MAX_WAIT_S,
        "clients": N_CLIENTS,
        "requests_per_s": round(rps, 1),
        "p50_latency_s": tier["p50_s"],
        "p95_latency_s": tier["p95_s"],
        "p99_latency_s": tier["p99_s"],
        "mean_batch": tier["mean_batch"],
        "batch_fill_rate": snapshot["batch_fill_rate"],
    }, parity_log


def run_gateway_throughput(reduced: bool = False):
    """Full serving comparison; ``reduced=True`` is the tier-1 smoke shape."""
    n_records = 120 if reduced else N_RECORDS
    n_requests = 64 if reduced else N_REQUESTS
    epochs = 2 if reduced else 4
    worker_counts = (2,) if reduced else WORKER_COUNTS
    cores = _host_cores()

    artifact, requests = _artifact_and_requests(n_records, n_requests, epochs)
    rps_single = _per_request_rps(artifact, requests)
    rps_gateway, metrics, expected = _gateway_run(artifact, requests)
    metrics["per_request_rps"] = round(rps_single, 1)
    metrics["speedup"] = round(rps_gateway / rps_single, 2)
    metrics["cores"] = cores

    modes = ["per-request Endpoint.predict", f"gateway (batch {MAX_BATCH})"]
    rps_rows = [round(rps_single, 1), round(rps_gateway, 1)]
    p95_rows = ["-", round(metrics["p95_latency_s"] * 1000, 2)]
    fill_rows = ["-", round(metrics["batch_fill_rate"], 2)]

    pool_rps: dict[int, float] = {}
    for workers in worker_counts:
        rps_pool, pool_metrics, got = _gateway_run(
            artifact, requests, workers=workers
        )
        # Unconditional on every host: both parity logs serve the whole
        # request log as one identical batch, so any divergence is a
        # transport bug, not batching noise.
        assert got == expected, (
            f"{workers}-worker pool responses diverged from in-process serving"
        )
        pool_rps[workers] = rps_pool
        metrics[f"workers_{workers}_rps"] = round(rps_pool, 1)
        metrics[f"workers_{workers}_p95_latency_s"] = pool_metrics[
            "p95_latency_s"
        ]
        modes.append(f"pool ({workers} workers)")
        rps_rows.append(round(rps_pool, 1))
        p95_rows.append(round(pool_metrics["p95_latency_s"] * 1000, 2))
        fill_rows.append(round(pool_metrics["batch_fill_rate"], 2))

    top_workers = max(worker_counts)
    metrics["pool_scaling"] = round(pool_rps[top_workers] / rps_gateway, 2)

    if not reduced:
        floor = _scaling_floor(cores)
        assert pool_rps[top_workers] >= floor * rps_gateway, (
            f"{top_workers}-worker pool {pool_rps[top_workers]:.0f} rps < "
            f"{floor}x in-process gateway {rps_gateway:.0f} rps "
            f"(host grants {cores} core(s))"
        )

    out_path = os.environ.get("BENCH_SERVE_JSON")
    if out_path and not reduced:
        with open(out_path, "w") as fh:
            json.dump(metrics, fh, indent=2)

    return {
        "mode": modes,
        "requests/s": rps_rows,
        "p95 ms": p95_rows,
        "batch fill": fill_rows,
    }


def test_serve_gateway_throughput(benchmark):
    columns = benchmark.pedantic(run_gateway_throughput, rounds=1, iterations=1)
    print_table("Serving gateway throughput", columns)
    rps = dict(zip(columns["mode"], columns["requests/s"]))
    gateway_rps = rps[f"gateway (batch {MAX_BATCH})"]
    single_rps = rps["per-request Endpoint.predict"]
    # The acceptance bar: dynamic batching wins by at least 3x.
    assert gateway_rps >= 3 * single_rps, (
        f"gateway {gateway_rps:.0f} rps < 3x per-request {single_rps:.0f} rps"
    )
