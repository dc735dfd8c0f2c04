"""Observability overhead: the gateway with obs off vs on.

``repro.obs`` promises to be off-by-default-cheap (a disabled tracer or
registry costs one branch per call site) and cheap-when-on in its
production posture: metrics cover every request, traces are Dapper-style
head-sampled (``enable(sample_every=N)``).  This bench drains the same
request log through one gateway in three postures:

* **disabled** — obs fully off (the baseline);
* **production** — metrics on every request + 1/16 trace sampling, the
  posture ``repro serve --obs`` style deployments should run;
* **full tracing** — every request traced end to end, the diagnostic
  posture you switch on while chasing a problem.

Thread-scheduling noise on a busy box dwarfs single-digit overheads, so
disabled/production runs are *interleaved in pairs* (alternating order)
and the headline ``overhead_frac`` is taken from the *best* (least
noisy) pair — the tightest observed bound on the true cost; a genuine
regression shows up in every pair, noise only in some.  The median
ratio is recorded alongside for context.

Shape targets: production posture under 10% hard (the target is <3% on
quiet machines; the margin absorbs GIL-scheduling jitter), full tracing
under 40% (it exports ~4 spans per request — a diagnostic mode, not a
tax you pay always), disabled instruments branch-cheap per op.  When
``BENCH_OBS_JSON`` is set (as ``tools/run_benchmarks.py`` does), all
throughputs and per-op no-op costs are written there so the perf
trajectory is tracked between PRs.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time

import repro.obs as obs
from repro.api import Application, Endpoint
from repro.serve import GatewayConfig, ReplicaPool, ServingGateway
from repro.workloads import (
    FactoidGenerator,
    WorkloadConfig,
    apply_standard_weak_supervision,
)

from benchmarks.conftest import print_table, small_model_config

N_RECORDS = 300
# Long enough that one drain takes >100ms: short drains make scheduler
# jitter look like instrumentation overhead.
N_REQUESTS = 1536
MAX_BATCH = 32
MAX_WAIT_S = 0.005
N_CLIENTS = 4
PAIRS = 6  # interleaved disabled/production pairs; best pair is the bound
SAMPLE_EVERY = 16
MICRO_OPS = 200_000
HARD_OVERHEAD_BAR = 0.10
FULL_TRACE_BAR = 0.40


def _artifact_and_requests():
    dataset = FactoidGenerator(WorkloadConfig(n=N_RECORDS, seed=0)).generate()
    apply_standard_weak_supervision(dataset.records, seed=0)
    app = Application(dataset.schema, name="factoid-qa")
    # size=48: a realistically-heavy request (the tiny default model makes
    # *any* fixed per-request cost look like a huge fraction).
    run = app.fit(dataset, small_model_config(size=48, epochs=3))
    artifact = run.artifact()
    records = dataset.records
    requests = [
        {
            "tokens": records[i % len(records)].payloads["tokens"],
            "entities": records[i % len(records)].payloads["entities"],
        }
        for i in range(N_REQUESTS)
    ]
    return artifact, requests


def _gateway_rps(artifact, requests) -> float:
    """One full drain of the request log through a fresh gateway."""
    pool = ReplicaPool.from_endpoint(Endpoint(artifact))
    config = GatewayConfig(
        max_batch_size=MAX_BATCH,
        max_wait_s=MAX_WAIT_S,
        payload_sample_every=16,
    )
    chunks = [requests[i::N_CLIENTS] for i in range(N_CLIENTS)]
    results: list[int] = []
    with ServingGateway(pool, config) as gateway:

        def client(chunk: list[dict]) -> None:
            futures = [gateway.submit_async(r) for r in chunk]
            results.append(sum(1 for f in futures if f.result(timeout=60)))

        start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(chunk,)) for chunk in chunks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
    assert sum(results) == N_REQUESTS
    return N_REQUESTS / elapsed


def _run_in_posture(artifact, requests, posture: str) -> float:
    """One drain in 'disabled' / 'production' / 'full' posture, cleaned up."""
    if posture == "disabled":
        obs.disable()
    elif posture == "production":
        obs.enable(sample_every=SAMPLE_EVERY)
    else:
        obs.enable(sample_every=1)
    try:
        return _gateway_rps(artifact, requests)
    finally:
        tracer, registry = obs.get_tracer(), obs.get_registry()
        obs.disable()
        tracer.ring.clear()
        registry.reset()


def _micro_disabled_costs() -> tuple[float, float]:
    """(disabled counter inc, noop span) in ns/op, instruments off."""
    registry = obs.get_registry()
    tracer = obs.get_tracer()
    assert not registry.enabled and not tracer.enabled
    counter = registry.counter("bench_obs_micro_total", "micro bench counter")
    start = time.perf_counter()
    for _ in range(MICRO_OPS):
        counter.inc()
    counter_ns = (time.perf_counter() - start) / MICRO_OPS * 1e9
    start = time.perf_counter()
    for _ in range(MICRO_OPS):
        with tracer.span("bench.noop"):
            pass
    span_ns = (time.perf_counter() - start) / MICRO_OPS * 1e9
    return counter_ns, span_ns


def run_obs_overhead():
    artifact, requests = _artifact_and_requests()
    # Warm both paths once so neither side pays first-run costs.
    _run_in_posture(artifact, requests, "disabled")
    _run_in_posture(artifact, requests, "production")

    disabled_runs, production_runs, ratios = [], [], []
    for i in range(PAIRS):
        order = ("disabled", "production") if i % 2 == 0 else ("production", "disabled")
        pair = {}
        for posture in order:
            pair[posture] = _run_in_posture(artifact, requests, posture)
        disabled_runs.append(pair["disabled"])
        production_runs.append(pair["production"])
        ratios.append(pair["production"] / pair["disabled"])
    full_rps = max(
        _run_in_posture(artifact, requests, "full") for _ in range(3)
    )

    disabled_rps = max(disabled_runs)
    enabled_rps = max(production_runs)
    overhead_frac = max(1.0 - max(ratios), 0.0)
    overhead_frac_median = max(1.0 - statistics.median(ratios), 0.0)
    full_overhead_frac = max(1.0 - full_rps / disabled_rps, 0.0)
    counter_ns, span_ns = _micro_disabled_costs()

    metrics = {
        "requests": N_REQUESTS,
        "max_batch_size": MAX_BATCH,
        "clients": N_CLIENTS,
        "pairs": PAIRS,
        "trace_sample_every": SAMPLE_EVERY,
        "disabled_rps": round(disabled_rps, 1),
        "enabled_rps": round(enabled_rps, 1),
        "full_trace_rps": round(full_rps, 1),
        "overhead_frac": round(overhead_frac, 4),
        "overhead_frac_median": round(overhead_frac_median, 4),
        "full_trace_overhead_frac": round(full_overhead_frac, 4),
        "disabled_counter_ns": round(counter_ns, 1),
        "noop_span_ns": round(span_ns, 1),
    }
    out_path = os.environ.get("BENCH_OBS_JSON")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(metrics, fh, indent=2)

    return metrics, {
        "posture": [
            "obs disabled",
            f"production (metrics + 1/{SAMPLE_EVERY} traces)",
            "full tracing (every request)",
        ],
        "requests/s": [
            round(disabled_rps, 1), round(enabled_rps, 1), round(full_rps, 1)
        ],
        "overhead": [
            "-",
            f"{overhead_frac * 100:.1f}%",
            f"{full_overhead_frac * 100:.1f}%",
        ],
    }


def test_obs_overhead(benchmark):
    metrics, columns = benchmark.pedantic(
        run_obs_overhead, rounds=1, iterations=1
    )
    print_table("Observability overhead (gateway workload)", columns)
    print(
        f"  disabled counter.inc {metrics['disabled_counter_ns']:.0f}ns/op  "
        f"noop span {metrics['noop_span_ns']:.0f}ns/op"
    )
    # The acceptance bar: the production posture stays within 10% of
    # uninstrumented throughput (target <3%; the margin absorbs noise).
    assert metrics["overhead_frac"] < HARD_OVERHEAD_BAR, (
        f"production obs posture lost {metrics['overhead_frac'] * 100:.1f}% "
        f"throughput (bar {HARD_OVERHEAD_BAR * 100:.0f}%)"
    )
    # Full tracing is a diagnostic mode but must stay usable.
    assert metrics["full_trace_overhead_frac"] < FULL_TRACE_BAR, (
        f"full tracing lost {metrics['full_trace_overhead_frac'] * 100:.1f}% "
        f"throughput (bar {FULL_TRACE_BAR * 100:.0f}%)"
    )
    # Disabled instruments must stay branch-cheap (well under 1us/op).
    assert metrics["disabled_counter_ns"] < 1000
    assert metrics["noop_span_ns"] < 2000
