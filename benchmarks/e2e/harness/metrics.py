"""The declared metrics and the statistics every workload reports with.

``BENCHMARK.json`` at the root of the checkout declares the metrics; the
harness reads their names and units from it, so the two cannot drift.
Every workload prints every metric: the driver's contract is one uniform
set, so the end-to-end names describe an operation's *role* (the short one
a caller waits on, the long one that is sized for throughput) and
``../README.md`` maps each role to what it is on each workload.
"""

from __future__ import annotations

import json
import math
import statistics

from harness.env import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# (name, unit) in declaration order.
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

# Serve layer timings are reported per phase, with this suffix.
SERVE_PHASES = ("single", "bulk")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default) over a sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def supported_tail(n: int) -> int:
    """The highest percentile, at most p95, with >= 10 samples beyond it.

    A sample too small to support any tail reports its median: four
    repeats of a fit say nothing about a p95.  p99 is never the gated
    tail: it moved 2x between identical probes.
    """
    for q in (95, 90, 75):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return 50


def tail(values) -> float:
    return percentile(values, supported_tail(len(values)))


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def end_to_end_result(values: dict[str, float]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the end-to-end metrics."""
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END
    }


def per_layer_result(values: dict[str, float]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the per-layer metrics.

    A layer the workload never enters did no work: its metrics read 0.
    """
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in PER_LAYER
    }
