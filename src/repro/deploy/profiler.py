"""Serving-latency profiling and SLA checks.

"A benefit of this compilation approach is that Overton can use standard
toolkits ... to meet service-level agreements (Profilers)" and "the small
model must meet SLA requirements" (§2.4).  The profiler measures an
:class:`~repro.api.Endpoint`'s request latency distribution and gates
deployment on an SLA.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.api.endpoint import Endpoint
from repro.errors import DeploymentError
from repro.obs import get_tracer


@dataclass(frozen=True)
class LatencyProfile:
    """Latency distribution over profiled requests (seconds)."""

    n_requests: int
    p50: float
    p95: float
    p99: float
    mean: float
    throughput_rps: float

    def to_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "mean": self.mean,
            "throughput_rps": self.throughput_rps,
        }


@dataclass(frozen=True)
class SLA:
    """A latency service-level agreement."""

    p95_seconds: float
    p99_seconds: float | None = None

    def check(self, profile: LatencyProfile) -> list[str]:
        """Return violations (empty list = SLA met)."""
        violations = []
        if profile.p95 > self.p95_seconds:
            violations.append(
                f"p95 {profile.p95 * 1000:.1f}ms exceeds SLA "
                f"{self.p95_seconds * 1000:.1f}ms"
            )
        if self.p99_seconds is not None and profile.p99 > self.p99_seconds:
            violations.append(
                f"p99 {profile.p99 * 1000:.1f}ms exceeds SLA "
                f"{self.p99_seconds * 1000:.1f}ms"
            )
        return violations


def profile_predictor(
    endpoint: Endpoint,
    payloads: Sequence[dict],
    warmup: int = 3,
) -> LatencyProfile:
    """Measure per-request latency, one request at a time (serving-style).

    When tracing is enabled the whole profile runs under one
    ``profile.run`` root span with a ``profile.request`` child per
    measured request, built from the *measured* timestamps — tracing
    reuses the profiler's own clock readings rather than adding its own,
    so span overhead never pollutes the profile.
    """
    if not payloads:
        raise DeploymentError("profiling requires at least one request payload")
    for payload in payloads[: min(warmup, len(payloads))]:
        endpoint.predict_one(payload)
    tracer = get_tracer()
    latencies = []
    with tracer.span("profile.run", root=True, n_requests=len(payloads)) as run:
        start_all = time.perf_counter()
        for i, payload in enumerate(payloads):
            start = time.perf_counter()
            endpoint.predict_one(payload)
            end = time.perf_counter()
            latencies.append(end - start)
            tracer.record(
                "profile.request", start, end, ctx=run.context, index=i
            )
        elapsed = time.perf_counter() - start_all
    latencies_arr = np.asarray(latencies)
    return LatencyProfile(
        n_requests=len(payloads),
        p50=float(np.percentile(latencies_arr, 50)),
        p95=float(np.percentile(latencies_arr, 95)),
        p99=float(np.percentile(latencies_arr, 99)),
        mean=float(latencies_arr.mean()),
        throughput_rps=len(payloads) / max(elapsed, 1e-9),
    )


def sla_gate(
    endpoint: Endpoint,
    payloads: Sequence[dict],
    sla: SLA,
) -> tuple[bool, LatencyProfile, list[str]]:
    """Profile and check in one call; returns (passed, profile, violations)."""
    profile = profile_predictor(endpoint, payloads)
    violations = sla.check(profile)
    return (not violations, profile, violations)
