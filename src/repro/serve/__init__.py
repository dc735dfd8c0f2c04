"""repro.serve: the production serving runtime.

The layer between "a request arrives" and "an :class:`repro.api.Endpoint`
answers it" — the paper's promise that serving code never changes as
models evolve (§1), operationalized:

* :class:`ServingGateway` — request queue, dynamic cross-request
  micro-batching (size-or-deadline), lane workers, live telemetry;
* :class:`ReplicaPool` — large/small model tiers routed by per-request
  latency budget, wired to the store's synchronized pairs (§2.4); with
  ``workers=N`` its forwards run in N resident worker processes fed over
  shared-memory batch transport (``repro serve --workers N``,
  ``docs/serving.md``);
* :class:`RolloutController` — pin/latest plus canary fractions and
  shadow mirroring with disagreement recording;
* :class:`TelemetryRing` — each gateway's always-on ``repro_gateway_*``
  instruments (lifetime counts, bucket-estimated latency percentiles,
  batch sizes, sheds, breaker flips) and the sampled payloads that feed
  ``repro.monitoring``;
* :class:`CircuitBreaker` — per-tier failure domains: load shedding,
  healthy-tier degradation, half-open recovery (``docs/robustness.md``);
* :class:`AsyncGatewayServer` — the stdlib asyncio HTTP front
  (``repro serve``).
"""

from repro.serve.batcher import PendingResponse, QueuedRequest, RequestQueue
from repro.serve.breaker import BreakerPolicy, CircuitBreaker
from repro.serve.gateway import GatewayConfig, ServingGateway
from repro.serve.http import AsyncGatewayServer
from repro.serve.replica import Replica, ReplicaPool
from repro.serve.shm import SegmentCache, ShmArena
from repro.serve.rollout import (
    Disagreement,
    RolloutController,
    RolloutStatus,
    responses_agree,
)
from repro.serve.telemetry import RolloutEvent, TelemetryRing

# benchmarks/e2e/programs/traced_server.py still imports this name.
WorkerReplicaPool = ReplicaPool

__all__ = [
    "ServingGateway",
    "GatewayConfig",
    "AsyncGatewayServer",
    "WorkerReplicaPool",
    "ShmArena",
    "SegmentCache",
    "BreakerPolicy",
    "CircuitBreaker",
    "ReplicaPool",
    "Replica",
    "RolloutController",
    "RolloutStatus",
    "Disagreement",
    "responses_agree",
    "TelemetryRing",
    "RolloutEvent",
    "RequestQueue",
    "QueuedRequest",
    "PendingResponse",
]
