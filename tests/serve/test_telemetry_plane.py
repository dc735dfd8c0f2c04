"""One telemetry plane: ``/telemetry`` is a view over the gateway's metrics.

The gateway records each serving fact once, into the ``repro_gateway_*``
instruments of its own always-on registry.  ``GET /telemetry`` and
``GET /metrics`` read the same instruments, so their numbers must agree
with ``repro.obs`` switched off, and per-batch recording must stay per
batch.
"""

from __future__ import annotations

import json
import re
import time
import urllib.request
from collections import defaultdict

import pytest

from repro.errors import ServeOverloadError
from repro.faults import FaultPlan, FaultRule, InjectedFault, injected
from repro.obs.metrics import Counter, Histogram
from repro.serve import (
    AsyncGatewayServer,
    BreakerPolicy,
    GatewayConfig,
    ReplicaPool,
    ServingGateway,
    TelemetryRing,
)
from repro.serve.batcher import QueuedRequest, RequestQueue

from tests.helpers import obs_active, python_calls

_SAMPLE = re.compile(r"^(\w+)\{(.*)\} (\S+)$")


def stable_fault(**kwargs) -> FaultPlan:
    rule = FaultRule(point="replica.serve", match=(("role", "stable"),), **kwargs)
    return FaultPlan(name="plane", seed=0, rules=(rule,))


def mixed_traffic(gateway: ServingGateway, payloads, candidate) -> dict:
    """Canary, shadow, ok, a queue-full shed, a served error, a breaker shed."""
    gateway.set_canary(candidate.version, fraction=0.5, shadow=True)
    for i in range(12):
        gateway.submit(payloads[i % len(payloads)], request_id=f"q{i}")
    gateway.drain(timeout=30)
    gateway.cancel_canary()

    queue_full = 0
    with injected(stable_fault(kind="latency", latency_s=0.2, max_fires=1)):
        first = gateway.submit_async(payloads[0])
        time.sleep(0.05)  # the lane has popped it and is stalled
        accepted = [first]
        for payload in payloads[1:9]:
            try:
                accepted.append(gateway.submit_async(payload))
            except ServeOverloadError:
                queue_full += 1
        for future in accepted:
            future.result(timeout=30)

    with injected(stable_fault(max_fires=2)):
        for payload in payloads[:2]:
            with pytest.raises(InjectedFault):
                gateway.submit(payload)
        with pytest.raises(ServeOverloadError, match="circuit is open"):
            gateway.submit(payloads[2])
    gateway.drain(timeout=30)
    return {"queue_full": queue_full, "errors": 2, "breaker": 1}


def make_gateway(store, name: str) -> ServingGateway:
    config = GatewayConfig(
        max_batch_size=4,
        max_wait_s=0.0,
        max_queue_depth=2,
        breaker=BreakerPolicy(failure_threshold=2, reset_timeout_s=60.0),
    )
    return ServingGateway(ReplicaPool.from_store(store, name), config)


def get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


def metric_sums(text: str, name: str, by: tuple[str, ...]) -> dict:
    """Sum one family's samples in Prometheus text, grouped by ``by``."""
    sums: dict = defaultdict(float)
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None or match.group(1) != name:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(2)))
        sums[tuple(labels[k] for k in by)] += float(match.group(3))
    return dict(sums)


def key_tree(obj):
    """The JSON value with every leaf replaced by None: keys only."""
    if isinstance(obj, dict):
        return {k: key_tree(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [key_tree(v) for v in obj]
    return None


# The key tree of ``/telemetry`` after ``mixed_traffic``, as the event
# ring produced it before the ring became a view over the instruments.
EXPECTED_KEYS = {
    "uptime_s": None,
    "telemetry": {
        "total_requests": None,
        "window_s": None,
        "requests_per_s": None,
        "tiers": {
            "default": dict.fromkeys(
                ["tier", "count", "p50_s", "p95_s", "p99_s", "mean_batch", "dtype"]
            )
        },
        "roles": dict.fromkeys(["stable", "canary", "shadow"]),
        "errors": None,
        "batch_fill_rate": None,
    },
    "rollout": dict.fromkeys(
        ["canary_fraction", "shadow", "stable_served", "canary_served",
         "shadow_served", "shadow_disagreements", "disagreement_rate"]
    ),
    "versions": {"default": {"stable": None}},
    "dtypes": {"default": None},
    "tier_order": [None],
    "latency_estimates_s": {"default": None},
    "rollout_history": [
        {"at": None, "action": None,
         "detail": dict.fromkeys(["versions", "fraction", "shadow"])},
        {"at": None, "action": None, "detail": {}},
    ],
    "sheds": {"default": dict.fromkeys(["queue_full", "breaker"])},
    "breakers": {
        "default": dict.fromkeys(
            ["state", "consecutive_failures", "opens", "open_for_s"]
        )
    },
    "breaker_history": [dict.fromkeys(["at", "tier", "from", "to"])],
    "workers": [],
}


@pytest.fixture()
def traffic(served, single_store):
    app, ds, run, payloads = served
    store, stable, candidate = single_store
    assert not obs_active()
    with make_gateway(store, app.name) as gateway, AsyncGatewayServer(
        gateway, port=0
    ) as http:
        expected = mixed_traffic(gateway, payloads, candidate)
        telemetry = json.loads(get(http.url + "/telemetry"))
        metrics = get(http.url + "/metrics").decode("utf-8")
        yield gateway, expected, telemetry, metrics


class TestOnePlane:
    def test_telemetry_equals_the_metrics_it_views(self, traffic):
        gateway, expected, telemetry, metrics = traffic
        requests = "repro_gateway_requests_total"
        by_role = metric_sums(metrics, requests, ("role",))
        by_result = metric_sums(metrics, requests, ("result",))
        by_tier = metric_sums(metrics, requests, ("tier",))
        sheds = metric_sums(metrics, "repro_gateway_shed_total", ("tier", "reason"))
        view = telemetry["telemetry"]
        assert view["roles"] == {role: n for (role,), n in by_role.items()}
        assert view["errors"] == by_result[("error",)] == expected["errors"]
        assert {t: s["count"] for t, s in view["tiers"].items()} == {
            tier: n for (tier,), n in by_tier.items()
        }
        assert view["total_requests"] == sum(by_tier.values())
        assert telemetry["sheds"] == {
            "default": {reason: n for (_, reason), n in sheds.items()}
        }
        assert telemetry["sheds"]["default"] == {
            "queue_full": expected["queue_full"],
            "breaker": expected["breaker"],
        }
        assert expected["queue_full"] > 0
        assert {"stable", "canary", "shadow"} <= set(view["roles"])
        assert view["roles"]["shadow"] == gateway.rollout.status().shadow_served
        flips = metric_sums(
            metrics, "repro_gateway_breaker_transitions_total", ("to",)
        )
        assert flips == {("open",): 1.0}
        assert len(telemetry["breaker_history"]) == 1

    def test_telemetry_keys_are_unchanged(self, traffic):
        _, _, telemetry, _ = traffic
        assert key_tree(telemetry) == EXPECTED_KEYS


def queue_of(payloads, n: int):
    """A closed lane queue holding ``n`` requests: a worker drains it and exits."""
    queue = RequestQueue()
    for i in range(n):
        queue.put(QueuedRequest(payloads[i % len(payloads)], f"r{i}"))
    queue.close()
    return queue


class TestPerBatchRecording:
    @pytest.mark.parametrize("batch_size", [1, 32])
    @pytest.mark.parametrize(
        "fn", [Histogram.observe_many, Counter.inc, TelemetryRing.record_payloads]
    )
    def test_one_call_per_resolved_batch(
        self, served, single_store, batch_size, fn
    ):
        app, ds, run, payloads = served
        store, *_ = single_store
        pool = ReplicaPool.from_store(store, app.name)
        config = GatewayConfig(max_batch_size=batch_size, breaker=None)
        with ServingGateway(pool, config) as gateway:
            lane = gateway._lane("default", "stable")
            lane.queue.close()  # the lane's own thread exits; this one serves
            lane.join(timeout=10)
            lane.queue = queue_of(payloads, 3 * batch_size)
            # Three full batches, worked in this thread so the profiler
            # sees every call the worker loop makes.
            assert python_calls(gateway._worker, lane, of=fn) == 3
            assert lane.replica.batches_served == 3
            count = gateway.telemetry.requests.value(
                tier="default", role="stable", result="ok"
            )
            assert count == 3 * batch_size
