"""Gateway failure domains under injected faults: shed, isolate, degrade."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ServeOverloadError
from repro.faults import FaultPlan, FaultRule, injected, InjectedFault
from repro.serve import (
    AsyncGatewayServer,
    BreakerPolicy,
    GatewayConfig,
    ReplicaPool,
    ServingGateway,
)


def storm(*rules: FaultRule, seed: int = 0) -> FaultPlan:
    return FaultPlan(name="gateway-storm", seed=seed, rules=tuple(rules))


def stable_error(**kwargs) -> FaultRule:
    return FaultRule(
        point="replica.serve", match=(("role", "stable"),), **kwargs
    )


class TestQueueShedding:
    def test_full_queue_sheds_with_a_retryable_error(self, served, single_store):
        app, ds, run, payloads = served
        store, _ = single_store
        pool = ReplicaPool.from_store(store, app.name)
        config = GatewayConfig(
            max_batch_size=1, max_wait_s=0.0, max_queue_depth=2, breaker=None
        )
        slow = storm(
            stable_error(kind="latency", latency_s=0.1),
        )
        with injected(slow), ServingGateway(pool, config) as gateway:
            futures, shed = [], 0
            for payload in payloads[:12]:
                try:
                    futures.append(gateway.submit_async(payload))
                except ServeOverloadError as exc:
                    shed += 1
                    assert "retry" in str(exc)
            assert shed > 0, "twelve instant submits must overflow depth 2"
            for future in futures:  # accepted requests still get answers
                assert future.result(timeout=10)
            stats = gateway.stats()
            assert stats["sheds"]["default"]["queue_full"] == shed

    def test_unbounded_queue_never_sheds(self, served, single_store):
        app, ds, run, payloads = served
        store, _ = single_store
        pool = ReplicaPool.from_store(store, app.name)
        config = GatewayConfig(
            max_batch_size=1, max_wait_s=0.0, max_queue_depth=None, breaker=None
        )
        slow = storm(stable_error(kind="latency", latency_s=0.02))
        with injected(slow), ServingGateway(pool, config) as gateway:
            futures = [gateway.submit_async(p) for p in payloads[:8]]
            for future in futures:
                assert future.result(timeout=10)
            assert gateway.stats()["sheds"] == {}


class TestBatchIsolation:
    def test_poison_batch_fails_one_request_not_all(self, served, single_store):
        app, ds, run, payloads = served
        store, _ = single_store
        pool = ReplicaPool.from_store(store, app.name)
        # A long batching window coalesces the four requests into one
        # batch; the rule fires on the batch, then once more on the first
        # per-item retry — the other three must be salvaged.
        config = GatewayConfig(max_batch_size=8, max_wait_s=0.5, breaker=None)
        with injected(storm(stable_error(max_fires=2))) as injector:
            with ServingGateway(pool, config) as gateway:
                futures = [gateway.submit_async(p) for p in payloads[:4]]
                with pytest.raises(InjectedFault):
                    futures[0].result(timeout=10)
                for future in futures[1:]:
                    assert future.result(timeout=10)
        assert injector.fires("replica.serve") == 2

    def test_isolated_outcomes_feed_the_breaker(self, served, single_store):
        app, ds, run, payloads = served
        store, _ = single_store
        pool = ReplicaPool.from_store(store, app.name)
        config = GatewayConfig(
            max_batch_size=8,
            max_wait_s=0.5,
            breaker=BreakerPolicy(failure_threshold=5, reset_timeout_s=60.0),
        )
        with injected(storm(stable_error(max_fires=2))):
            with ServingGateway(pool, config) as gateway:
                futures = [gateway.submit_async(p) for p in payloads[:4]]
                results = []
                for future in futures:
                    try:
                        results.append(future.result(timeout=10))
                    except InjectedFault:
                        results.append(None)
                snapshot = gateway.stats()["breakers"]["default"]
        # Batch failure + one poison retry, then three salvaged successes:
        # the streak reset, the circuit never opened.
        assert snapshot["state"] == "closed"
        assert snapshot["consecutive_failures"] == 0
        assert sum(1 for r in results if r is None) == 1


class TestBreakerRouting:
    def test_open_circuit_degrades_to_the_healthy_tier(self, served, pair_store):
        app, ds, run, payloads = served
        store, _ = pair_store
        pool = ReplicaPool.from_store(store, app.name)
        assert pool.tier_order == ["large", "small"]
        # Route everything at the small tier via latency hints.
        pool.set_latency_hint("large", 10.0)
        pool.set_latency_hint("small", 0.0001)
        config = GatewayConfig(
            max_batch_size=1,
            max_wait_s=0.0,
            breaker=BreakerPolicy(failure_threshold=3, reset_timeout_s=60.0),
        )
        small_down = storm(
            FaultRule(
                point="replica.serve",
                match=(("tier", "small"), ("role", "stable")),
                max_fires=3,
            )
        )
        with injected(small_down), ServingGateway(pool, config) as gateway:
            for payload in payloads[:3]:
                with pytest.raises(InjectedFault):
                    gateway.submit(payload, latency_budget=0.01)
            stats = gateway.stats()
            assert stats["breakers"]["small"]["state"] == "open"
            assert stats["breakers"]["large"]["state"] == "closed"
            # The same budget now lands on the healthy large tier.
            response = gateway.submit(payloads[3], latency_budget=0.01)
            assert response
            flips = gateway.stats()["breaker_history"]
            assert [(f["tier"], f["from"], f["to"]) for f in flips] == [
                ("small", "closed", "open")
            ]

    def test_all_circuits_open_sheds_then_recovers_half_open(
        self, served, single_store
    ):
        app, ds, run, payloads = served
        store, _ = single_store
        pool = ReplicaPool.from_store(store, app.name)
        config = GatewayConfig(
            max_batch_size=1,
            max_wait_s=0.0,
            breaker=BreakerPolicy(
                failure_threshold=2, reset_timeout_s=0.05, half_open_successes=1
            ),
        )
        down = storm(stable_error(max_fires=2))
        with injected(down), ServingGateway(pool, config) as gateway:
            for payload in payloads[:2]:
                with pytest.raises(InjectedFault):
                    gateway.submit(payload)
            # Single tier, circuit open, nowhere to degrade: shed fast.
            with pytest.raises(ServeOverloadError, match="circuit is open"):
                gateway.submit(payloads[2])
            assert gateway.stats()["sheds"]["default"]["breaker"] == 1
            # After the reset timeout a probe is allowed through; the
            # fault is spent, so one clean serve closes the circuit.
            time.sleep(0.06)
            assert gateway.submit(payloads[3])
            stats = gateway.stats()
            assert stats["breakers"]["default"]["state"] == "closed"
            transitions = [
                (f["from"], f["to"]) for f in stats["breaker_history"]
            ]
            assert transitions == [
                ("closed", "open"),
                ("open", "half_open"),
                ("half_open", "closed"),
            ]


def post(url: str, body) -> tuple[int, dict, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestHTTPStatusMapping:
    def test_shed_is_503_with_retry_after(self, served, single_store):
        app, ds, run, payloads = served
        store, _ = single_store
        pool = ReplicaPool.from_store(store, app.name)
        config = GatewayConfig(
            max_batch_size=1,
            max_wait_s=0.0,
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout_s=60.0),
        )
        down = storm(stable_error(max_fires=1))
        with injected(down), ServingGateway(pool, config) as gateway:
            with AsyncGatewayServer(gateway, port=0) as http:
                status, body, _ = post(http.url + "/predict", payloads[0])
                assert status == 500  # the injected fault itself
                status, body, headers = post(http.url + "/predict", payloads[1])
                assert status == 503
                assert headers["Retry-After"] == "1"
                assert "circuit is open" in body["error"]

    def test_gateway_timeout_is_504(self, served, single_store):
        app, ds, run, payloads = served
        store, _ = single_store
        pool = ReplicaPool.from_store(store, app.name)
        config = GatewayConfig(
            max_batch_size=1,
            max_wait_s=0.0,
            request_timeout_s=0.05,
            breaker=None,
        )
        slow = storm(stable_error(kind="latency", latency_s=0.3, max_fires=1))
        with injected(slow), ServingGateway(pool, config) as gateway:
            with AsyncGatewayServer(gateway, port=0) as http:
                status, body, _ = post(http.url + "/predict", payloads[0])
                assert status == 504
                assert "not answered" in body["error"] or "timed out" in body["error"]
            gateway.drain(timeout=10)
