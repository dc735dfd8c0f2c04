"""Integration tests for the serving gateway: batching, tiers, rollout."""

import threading
import time

import pytest

from repro.api import Endpoint
from repro.errors import DataError, DeploymentError, ServeError
from repro.faults import FaultPlan, FaultRule, injected
from repro.serve import GatewayConfig, ReplicaPool, ServingGateway

from tests.helpers import python_calls


def hard_outputs(response: dict) -> dict:
    return {
        task: {k: v for k, v in result.items() if k in ("label", "labels", "index")}
        for task, result in response.items()
    }


def batch_sizes(gateway, tier="default") -> dict[int, int]:
    """Formed batches by size, read from the batch-size histogram."""
    histogram = gateway.telemetry.batch_size
    counts = histogram.value(tier=tier)["buckets"]
    return {int(b): n for b, n in zip(histogram.buckets, counts) if n}


def counted(gateway) -> int:
    """Every request the gateway has counted, any tier, role or result."""
    return int(sum(n for _, n in gateway.telemetry.requests.samples()))


def make_gateway(store, name="factoid-qa", **config_kwargs) -> ServingGateway:
    defaults = dict(max_batch_size=4, max_wait_s=0.05, payload_sample_every=1)
    defaults.update(config_kwargs)
    pool = ReplicaPool.from_store(store, name)
    return ServingGateway(pool, GatewayConfig(**defaults))


class TestServing:
    def test_single_request_matches_endpoint(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, _ = single_store
        endpoint = Endpoint.from_store(store, app.name, version=stable.version)
        with make_gateway(store) as gateway:
            for payload in payloads[:5]:
                assert hard_outputs(gateway.submit(payload)) == hard_outputs(
                    endpoint.predict(payload)
                )

    def test_no_record_is_built_from_submit_to_reply(
        self, served, single_store, monkeypatch
    ):
        """Serving reads payload mappings end to end: neither a gateway
        submit nor ``Endpoint.predict`` builds a :class:`Record`."""
        from repro.data import Record

        app, ds, run, payloads = served
        store, stable, _ = single_store
        endpoint = Endpoint.from_store(store, app.name, version=stable.version)
        built = []
        plain = Record.__init__

        def counting(self, *args, **kwargs):
            built.append(args or kwargs)
            plain(self, *args, **kwargs)

        with make_gateway(store) as gateway:
            monkeypatch.setattr(Record, "__init__", counting)
            assert "Intent" in gateway.submit(payloads[0])
            assert "Intent" in endpoint.predict(payloads[1])
        assert built == []

    def test_concurrent_requests_share_model_batches(self, served, single_store):
        app, ds, run, payloads = served
        store, *_ = single_store
        with make_gateway(store, max_batch_size=4, max_wait_s=0.2) as gateway:
            futures = [gateway.submit_async(p) for p in payloads[:12]]
            responses = [f.result(timeout=30) for f in futures]
            assert len(responses) == 12
            replica = gateway.pool.replica("default")
            # 12 requests from one burst filled 3 batches of 4 — the
            # cross-request amortization the gateway exists for.
            assert replica.requests_served == 12
            assert replica.batches_served == 3
            assert batch_sizes(gateway) == {4: 3}

    def test_lone_request_released_by_deadline(self, served, single_store):
        app, ds, run, payloads = served
        store, *_ = single_store
        with make_gateway(store, max_batch_size=64, max_wait_s=0.02) as gateway:
            response = gateway.submit(payloads[0])
            assert "Intent" in response
            assert batch_sizes(gateway) == {1: 1}

    def test_default_config_serves_a_lone_request_without_lingering(
        self, served, single_store
    ):
        app, ds, run, payloads = served
        store, *_ = single_store
        pool = ReplicaPool.from_store(store, app.name)
        with ServingGateway(pool) as gateway:
            gateway.submit(payloads[0])  # lane thread up, model warm
            waits = []
            for payload in payloads[1:6]:
                started = time.perf_counter()
                gateway.submit(payload)
                elapsed = time.perf_counter() - started
                waits.append(elapsed - pool.replica("default").ewma_latency_s)
        # Enqueue-to-answer is the serve itself plus hand-offs — nowhere
        # near a 5 ms batch deadline on top (best of five).
        assert min(waits) < 0.003

    def test_backlog_behind_a_busy_lane_leaves_as_full_batches(
        self, served, single_store
    ):
        app, ds, run, payloads = served
        store, *_ = single_store
        # The first batch stalls in the replica; everything submitted
        # meanwhile must accumulate and leave as full batches, unprompted
        # by any linger.
        stall = FaultPlan(
            name="busy-lane",
            seed=0,
            rules=(
                FaultRule(
                    point="replica.serve", kind="latency", latency_s=0.2, max_fires=1
                ),
            ),
        )
        with injected(stall), make_gateway(
            store, max_batch_size=4, max_wait_s=0.0
        ) as gateway:
            first = gateway.submit_async(payloads[0])
            time.sleep(0.05)  # the lane has popped it and is stalled
            futures = [gateway.submit_async(p) for p in payloads[1:9]]
            for future in [first, *futures]:
                future.result(timeout=30)
            sizes = batch_sizes(gateway)
        assert sizes == {1: 1, 4: 2}

    def test_telemetry_is_visible_as_soon_as_a_response_returns(
        self, served, single_store
    ):
        app, ds, run, payloads = served
        store, *_ = single_store
        with make_gateway(store, max_batch_size=8, max_wait_s=0.0) as gateway:
            seen = []
            futures = [gateway.submit_async(p) for p in payloads[:16]]
            for n, future in enumerate(futures, start=1):
                future.on_done(
                    # Runs on the lane thread at the instant of settling.
                    lambda _f: seen.append(
                        (
                            counted(gateway),
                            gateway.rollout.status().stable_served,
                        )
                    )
                )
            for future in futures:
                future.result(timeout=30)
            gateway.drain(timeout=10)
        # Whenever a caller holds response k, at least k requests are
        # already counted in the metrics and in the rollout counters.
        assert len(seen) == 16
        for k, (recorded, served_count) in enumerate(sorted(seen), start=1):
            assert recorded >= k and served_count >= k

    def test_validation_fails_fast_in_caller(self, served, single_store):
        app, ds, run, payloads = served
        store, *_ = single_store
        with make_gateway(store) as gateway:
            with pytest.raises(DeploymentError, match="unknown payloads"):
                gateway.submit({"bogus": [1]})
            # Nothing was queued or served.
            assert gateway.stats()["telemetry"]["total_requests"] == 0

    def test_schema_violations_fail_fast_in_caller(self, served, single_store):
        app, ds, run, payloads = served
        store, *_ = single_store
        with make_gateway(store) as gateway:
            with pytest.raises(DataError, match="'entities' has 5 members"):
                gateway.submit(dict(payloads[0], entities=[{}] * 5))
            assert gateway.stats()["telemetry"]["total_requests"] == 0

    def test_admit_first_queues_at_the_outer_block_end_or_never(
        self, served, single_store
    ):
        """Submissions inside ``admit_first`` are admitted at once and
        queued when the outermost block ends; a block that raises queues
        none of them."""
        app, ds, run, payloads = served
        store, *_ = single_store
        with make_gateway(store, max_wait_s=0.0) as gateway:
            replica = gateway.pool.replica("default")
            with gateway.admit_first():
                first = gateway.submit_async(payloads[0])
                with gateway.admit_first():
                    second = gateway.submit_async(payloads[1])
                assert gateway._inflight == 0
            assert first.result(timeout=30) and second.result(timeout=30)
            served_before = replica.requests_served
            with pytest.raises(DataError, match="'entities' has 5 members"):
                with gateway.admit_first():
                    gateway.submit_async(payloads[2])
                    gateway.submit_async(dict(payloads[0], entities=[{}] * 5))
            # The lane is FIFO: a queued payloads[2] would be served first.
            assert gateway.submit(payloads[3])
            assert replica.requests_served == served_before + 1

    def test_submits_build_no_condition(self, served, single_store):
        """A future is one lock and a flag: 64 submits construct no
        ``threading.Condition`` (an Event per future built one, and the
        asyncio front never waits on it)."""
        app, ds, run, payloads = served
        store, *_ = single_store
        bulk = (payloads * 4)[:64]
        with make_gateway(store, max_batch_size=32, max_wait_s=0.0) as gateway:
            gateway.submit(payloads[0])  # the lane and its threads exist

            def submit_bulk():
                futures.extend(gateway.submit_async(p) for p in bulk)

            futures: list = []
            assert python_calls(submit_bulk, of=threading.Condition.__init__) == 0
            assert len([f.result(timeout=30) for f in futures]) == 64

    def test_stopped_gateway_rejects_requests(self, served, single_store):
        app, ds, run, payloads = served
        store, *_ = single_store
        gateway = make_gateway(store)
        gateway.submit(payloads[0])
        gateway.stop()
        with pytest.raises(ServeError, match="stopped"):
            gateway.submit(payloads[0])


class TestTierRouting:
    def test_budget_selects_tier(self, served, pair_store):
        app, ds, run, payloads = served
        store, pushed = pair_store
        pool = ReplicaPool.from_store(store, app.name)
        assert pool.tier_order == ["large", "small"]  # by parameter count
        pool.set_latency_hint("large", 0.050)
        pool.set_latency_hint("small", 0.001)
        with ServingGateway(
            pool, GatewayConfig(max_batch_size=4, max_wait_s=0.01)
        ) as gateway:
            def per_tier():
                return tuple(
                    gateway.telemetry.requests.value(
                        tier=tier, role="stable", result="ok"
                    )
                    for tier in ("small", "large")
                )

            gateway.submit(payloads[0], latency_budget=0.005)  # only small fits
            assert per_tier() == (1, 0)
            gateway.submit(payloads[1], latency_budget=10.0)  # large fits
            assert per_tier() == (1, 1)
            gateway.submit(payloads[2])  # no budget -> most capable
            assert per_tier() == (1, 2)

    def test_impossible_budget_degrades_to_cheapest(self, served, pair_store):
        app, ds, run, payloads = served
        store, _ = pair_store
        pool = ReplicaPool.from_store(store, app.name)
        pool.set_latency_hint("large", 0.050)
        pool.set_latency_hint("small", 0.010)
        assert pool.tier_for(1e-9) == "small"

    def test_measured_latency_overrides_hints(self, served, pair_store):
        app, ds, run, payloads = served
        store, _ = pair_store
        pool = ReplicaPool.from_store(store, app.name)
        pool.set_latency_hint("large", 1000.0)
        estimates = pool.warmup(payloads[:4])
        assert set(estimates) == {"large", "small"}
        # The warmup measurement replaced the absurd hint.
        assert pool.latency_estimate("large") < 10.0

    def test_pair_versions_visible(self, served, pair_store):
        app, ds, run, payloads = served
        store, pushed = pair_store
        pool = ReplicaPool.from_store(store, app.name)
        versions = pool.versions()
        assert versions["large"]["stable"] == pushed.large.version
        assert versions["small"]["stable"] == pushed.small.version


class TestCanary:
    def test_fraction_routes_candidate_traffic(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        with make_gateway(store) as gateway:
            gateway.set_canary(candidate.version, fraction=0.5)
            for i in range(60):
                gateway.submit(payloads[i % len(payloads)], request_id=f"q{i}")
            roles = gateway.telemetry.snapshot()["roles"]
            assert 15 <= roles.get("canary", 0) <= 45
            assert roles.get("canary", 0) + roles.get("stable", 0) == 60
            status = gateway.rollout.status()
            assert status.canary_served == roles["canary"]
            # The canary lane really served the candidate version.
            candidate_replica = gateway.pool.replica("default", "candidate")
            assert candidate_replica.version == candidate.version
            assert candidate_replica.requests_served == roles["canary"]

    def test_canary_without_candidate_falls_back_to_stable(
        self, served, single_store
    ):
        app, ds, run, payloads = served
        store, *_ = single_store
        with make_gateway(store) as gateway:
            gateway.rollout.start_canary(1.0)  # no candidate loaded
            gateway.submit(payloads[0])
            assert gateway.telemetry.snapshot()["roles"] == {"stable": 1}

    def test_promote_moves_stable_and_store_latest(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        with make_gateway(store) as gateway:
            gateway.set_canary(candidate.version, fraction=0.25)
            gateway.submit(payloads[0])
            promoted = gateway.promote_canary(set_latest=True)
            assert promoted == {"default": candidate.version}
            assert store.latest_version(app.name) == candidate.version
            assert gateway.pool.versions()["default"] == {
                "stable": candidate.version
            }
            assert not gateway.rollout.active
            # Serving continues on the promoted version.
            assert "Intent" in gateway.submit(payloads[1])
        # Leave the shared store as the fixture promised it.
        store.set_latest(app.name, stable.version)

    def test_cancel_canary_drops_candidate(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        with make_gateway(store) as gateway:
            gateway.set_canary(candidate.version, fraction=1.0)
            gateway.submit(payloads[0], request_id="canary-bound")
            gateway.cancel_canary()
            assert not gateway.pool.has_candidate()
            gateway.submit(payloads[1], request_id="canary-bound-2")
            assert gateway.telemetry.snapshot()["roles"]["stable"] == 1

    def test_promote_without_candidate_raises(self, served, single_store):
        app, ds, run, payloads = served
        store, *_ = single_store
        with make_gateway(store) as gateway:
            with pytest.raises(ServeError, match="no candidate"):
                gateway.promote_canary()


class TestShadow:
    def test_shadow_mirrors_all_stable_traffic(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        with make_gateway(store) as gateway:
            gateway.set_shadow(candidate.version)
            for i, payload in enumerate(payloads[:10]):
                gateway.submit(payload, request_id=f"s{i}")
            gateway.drain()
            status = gateway.rollout.status()
            assert status.shadow_served == 10
            roles = gateway.telemetry.snapshot()["roles"]
            assert roles["stable"] == 10
            assert roles["shadow"] == 10

    def test_shadow_disagreements_recorded_with_examples(
        self, served, single_store
    ):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        with make_gateway(store) as gateway:
            gateway.set_shadow(candidate.version)
            # Force disagreement on every request: wrap the candidate so its
            # hard Intent label is always off-vocabulary.
            replica = gateway.pool.replica("default", "candidate")
            inner = replica.endpoint

            class Disagreeable:
                def __getattr__(self, name):
                    return getattr(inner, name)

                def finalize_outputs(self, outputs, payloads):
                    responses = inner.finalize_outputs(outputs, payloads)
                    return [
                        {**r, "Intent": {**r["Intent"], "label": "__flipped__"}}
                        for r in responses
                    ]

            replica.endpoint = Disagreeable()
            for i, payload in enumerate(payloads[:6]):
                gateway.submit(payload, request_id=f"d{i}")
            gateway.drain()
            status = gateway.rollout.status()
            assert status.shadow_served == 6
            assert status.shadow_disagreements == 6
            assert status.disagreement_rate == pytest.approx(1.0)
            example = gateway.rollout.disagreement_examples()[0]
            assert example.candidate["Intent"]["label"] == "__flipped__"
            assert example.stable["Intent"]["label"] != "__flipped__"

    def test_shadow_never_affects_responses(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        endpoint = Endpoint.from_store(store, app.name, version=stable.version)
        with make_gateway(store) as gateway:
            gateway.set_shadow(candidate.version)
            for payload in payloads[:5]:
                assert hard_outputs(gateway.submit(payload)) == hard_outputs(
                    endpoint.predict(payload)
                )
            gateway.drain()


class TestRolloutHistory:
    def test_lifecycle_actions_recorded(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        with make_gateway(store) as gateway:
            gateway.set_canary(candidate.version, fraction=0.5)
            gateway.cancel_canary()
            gateway.set_shadow(candidate.version)
            gateway.cancel_canary()
            events = gateway.telemetry.rollout_events()
            assert [e.action for e in events] == [
                "set_canary",
                "cancel",
                "set_shadow",
                "cancel",
            ]
            assert events[0].detail["fraction"] == 0.5
            assert candidate.version in events[2].detail["versions"]
            # The same trail rides along in stats() for dashboards.
            history = gateway.stats()["rollout_history"]
            assert [h["action"] for h in history] == [e.action for e in events]

    def test_promote_records_versions_and_latest_flag(
        self, served, single_store
    ):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        with make_gateway(store) as gateway:
            gateway.set_shadow(candidate.version)
            gateway.promote_canary(set_latest=False)
            promote = gateway.telemetry.rollout_events()[-1]
            assert promote.action == "promote"
            assert promote.detail["versions"] == {"default": candidate.version}
            assert promote.detail["set_latest"] is False
        # set_latest=False: the store pointer never moved.
        assert store.latest_version(app.name) == stable.version

    def test_poll_store_records_refresh_only_on_change(
        self, served, single_store
    ):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        with make_gateway(store) as gateway:
            gateway.poll_store()  # nothing changed
            assert gateway.telemetry.rollout_events() == []
            store.set_latest(app.name, candidate.version)
            try:
                gateway.poll_store()
                [event] = gateway.telemetry.rollout_events()
                assert event.action == "refresh"
                assert event.detail["tiers"] == ["default"]
            finally:
                store.set_latest(app.name, stable.version)
                gateway.poll_store()


class TestStorePolling:
    def test_poll_store_follows_promotions(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        with make_gateway(store) as gateway:
            assert gateway.poll_store() == {"default": False}
            store.set_latest(app.name, candidate.version)
            try:
                assert gateway.poll_store() == {"default": True}
                assert gateway.pool.versions()["default"]["stable"] == (
                    candidate.version
                )
                assert "Intent" in gateway.submit(payloads[0])
            finally:
                store.set_latest(app.name, stable.version)

    def test_stats_shape(self, served, single_store):
        app, ds, run, payloads = served
        store, *_ = single_store
        with make_gateway(store) as gateway:
            gateway.submit(payloads[0])
            stats = gateway.stats()
            assert stats["telemetry"]["total_requests"] == 1
            assert stats["versions"]["default"]["stable"]
            assert stats["tier_order"] == ["default"]
            assert "rollout" in stats and "latency_estimates_s" in stats
            assert "default" in gateway.dashboard()
