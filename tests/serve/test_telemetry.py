"""Tests for the telemetry ring: its instruments, views and payload window."""

import json
import time

import pytest

from repro.serve import TelemetryRing
from repro.serve.telemetry import LATENCY_BUCKETS

# A bucket-interpolated percentile lies within one bucket of the truth.
STEP = 2**0.25


def serve(ring: TelemetryRing, n: int, tier="default", role="stable",
          result="ok", latency_s=0.010, batch_size=4) -> None:
    """Record ``n`` requests answered in batches of ``batch_size``."""
    ring.requests.inc(n, tier=tier, role=role, result=result)
    ring.latency.observe_many([latency_s] * n, tier=tier)
    for _ in range(n // batch_size):
        ring.batch_size.observe(batch_size, tier=tier)


class TestRing:
    def test_payload_sampling_every_nth(self):
        ring = TelemetryRing(payload_sample_every=4)
        for i in range(16):
            ring.record_payloads([{"tokens": [f"t{i}"]}])
        samples = ring.payload_samples()
        assert len(samples) == 4
        assert samples[0] == {"tokens": ["t3"]}

    @pytest.mark.parametrize("every", [1, 3, 8])
    def test_batches_sample_what_one_at_a_time_samples(self, every):
        one, many = TelemetryRing(every), TelemetryRing(every)
        payloads = [{"tokens": [f"t{i}"]} for i in range(50)]
        for p in payloads:
            one.record_payloads([p])
        # Uneven batches (an empty one among them) so the sampling
        # cadence has to carry across batch boundaries.
        start = 0
        for size in (1, 7, 0, 2, 13, 5, 22):
            many.record_payloads(payloads[start:start + size])
            start += size
        assert start == 50
        assert many.payload_samples() == one.payload_samples()
        one.record_payloads([{"tokens": ["last"]}])
        many.record_payloads([{"tokens": ["last"]}])
        assert many.payload_samples() == one.payload_samples()

    def test_payload_window_is_bounded(self):
        ring = TelemetryRing(payload_sample_every=1)
        ring.record_payloads([{"tokens": [f"t{i}"]} for i in range(600)])
        samples = ring.payload_samples()
        assert len(samples) == 512
        assert samples[0] == {"tokens": ["t88"]}

    def test_rings_do_not_share_instruments(self):
        a, b = TelemetryRing(), TelemetryRing()
        serve(a, 3)
        assert a.snapshot()["total_requests"] == 3
        assert b.snapshot()["total_requests"] == 0

    def test_latency_uses_the_fine_bucket_constant(self):
        ring = TelemetryRing()
        assert ring.latency.buckets == LATENCY_BUCKETS
        assert len(LATENCY_BUCKETS) == 72
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert LATENCY_BUCKETS[-1] == pytest.approx(1e-4 * STEP**71)


class TestSnapshot:
    def test_empty_snapshot(self):
        snap = TelemetryRing().snapshot()
        assert snap["total_requests"] == 0
        assert snap["requests_per_s"] == 0.0
        assert snap["tiers"] == {}
        assert snap["batch_fill_rate"] is None

    def test_per_tier_percentiles(self):
        ring = TelemetryRing()
        serve(ring, 100, tier="small", latency_s=0.001)
        serve(ring, 50, tier="large", latency_s=0.1)
        snap = ring.snapshot()
        assert set(snap["tiers"]) == {"small", "large"}
        assert snap["tiers"]["small"]["count"] == 100
        assert 0.001 / STEP < snap["tiers"]["small"]["p95_s"] <= 0.001 * STEP
        assert 0.1 / STEP < snap["tiers"]["large"]["p50_s"] <= 0.1 * STEP

    def test_window_is_uptime(self):
        ring = TelemetryRing()
        ring.started_at = time.monotonic() - 10.0
        serve(ring, 11)
        snap = ring.snapshot()
        assert snap["window_s"] == pytest.approx(10.0, abs=0.5)
        assert snap["requests_per_s"] == pytest.approx(1.1, rel=0.05)

    def test_roles_errors_and_fill_rate(self):
        ring = TelemetryRing()
        serve(ring, 8, role="stable", batch_size=8)
        serve(ring, 8, role="canary", batch_size=8)
        serve(ring, 1, role="shadow", result="error", batch_size=1)
        snap = ring.snapshot(max_batch_size=16)
        assert snap["roles"] == {"stable": 8, "canary": 8, "shadow": 1}
        assert snap["errors"] == 1
        # Per formed batch: (8 + 8 + 1) / 3 batches, over a max of 16.
        assert snap["tiers"]["default"]["mean_batch"] == pytest.approx(17 / 3)
        assert snap["batch_fill_rate"] == pytest.approx(17 / 3 / 16)

    def test_dtype_comes_from_the_caller(self):
        ring = TelemetryRing()
        serve(ring, 4)
        assert ring.snapshot()["tiers"]["default"]["dtype"] == "float64"
        snap = ring.snapshot(dtypes={"default": "float32"})
        assert snap["tiers"]["default"]["dtype"] == "float32"

    def test_snapshot_is_jsonable(self):
        ring = TelemetryRing()
        serve(ring, 1, batch_size=1)
        assert json.loads(json.dumps(ring.snapshot(8)))

    def test_sheds_by_tier_and_reason(self):
        ring = TelemetryRing()
        ring.shed.inc(tier="small", reason="queue_full")
        ring.shed.inc(tier="small", reason="queue_full")
        ring.shed.inc(tier="large", reason="breaker")
        assert ring.sheds() == {
            "large": {"breaker": 1},
            "small": {"queue_full": 2},
        }


class TestRolloutEvents:
    def test_record_and_read_back(self):
        ring = TelemetryRing()
        ring.record_rollout("set_shadow", version="abc123")
        ring.record_rollout("promote", version="abc123", set_latest=True)
        events = ring.rollout_events()
        assert [e.action for e in events] == ["set_shadow", "promote"]
        assert events[0].detail == {"version": "abc123"}
        assert events[1].detail["set_latest"] is True

    def test_capacity_bounds_history(self):
        ring = TelemetryRing(rollout_capacity=3)
        for i in range(10):
            ring.record_rollout("refresh", seq=i)
        events = ring.rollout_events()
        assert len(events) == 3
        assert [e.detail["seq"] for e in events] == [7, 8, 9]

    def test_to_dict_is_jsonable(self):
        ring = TelemetryRing()
        ring.record_rollout("cancel", tier="default")
        payload = json.loads(json.dumps(ring.rollout_events()[0].to_dict()))
        assert payload["action"] == "cancel"
        assert payload["detail"] == {"tier": "default"}

    def test_clear_payload_samples(self):
        ring = TelemetryRing(payload_sample_every=1)
        serve(ring, 5)
        ring.record_payloads([{"tokens": [f"t{i}"]} for i in range(5)])
        assert ring.clear_payload_samples() == 5
        assert ring.payload_samples() == []
        # Request counts survive; only the drift-evidence window resets.
        assert ring.snapshot()["total_requests"] == 5
        assert ring.clear_payload_samples() == 0

    def test_breaker_flip_is_logged_and_counted(self):
        ring = TelemetryRing()
        ring.record_breaker("default", "closed", "open")
        [flip] = ring.breaker_events()
        assert (flip["tier"], flip["from"], flip["to"]) == ("default", "closed", "open")
        assert ring.breaker_flips.value(tier="default", to="open") == 1
        assert ring.breaker_state.value(tier="default") == 2

    def test_render_shows_rollout_history(self):
        ring = TelemetryRing()
        ring.record_rollout("set_shadow")
        ring.record_rollout("promote")
        text = ring.render()
        assert "rollout history (2): set_shadow  promote" in text


class TestRender:
    def test_render_contains_tier_table(self):
        ring = TelemetryRing()
        serve(ring, 5, tier="small")
        text = ring.render(max_batch_size=8, dtypes={"small": "float32"})
        assert "small" in text
        assert "p95_ms" in text
        assert "batch fill rate" in text
        assert "float32" in text

    def test_render_empty_ring(self):
        assert "requests: 0" in TelemetryRing().render()
