"""Tests for the telemetry ring buffer and its snapshots."""

import pytest

from repro.serve import RequestEvent, TelemetryRing


def event(i: int, tier: str = "default", role: str = "stable", **kwargs) -> RequestEvent:
    defaults = dict(
        at=float(i),
        tier=tier,
        role=role,
        latency_s=0.010 * (i % 5 + 1),
        batch_size=4,
    )
    defaults.update(kwargs)
    return RequestEvent(**defaults)


class TestRing:
    def test_capacity_evicts_oldest(self):
        ring = TelemetryRing(capacity=8)
        for i in range(20):
            ring.record(event(i))
        assert len(ring) == 8
        assert ring.recorded_total == 20
        assert min(e.at for e in ring.events()) == 12.0

    def test_payload_sampling_every_nth(self):
        ring = TelemetryRing(capacity=64, payload_sample_every=4)
        for i in range(16):
            ring.record(event(i), payload={"tokens": [f"t{i}"]})
        samples = ring.payload_samples()
        assert len(samples) == 4
        assert samples[0] == {"tokens": ["t3"]}

    @pytest.mark.parametrize("every", [1, 3, 8])
    def test_record_many_equals_one_at_a_time(self, every):
        kwargs = dict(capacity=32, payload_sample_every=every, payload_capacity=6)
        one, many = TelemetryRing(**kwargs), TelemetryRing(**kwargs)
        events = [event(i) for i in range(50)]
        payloads = [{"tokens": [f"t{i}"]} for i in range(50)]
        for e, p in zip(events, payloads):
            one.record(e, payload=p)
        # Uneven batches (an empty and a payload-less one among them) so
        # the sampling cadence has to carry across batch boundaries.
        start = 0
        for size in (1, 7, 0, 2, 13, 5, 22):
            many.record_many(events[start:start + size], payloads[start:start + size])
            start += size
        assert start == 50
        assert many.events() == one.events()
        assert many.recorded_total == one.recorded_total == 50
        assert many.payload_samples() == one.payload_samples()
        one.record(event(50))
        many.record_many([event(50)], None)
        one.record(event(51), payload={"tokens": ["last"]})
        many.record_many([event(51)], [{"tokens": ["last"]}])
        assert many.events() == one.events()
        assert many.payload_samples() == one.payload_samples()

    def test_live_records_wrap_payloads(self):
        ring = TelemetryRing(payload_sample_every=1)
        ring.record(event(0), payload={"tokens": ["how", "tall"]})
        records = ring.live_records()
        assert len(records) == 1
        assert records[0].payloads["tokens"] == ["how", "tall"]


class TestSnapshot:
    def test_empty_snapshot(self):
        snap = TelemetryRing().snapshot()
        assert snap.total_requests == 0
        assert snap.requests_per_s == 0.0
        assert snap.tiers == {}

    def test_per_tier_percentiles(self):
        ring = TelemetryRing()
        for i in range(100):
            ring.record(event(i, tier="small", latency_s=0.001))
        for i in range(50):
            ring.record(event(i, tier="large", latency_s=0.1))
        snap = ring.snapshot()
        assert set(snap.tiers) == {"small", "large"}
        assert snap.tiers["small"].count == 100
        assert snap.tiers["small"].p95_s == pytest.approx(0.001)
        assert snap.tiers["large"].p50_s == pytest.approx(0.1)

    def test_single_event_reports_zero_throughput(self):
        # Regression: a one-event window used to divide by an epsilon and
        # claim ~1e9 requests/s; a zero-width window must report 0.0.
        ring = TelemetryRing()
        ring.record(event(0, at=5.0))
        snap = ring.snapshot()
        assert snap.total_requests == 1
        assert snap.window_s == 0.0
        assert snap.requests_per_s == 0.0

    def test_identical_timestamps_report_zero_throughput(self):
        ring = TelemetryRing()
        for i in range(4):
            ring.record(event(i, at=7.0))
        snap = ring.snapshot()
        assert snap.total_requests == 4
        assert snap.window_s == 0.0
        assert snap.requests_per_s == 0.0

    def test_throughput_over_window(self):
        ring = TelemetryRing()
        for i in range(11):
            ring.record(event(0, at=float(i)))  # 11 events over 10 seconds
        snap = ring.snapshot()
        assert snap.window_s == pytest.approx(10.0)
        assert snap.requests_per_s == pytest.approx(1.1)

    def test_roles_errors_and_fill_rate(self):
        ring = TelemetryRing()
        for i in range(6):
            ring.record(event(i, role="stable", batch_size=8))
        for i in range(2):
            ring.record(event(i, role="canary", batch_size=8))
        ring.record(event(0, role="shadow", batch_size=8, ok=False))
        snap = ring.snapshot(max_batch_size=16)
        assert snap.roles == {"stable": 6, "canary": 2, "shadow": 1}
        assert snap.errors == 1
        assert snap.batch_fill_rate == pytest.approx(0.5)

    def test_snapshot_to_dict_is_jsonable(self):
        import json

        ring = TelemetryRing()
        ring.record(event(0))
        assert json.loads(json.dumps(ring.snapshot(8).to_dict()))


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
        import json

        ring = TelemetryRing()
        ring.record_rollout("cancel", tier="default")
        payload = json.loads(json.dumps(ring.rollout_events()[0].to_dict()))
        assert payload["action"] == "cancel"
        assert payload["detail"] == {"tier": "default"}

    def test_clear_payload_samples(self):
        ring = TelemetryRing(payload_sample_every=1)
        for i in range(5):
            ring.record(event(i), payload={"tokens": [f"t{i}"]})
        assert ring.clear_payload_samples() == 5
        assert ring.payload_samples() == []
        # Request events survive; only the drift-evidence window resets.
        assert len(ring) == 5
        assert ring.clear_payload_samples() == 0

    def test_render_shows_rollout_history(self):
        ring = TelemetryRing()
        ring.record_rollout("set_shadow")
        ring.record_rollout("promote")
        text = ring.render()
        assert "rollout history (2): set_shadow  promote" in text


class TestRender:
    def test_render_contains_tier_table(self):
        ring = TelemetryRing()
        for i in range(5):
            ring.record(event(i, tier="small"))
        text = ring.render(max_batch_size=8)
        assert "small" in text
        assert "p95_ms" in text
        assert "batch fill rate" in text

    def test_render_empty_ring(self):
        assert "requests: 0" in TelemetryRing().render()
