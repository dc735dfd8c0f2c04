"""Tests for input-drift detection."""

import numpy as np
import pytest

from repro.data import Vocab
from repro.monitoring import detect_drift, js_divergence

from tests.fixtures import mini_dataset


def payloads(records):
    """A drift window: each record's payload mapping."""
    return [r.payloads for r in records]


class TestJSDivergence:
    def test_identical_is_zero(self):
        p = np.array([0.5, 0.3, 0.2])
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_is_ln2(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert js_divergence(p, q) == pytest.approx(np.log(2))

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        p, q = rng.random(5), rng.random(5)
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p))

    def test_unnormalized_inputs_accepted(self):
        p = np.array([5.0, 3.0, 2.0])
        q = np.array([50.0, 30.0, 20.0])
        assert js_divergence(p, q) == pytest.approx(0.0, abs=1e-12)


class TestDetectDrift:
    def test_same_distribution_no_drift(self):
        ds = mini_dataset(n=100, seed=0)
        vocab = ds.build_vocabs()["tokens"]
        half = len(ds.records) // 2
        window = payloads(ds.records)
        report = detect_drift(window[:half], window[half:], vocab)
        assert not report.drifted()
        assert report.token_js_divergence < 0.1

    def test_vocabulary_shift_detected(self):
        ds = mini_dataset(n=60, seed=1)
        vocab = ds.build_vocabs()["tokens"]
        live = mini_dataset(n=60, seed=2)
        for record in live.records:
            record.payloads["tokens"] = [
                f"{t}_new" for t in record.payloads["tokens"]
            ]
        report = detect_drift(payloads(ds.records), payloads(live.records), vocab)
        assert report.drifted()
        assert report.oov_rate_live > 0.9
        assert report.novel_token_fraction > 0.9

    def test_length_stats(self):
        ds = mini_dataset(n=30, seed=3)
        vocab = ds.build_vocabs()["tokens"]
        live = mini_dataset(n=30, seed=4)
        for record in live.records:
            record.payloads["tokens"] = record.payloads["tokens"] * 2
        report = detect_drift(payloads(ds.records), payloads(live.records), vocab)
        assert report.mean_length_live > report.mean_length_reference * 1.5

    def test_empty_windows(self):
        report = detect_drift([], [], Vocab())
        assert report.token_js_divergence == 0.0
        assert not report.drifted()


class TestThresholdFlow:
    """Policy-set thresholds ride on the report instead of the call site."""

    def test_detect_drift_stores_thresholds(self):
        ds = mini_dataset(n=40, seed=0)
        vocab = ds.build_vocabs()["tokens"]
        window = payloads(ds.records)
        report = detect_drift(
            window, window, vocab, js_threshold=0.3, oov_threshold=0.2
        )
        assert report.js_threshold == 0.3
        assert report.oov_jump_threshold == 0.2

    def test_stored_thresholds_decide_drifted(self):
        ds = mini_dataset(n=40, seed=0)
        vocab = ds.build_vocabs()["tokens"]
        live = mini_dataset(n=40, seed=5)
        for record in live.records:
            record.payloads["tokens"] = [
                f"{t}_new" for t in record.payloads["tokens"]
            ]
        strict = detect_drift(payloads(ds.records), payloads(live.records), vocab)
        lax = detect_drift(
            payloads(ds.records),
            payloads(live.records),
            vocab,
            js_threshold=np.log(2) + 1,
            oov_threshold=1.0,
        )
        assert strict.drifted()
        assert not lax.drifted()
        # Explicit arguments still override the stored thresholds.
        assert lax.drifted(js_threshold=0.01)

    def test_ring_forwards_thresholds(self):
        from repro.serve import TelemetryRing

        ds = mini_dataset(n=40, seed=0)
        vocab = ds.build_vocabs()["tokens"]
        ring = TelemetryRing(payload_sample_every=1)
        for i in range(10):
            ring.record_payloads([{"tokens": [f"novel_{i}"]}])
        report = ring.drift_report(
            ds.records, vocab, js_threshold=0.42, oov_threshold=0.9
        )
        assert report.js_threshold == 0.42
        assert report.oov_jump_threshold == 0.9

    def test_to_dict_is_json_ready(self):
        import json

        ds = mini_dataset(n=20, seed=0)
        vocab = ds.build_vocabs()["tokens"]
        report = detect_drift(payloads(ds.records), payloads(ds.records), vocab)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["drifted"] is False
        assert payload["oov_jump"] == 0.0


class TestLiveWindows:
    """Serving-shaped windows: a gateway's live sample can be tiny."""

    def test_empty_live_window_against_real_reference(self):
        ds = mini_dataset(n=40, seed=0)
        vocab = ds.build_vocabs()["tokens"]
        report = detect_drift(payloads(ds.records), [], vocab)
        assert np.isfinite(report.token_js_divergence)
        assert report.oov_rate_live == 0.0
        assert report.mean_length_live == 0.0
        assert report.novel_token_fraction == 0.0

    def test_single_record_live_window(self):
        ds = mini_dataset(n=40, seed=0)
        vocab = ds.build_vocabs()["tokens"]
        report = detect_drift(payloads(ds.records), payloads(ds.records[:1]), vocab)
        assert np.isfinite(report.token_js_divergence)
        assert report.mean_length_live == len(ds.records[0].payloads["tokens"])
        assert not report.drifted(js_threshold=np.log(2))

    def test_single_novel_record_flags_oov(self):
        ds = mini_dataset(n=40, seed=0)
        vocab = ds.build_vocabs()["tokens"]
        live = [{"tokens": ["zyx", "wvu"]}]
        report = detect_drift(payloads(ds.records), live, vocab)
        assert report.oov_rate_live == 1.0
        assert report.novel_token_fraction == 1.0
        assert report.drifted()


class TestServeTelemetryRoundTrip:
    """The gateway's payload samples must feed straight into a DriftReport."""

    def test_telemetry_ring_to_drift_report(self):
        from repro.monitoring import DriftReport
        from repro.serve import TelemetryRing

        ds = mini_dataset(n=60, seed=0)
        vocab = ds.build_vocabs()["tokens"]
        ring = TelemetryRing(payload_sample_every=1)
        for record in ds.records[:30]:
            ring.record_payloads([{"tokens": record.payloads["tokens"]}])
        report = ring.drift_report(ds.records, vocab)
        assert isinstance(report, DriftReport)
        # Live traffic drawn from the training distribution: no drift.
        assert not report.drifted()
        assert report.oov_rate_live == 0.0

    def test_drifted_live_traffic_detected_from_telemetry(self):
        from repro.serve import TelemetryRing

        ds = mini_dataset(n=60, seed=0)
        vocab = ds.build_vocabs()["tokens"]
        ring = TelemetryRing(payload_sample_every=1)
        for i in range(30):
            ring.record_payloads([{"tokens": [f"novel_{i}", f"token_{i}"]}])
        report = ring.drift_report(ds.records, vocab)
        assert report.drifted()
        assert report.novel_token_fraction == 1.0
