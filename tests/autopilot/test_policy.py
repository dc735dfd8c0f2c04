"""Unit tests: policy serialization, trigger evaluation, gate checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autopilot import (
    DecisionJournal,
    DriftTrigger,
    HealPolicy,
    PromotionGate,
    RegressionTrigger,
    RetrainPlan,
    evaluate_drift_triggers,
    evaluate_gate,
    evaluate_regression_trigger,
)
from repro.data.record import Record
from repro.data.vocab import Vocab
from repro.errors import AutopilotError, TuningError
from repro.serve import TelemetryRing
from repro.training.reports import QualityReport, ReportRow


def report(rows) -> QualityReport:
    return QualityReport(
        rows=[
            ReportRow(tag=tag, task=task, n=n, metrics=metrics)
            for tag, task, n, metrics in rows
        ]
    )


class TestPolicySerialization:
    def test_round_trip(self):
        policy = HealPolicy(
            drift_triggers=(DriftTrigger(payload="tokens", js_threshold=0.2),),
            regression_trigger=RegressionTrigger(
                threshold=0.05, slices=("slice:hard",)
            ),
            min_live_window=10,
            cooldown_s=60.0,
            max_promotions=3,
            gate=PromotionGate(blocking_slices=("slice:hard",)),
        )
        rebuilt = HealPolicy.from_dict(policy.to_dict())
        assert rebuilt == policy

    def test_from_file(self, tmp_path):
        import json

        path = tmp_path / "policy.json"
        path.write_text(json.dumps(HealPolicy().to_dict()))
        assert HealPolicy.from_file(path) == HealPolicy()

    def test_from_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text("[]")
        with pytest.raises(AutopilotError):
            HealPolicy.from_file(path)

    def test_typo_in_a_retrain_candidate_is_rejected(self):
        # The candidate is a ModelConfig, so its own TuningError names it.
        spec = {"retrain": {"candidates": [{"trainr": {"epochs": 1}}]}}
        with pytest.raises(TuningError, match=r"RetrainPlan.candidates.*'trainr'"):
            HealPolicy.from_dict(spec)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"cooldown": 60}, "cooldown"),
            ({"gate": {"max_disagreement": 0.1}}, "max_disagreement"),
        ],
    )
    def test_unknown_keys_are_autopilot_errors(self, spec, key):
        with pytest.raises(AutopilotError, match=f"'{key}'"):
            HealPolicy.from_dict(spec)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_live_window": 0},
            {"cooldown_s": -1.0},
            {"max_promotions": -1},
        ],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(AutopilotError):
            HealPolicy(**kwargs)

    def test_gate_validation(self):
        with pytest.raises(AutopilotError):
            PromotionGate(max_disagreement_rate=1.5)
        with pytest.raises(AutopilotError):
            PromotionGate(min_shadow_requests=0)

    def test_trigger_validation(self):
        with pytest.raises(AutopilotError):
            DriftTrigger(js_threshold=-0.1)
        with pytest.raises(AutopilotError):
            RetrainPlan(workers=0)


class TestDriftTriggers:
    def ring_with(self, payloads) -> TelemetryRing:
        ring = TelemetryRing(payload_sample_every=1)
        for payload in payloads:
            ring.record_payloads([payload])
        return ring

    def reference(self):
        records = [
            Record(payloads={"tokens": ["how", "tall", "is", "everest"]})
            for _ in range(8)
        ]
        vocab = Vocab.build([r.payloads["tokens"] for r in records])
        return records, {"tokens": vocab}

    def test_below_min_window_never_fires(self):
        records, vocabs = self.reference()
        ring = self.ring_with([{"tokens": ["zzz", "qqq"]}] * 5)
        policy = HealPolicy(min_live_window=32)
        assert evaluate_drift_triggers(policy, ring, records, vocabs) == []

    def test_fires_with_evidence(self):
        records, vocabs = self.reference()
        ring = self.ring_with([{"tokens": ["zzz", "qqq"]}] * 20)
        policy = HealPolicy(min_live_window=16)
        events = evaluate_drift_triggers(policy, ring, records, vocabs)
        assert len(events) == 1
        assert events[0].kind == "drift"
        assert events[0].evidence["report"]["drifted"] is True
        assert events[0].evidence["live_window"] == 20

    def test_quiet_traffic_does_not_fire(self):
        records, vocabs = self.reference()
        ring = self.ring_with(
            [{"tokens": ["how", "tall", "is", "everest"]}] * 20
        )
        policy = HealPolicy(min_live_window=16)
        assert evaluate_drift_triggers(policy, ring, records, vocabs) == []

    def test_unknown_vocab_raises(self):
        records, vocabs = self.reference()
        ring = self.ring_with([{"tokens": ["zzz"]}] * 20)
        policy = HealPolicy(
            drift_triggers=(DriftTrigger(payload="query"),), min_live_window=1
        )
        with pytest.raises(AutopilotError):
            evaluate_drift_triggers(policy, ring, records, vocabs)


class TestRegressionTrigger:
    def test_fires_on_watched_slice(self):
        trigger = RegressionTrigger(threshold=0.02, slices=("slice:hard",))
        baseline = report([("slice:hard", "Intent", 50, {"accuracy": 0.9})])
        observed = report([("slice:hard", "Intent", 50, {"accuracy": 0.7})])
        event = evaluate_regression_trigger(trigger, baseline, observed)
        assert event is not None and event.kind == "regression"
        assert "slice:hard" in event.reason

    def test_unwatched_slice_ignored(self):
        trigger = RegressionTrigger(threshold=0.02, slices=("slice:hard",))
        baseline = report([("slice:other", "Intent", 50, {"accuracy": 0.9})])
        observed = report([("slice:other", "Intent", 50, {"accuracy": 0.7})])
        assert evaluate_regression_trigger(trigger, baseline, observed) is None

    def test_no_regression_no_event(self):
        trigger = RegressionTrigger()
        rows = [("overall", "Intent", 50, {"accuracy": 0.9})]
        assert (
            evaluate_regression_trigger(trigger, report(rows), report(rows))
            is None
        )


class TestPromotionGate:
    def gate(self, **kw) -> PromotionGate:
        defaults = dict(
            max_disagreement_rate=0.1,
            min_shadow_requests=10,
            regression_threshold=0.05,
            min_examples=5,
        )
        defaults.update(kw)
        return PromotionGate(**defaults)

    def test_all_checks_pass(self):
        stable = report([("overall", "Intent", 50, {"accuracy": 0.8})])
        candidate = report([("overall", "Intent", 50, {"accuracy": 0.85})])
        result = evaluate_gate(self.gate(), 20, 1, stable, candidate)
        assert result.passed
        assert result.failures() == []

    def test_disagreement_rate_blocks(self):
        stable = report([("overall", "Intent", 50, {"accuracy": 0.8})])
        result = evaluate_gate(self.gate(), 20, 10, stable, stable)
        assert not result.passed
        assert "shadow_disagreement" in result.failures()

    def test_short_window_blocks(self):
        stable = report([("overall", "Intent", 50, {"accuracy": 0.8})])
        result = evaluate_gate(self.gate(), 5, 0, stable, stable)
        assert not result.passed
        assert "shadow_window" in result.failures()

    def test_regression_blocks_everywhere_by_default(self):
        stable = report([("slice:rare", "Intent", 50, {"accuracy": 0.9})])
        candidate = report([("slice:rare", "Intent", 50, {"accuracy": 0.7})])
        result = evaluate_gate(self.gate(), 20, 0, stable, candidate)
        assert not result.passed
        assert "non_regression" in result.failures()

    def test_blocking_slices_restrict_the_gate(self):
        gate = self.gate(blocking_slices=("slice:hard",))
        stable = report(
            [
                ("slice:hard", "Intent", 50, {"accuracy": 0.8}),
                ("slice:rare", "Intent", 50, {"accuracy": 0.9}),
            ]
        )
        candidate = report(
            [
                ("slice:hard", "Intent", 50, {"accuracy": 0.85}),
                ("slice:rare", "Intent", 50, {"accuracy": 0.7}),
            ]
        )
        # slice:rare regressed but is not blocking; slice:hard is covered
        # and improved, so the candidate ships.
        result = evaluate_gate(gate, 20, 0, stable, candidate)
        assert result.passed
        non_reg = [c for c in result.checks if c["name"] == "non_regression"]
        assert non_reg[0]["detail"]["advisory"]

    def test_uncovered_blocking_slice_blocks(self):
        gate = self.gate(blocking_slices=("slice:hard",))
        stable = report([("overall", "Intent", 50, {"accuracy": 0.8})])
        candidate = report([("overall", "Intent", 50, {"accuracy": 0.8})])
        result = evaluate_gate(gate, 20, 0, stable, candidate)
        assert not result.passed
        assert "slice_coverage" in result.failures()


class TestDecisionJournal:
    def test_record_and_read_back(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = DecisionJournal(path)
        journal.record("trigger", reason="drift")
        journal.record("promoted", version="abc")
        assert len(journal) == 2
        assert journal.kinds() == ["trigger", "promoted"]
        assert [e["seq"] for e in journal.entries()] == [1, 2]
        loaded = DecisionJournal.read(path)
        assert [e["kind"] for e in loaded] == ["trigger", "promoted"]
        assert loaded[0]["detail"]["reason"] == "drift"

    def test_tail_and_kind_filter(self):
        journal = DecisionJournal()
        for i in range(5):
            journal.record("tick", i=i)
        journal.record("promoted")
        assert [e["kind"] for e in journal.tail(2)] == ["tick", "promoted"]
        assert len(journal.entries(kind="tick")) == 5

    def test_numpy_values_survive_serialization(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = DecisionJournal(path)
        journal.record(
            "gate", rate=np.float64(0.25), served=np.int64(40), tags={"a", "b"}
        )
        entry = DecisionJournal.read(path)[0]
        assert entry["detail"]["rate"] == 0.25
        assert entry["detail"]["served"] == 40
        assert sorted(entry["detail"]["tags"]) == ["a", "b"]
