"""FaultPlan / FaultRule: validation, matching, and JSON round-trips."""

import json

import pytest

from repro.errors import FaultError, ReproError
from repro.faults import KINDS, FaultPlan, FaultRule


class TestRuleValidation:
    def test_defaults_are_an_always_firing_error(self):
        rule = FaultRule(point="replica.serve")
        assert rule.kind == "error"
        assert rule.rate == 1.0
        assert rule.after == 0
        assert rule.max_fires is None

    def test_empty_point_rejected(self):
        with pytest.raises(FaultError, match="point name"):
            FaultRule(point="")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultRule(point="x", kind="explode")

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rate_out_of_range_rejected(self, rate):
        with pytest.raises(FaultError, match="rate"):
            FaultRule(point="x", rate=rate)

    def test_negative_after_rejected(self):
        with pytest.raises(FaultError, match="after"):
            FaultRule(point="x", after=-1)

    def test_zero_max_fires_rejected(self):
        with pytest.raises(FaultError, match="max_fires"):
            FaultRule(point="x", max_fires=0)

    def test_latency_rule_needs_a_duration(self):
        with pytest.raises(FaultError, match="latency_s"):
            FaultRule(point="x", kind="latency")

    def test_fault_error_is_a_repro_error(self):
        # Plan *validation* failures are deliberate library errors —
        # unlike the injected faults themselves (see test_injector).
        with pytest.raises(ReproError):
            FaultRule(point="x", kind="nope")


class TestRuleMatching:
    def test_empty_match_accepts_any_labels(self):
        rule = FaultRule(point="x")
        assert rule.matches({})
        assert rule.matches({"tier": "small"})

    def test_match_values_compare_as_strings(self):
        rule = FaultRule(point="x", match=(("trial", "3"),))
        assert rule.matches({"trial": 3})
        assert rule.matches({"trial": "3"})
        assert not rule.matches({"trial": 4})
        assert not rule.matches({})

    def test_all_match_keys_must_hold(self):
        rule = FaultRule(point="x", match=(("tier", "small"), ("role", "stable")))
        assert rule.matches({"tier": "small", "role": "stable"})
        assert not rule.matches({"tier": "small", "role": "shadow"})


class TestPlanValidation:
    def test_plan_needs_a_name(self):
        with pytest.raises(FaultError, match="name"):
            FaultPlan(name="")

    def test_seed_must_be_an_int(self):
        with pytest.raises(FaultError, match="seed"):
            FaultPlan(seed="zero")

    def test_rules_must_be_fault_rules(self):
        with pytest.raises(FaultError, match="FaultRule"):
            FaultPlan(rules=({"point": "x"},))

    def test_points_dedup_in_first_seen_order(self):
        plan = FaultPlan(
            rules=(
                FaultRule(point="b"),
                FaultRule(point="a"),
                FaultRule(point="b", kind="crash"),
            )
        )
        assert plan.points() == ["b", "a"]


class TestRoundTrip:
    def plan(self) -> FaultPlan:
        return FaultPlan(
            name="storm-7",
            seed=42,
            rules=(
                FaultRule(point="replica.serve", rate=0.25, after=10),
                FaultRule(
                    point="exec.trial",
                    kind="crash",
                    max_fires=2,
                    message="worker died",
                ),
                FaultRule(point="store.fetch", kind="io_error"),
                FaultRule(
                    point="replica.serve",
                    kind="latency",
                    latency_s=0.05,
                    match=(("tier", "small"),),
                ),
            ),
        )

    def test_dict_round_trip_is_identity(self):
        plan = self.plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_round_trip_is_identity(self):
        plan = self.plan()
        assert FaultPlan.from_dict(json.loads(plan.to_json())) == plan

    def test_file_round_trip_is_identity(self, tmp_path):
        plan = self.plan()
        path = tmp_path / "storm.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        assert FaultPlan.from_file(path) == plan

    def test_match_dict_normalizes_to_sorted_tuples(self):
        spec = {"point": "x", "match": {"role": "stable", "tier": "small"}}
        rule = FaultRule.from_dict(spec)
        assert rule.match == (("role", "stable"), ("tier", "small"))

    def test_unknown_rule_key_is_a_fault_error(self):
        with pytest.raises(FaultError, match=r"unknown FaultRule keys \[.blast_radius.\]"):
            FaultRule.from_dict({"point": "x", "blast_radius": 1})

    def test_non_object_file_is_a_fault_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(FaultError, match="JSON object"):
            FaultPlan.from_file(path)

    def test_every_kind_round_trips(self):
        for kind in KINDS:
            latency = 0.01 if kind == "latency" else 0.0
            rule = FaultRule(point="x", kind=kind, latency_s=latency)
            assert FaultRule.from_dict(rule.to_dict()) == rule
