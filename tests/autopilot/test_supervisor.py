"""Supervisor loop tests: detect -> retrain -> shadow -> promote, and the
paths that must NOT promote (kill switch, cooldown, dry-run, gate
rejection, shadow timeout, promotion budget)."""

from __future__ import annotations

import pytest

from repro.autopilot import HealPolicy, PromotionGate, RegressionTrigger, Supervisor
from repro.training.reports import QualityReport, ReportRow

from tests.autopilot.conftest import clean_payload, drifted_payload, lenient_policy


class FakeClock:
    """A controllable monotonic clock for cooldown/timeout paths."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def drive(gateway, ds, lo, hi, drifted=True):
    make = drifted_payload if drifted else clean_payload
    for record in ds.records[lo:hi]:
        gateway.submit(make(record))
    gateway.drain()


class TestEndToEndHeal:
    def test_drift_detect_retrain_shadow_promote(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        stable_version = store.latest_version(app.name)
        supervisor = Supervisor(gateway, app, store, ds, lenient_policy())
        with gateway:
            drive(gateway, ds, 0, 20, drifted=False)
            assert supervisor.step()["action"] == "no_trigger"

            drive(gateway, ds, 0, 40, drifted=True)
            outcome = supervisor.step()
            assert outcome["action"] == "heal_started"
            staged = outcome["version"]
            # Staged, not released: the latest pointer has not moved.
            assert staged != stable_version
            assert store.latest_version(app.name) == stable_version
            assert supervisor.state == "shadowing"

            drive(gateway, ds, 40, 80, drifted=True)
            outcome = supervisor.step()
            assert outcome["action"] == "promoted"
            assert store.latest_version(app.name) == staged

        # Every decision journaled, in pipeline order.
        kinds = supervisor.journal.kinds()
        assert kinds == [
            "trigger",
            "retrain_started",
            "retrain_finished",
            "staged",
            "shadow_started",
            "gate",
            "promoted",
            "reference_updated",
        ]
        gate_entry = supervisor.journal.entries(kind="gate")[0]
        assert gate_entry["detail"]["passed"] is True
        # The journal says how the candidate model came to be.
        retrained = supervisor.journal.entries(kind="retrain_finished")[0]
        assert retrained["detail"]["candidate"] == "retrained"
        status = supervisor.status()
        assert status["promotions"] == 1
        assert status["rejections"] == 0
        # The rollout left its trace in telemetry (satellite: lifecycle events).
        actions = [e.action for e in gateway.telemetry.rollout_events()]
        assert "set_shadow" in actions
        assert "promote" in actions

    def test_healed_reference_stops_refiring(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        supervisor = Supervisor(gateway, app, store, ds, lenient_policy())
        with gateway:
            drive(gateway, ds, 0, 40, drifted=True)
            assert supervisor.step()["action"] == "heal_started"
            drive(gateway, ds, 40, 80, drifted=True)
            assert supervisor.step()["action"] == "promoted"
            # Promotion dropped the stale sample window...
            entry = supervisor.journal.entries(kind="reference_updated")[0]
            assert entry["detail"]["stale_samples_dropped"] > 0
            # ...and the absorbed drift no longer fires on fresh traffic.
            drive(gateway, ds, 0, 40, drifted=True)
            assert supervisor.step()["action"] == "no_trigger"


class TestRejectionPaths:
    def test_uncovered_blocking_slice_rejects_and_journals(
        self, ap_world, ap_gateway
    ):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        stable_version = store.latest_version(app.name)
        policy = lenient_policy(
            gate=PromotionGate(
                max_disagreement_rate=1.0,
                min_shadow_requests=16,
                regression_threshold=0.25,
                min_examples=5,
                blocking_slices=("slice:does_not_exist",),
            )
        )
        supervisor = Supervisor(gateway, app, store, ds, policy)
        with gateway:
            drive(gateway, ds, 0, 40, drifted=True)
            assert supervisor.step()["action"] == "heal_started"
            drive(gateway, ds, 40, 80, drifted=True)
            outcome = supervisor.step()
        assert outcome["action"] == "rejected"
        assert "slice_coverage" in outcome["reason"]
        # Not promoted: pointer and replicas untouched, decision journaled.
        assert store.latest_version(app.name) == stable_version
        assert not gateway.pool.has_candidate()
        assert supervisor.journal.entries(kind="promoted") == []
        gate_entry = supervisor.journal.entries(kind="gate")[0]
        assert gate_entry["detail"]["passed"] is False
        assert supervisor.status()["rejections"] == 1

    def test_shadow_timeout_rejects(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        clock = FakeClock()
        policy = lenient_policy(
            gate=PromotionGate(
                max_disagreement_rate=1.0,
                min_shadow_requests=500,  # never fills
                shadow_timeout_s=30.0,
                regression_threshold=0.25,
            )
        )
        supervisor = Supervisor(gateway, app, store, ds, policy, clock=clock)
        with gateway:
            drive(gateway, ds, 0, 40, drifted=True)
            assert supervisor.step()["action"] == "heal_started"
            assert supervisor.step()["action"] == "awaiting_shadow"
            clock.advance(31.0)
            outcome = supervisor.step()
        assert outcome["action"] == "rejected"
        assert "timed out" in outcome["reason"]


class TestControls:
    def test_kill_switch_pauses_and_resumes(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        supervisor = Supervisor(
            gateway, app, store, ds, lenient_policy(), dry_run=True
        )
        with gateway:
            drive(gateway, ds, 0, 40, drifted=True)
            supervisor.pause(reason="operator hold")
            outcome = supervisor.step()
            assert outcome["action"] == "paused"
            assert outcome["reason"] == "operator hold"
            # Paused means *nothing* was decided: no triggers journaled.
            assert supervisor.journal.entries(kind="trigger") == []
            supervisor.resume()
            assert supervisor.step()["action"] == "dry_run"
        kinds = supervisor.journal.kinds()
        assert "paused" in kinds and "resumed" in kinds

    def test_cooldown_blocks_next_heal(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        clock = FakeClock()
        policy = lenient_policy(cooldown_s=120.0)
        supervisor = Supervisor(
            gateway, app, store, ds, policy, dry_run=True, clock=clock
        )
        with gateway:
            drive(gateway, ds, 0, 40, drifted=True)
            assert supervisor.step()["action"] == "dry_run"
            outcome = supervisor.step()
            assert outcome["action"] == "cooldown"
            assert outcome["remaining_s"] == pytest.approx(120.0)
            clock.advance(121.0)
            # Cooldown over; the un-healed drift fires again.
            assert supervisor.step()["action"] == "dry_run"

    def test_dry_run_journals_without_acting(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        supervisor = Supervisor(
            gateway, app, store, ds, lenient_policy(), dry_run=True
        )
        with gateway:
            drive(gateway, ds, 0, 40, drifted=True)
            outcome = supervisor.step()
        assert outcome["action"] == "dry_run"
        # Intended actions journaled; nothing actually happened.
        entry = supervisor.journal.entries(kind="dry_run")[0]
        assert entry["detail"]["would"] == ["retrain", "stage", "shadow", "gate"]
        assert len(store.versions(app.name)) == 1
        assert not gateway.pool.has_candidate()
        assert supervisor.journal.entries(kind="staged") == []

    def test_promotion_budget_pauses_the_loop(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        policy = lenient_policy(max_promotions=0)
        supervisor = Supervisor(gateway, app, store, ds, policy)
        with gateway:
            drive(gateway, ds, 0, 40, drifted=True)
            outcome = supervisor.step()
            assert outcome["action"] == "budget_exhausted"
            assert supervisor.paused
            assert supervisor.step()["action"] == "paused"

    def test_run_thread_ticks_and_stops(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        supervisor = Supervisor(
            gateway, app, store, ds, lenient_policy(), dry_run=True
        )
        with gateway:
            thread = supervisor.run(interval_s=0.01)
            assert thread.is_alive()
            import time

            deadline = time.monotonic() + 5.0
            while supervisor.ticks < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            supervisor.stop()
        assert supervisor.ticks >= 3
        assert not thread.is_alive()


class TestRegressionTrigger:
    @staticmethod
    def report(accuracy: float) -> QualityReport:
        row = ReportRow(tag="test", task="Intent", n=40, metrics={"accuracy": accuracy})
        return QualityReport(rows=[row])

    def test_an_observed_regression_fires_on_the_next_tick(
        self, ap_world, ap_gateway
    ):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        policy = lenient_policy(regression_trigger=RegressionTrigger(threshold=0.05))
        supervisor = Supervisor(gateway, app, store, ds, policy, dry_run=True)
        # The first report becomes the baseline: nothing to compare yet.
        assert supervisor.observe_report(self.report(0.9)) is None
        event = supervisor.observe_report(self.report(0.6))
        assert event is not None and event.kind == "regression"
        (regression,) = event.evidence["regressions"]
        assert (regression["before"], regression["after"]) == (0.9, 0.6)

        with gateway:
            outcome = supervisor.step()
        assert outcome["action"] == "dry_run"
        assert outcome["triggers"] == [event.reason]
        assert supervisor.journal.kinds() == ["trigger", "dry_run"]
        trigger = supervisor.journal.entries(kind="trigger")[0]
        assert trigger["detail"]["trigger"] == event.to_dict()
        assert supervisor.journal.entries(kind="dry_run")[0]["detail"][
            "triggers"
        ] == [event.reason]

    def test_a_policy_without_a_regression_trigger_ignores_reports(
        self, ap_world, ap_gateway
    ):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        supervisor = Supervisor(gateway, app, store, ds, lenient_policy(), dry_run=True)
        supervisor.set_baseline_report(self.report(0.9))
        assert supervisor.observe_report(self.report(0.6)) is None


class TestJournalWiring:
    def test_empty_file_backed_journal_is_kept(
        self, ap_world, ap_gateway, tmp_path
    ):
        from repro.autopilot import DecisionJournal

        app, ds, run = ap_world
        store, gateway = ap_gateway
        journal = DecisionJournal(tmp_path / "decisions.jsonl")
        # An empty journal is falsy (len == 0); the supervisor must keep
        # it anyway instead of swapping in an in-memory one.
        supervisor = Supervisor(
            gateway, app, store, ds, lenient_policy(), journal=journal,
            dry_run=True,
        )
        assert supervisor.journal is journal
        with gateway:
            drive(gateway, ds, 0, 40, drifted=True)
            supervisor.step()
        on_disk = DecisionJournal.read(tmp_path / "decisions.jsonl")
        assert [e["kind"] for e in on_disk] == ["trigger", "dry_run"]


class TestSurfaces:
    def test_status_and_render(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        supervisor = Supervisor(
            gateway, app, store, ds, lenient_policy(), dry_run=True
        )
        with gateway:
            drive(gateway, ds, 0, 40, drifted=True)
            supervisor.step()
        status = supervisor.status()
        assert status["dry_run"] is True
        assert status["model"] == app.name
        text = supervisor.render()
        assert "autopilot:" in text
        assert "dry-run" in text
        assert "recent decisions" in text

    def test_http_autopilot_route(self, ap_world, ap_gateway):
        import json
        from urllib.request import urlopen

        from repro.serve import AsyncGatewayServer

        app, ds, run = ap_world
        store, gateway = ap_gateway
        supervisor = Supervisor(
            gateway, app, store, ds, lenient_policy(), dry_run=True
        )
        with gateway, AsyncGatewayServer(gateway, autopilot=supervisor) as server:
            drive(gateway, ds, 0, 40, drifted=True)
            supervisor.step()
            body = json.loads(urlopen(f"{server.url}/autopilot").read())
            assert body["status"]["state"] == "idle"
            assert body["policy"]["min_live_window"] == 16
            kinds = [e["kind"] for e in body["journal"]]
            assert "trigger" in kinds and "dry_run" in kinds
            dashboard = urlopen(f"{server.url}/dashboard").read().decode()
            assert "autopilot:" in dashboard

    def test_http_404_without_autopilot(self, ap_world, ap_gateway):
        from urllib.error import HTTPError
        from urllib.request import urlopen

        from repro.serve import AsyncGatewayServer

        app, ds, run = ap_world
        store, gateway = ap_gateway
        with gateway, AsyncGatewayServer(gateway) as server:
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"{server.url}/autopilot")
            assert excinfo.value.code == 404
