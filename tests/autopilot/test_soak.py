"""Soak tests: the autopilot as a *stable controller*, not a one-shot heal.

Tier-1 runs a reduced smoke — one drift storm, dozens of requests, a
simulated clock — asserting the supervisor stays quiet on clean traffic,
heals exactly once when the storm arrives, and never re-fires on drift it
already absorbed.  Set ``REPRO_SOAK=1`` for the full tier-2 soak: dozens
of ticks through a calm -> storm -> calm -> second-storm schedule, two
promotions, and a :func:`repro.autopilot.check_consistency` audit of the
whole decision journal.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.autopilot import (
    DecisionJournal,
    DriftTrigger,
    HealPolicy,
    PromotionGate,
    RetrainPlan,
    check_consistency,
)
from repro.autopilot.soak import SoakReport, SoakTick, run_soak
from repro.autopilot.supervisor import Supervisor
from repro.faults import FaultPlan, FaultRule
from repro.workloads.synth import DriftPhase, preset

SOAK = os.environ.get("REPRO_SOAK", "") == "1"


def _soak_policy() -> HealPolicy:
    # js_threshold is deliberately high: small live windows over a
    # 120-token vocabulary sit around js ~0.15 from sampling noise alone.
    # The OOV jump is the reliable discriminator — the storm phases push
    # live OOV to ~0.45 vs ~0.01 on clean traffic.
    return HealPolicy(
        drift_triggers=(DriftTrigger(js_threshold=0.35, oov_jump_threshold=0.05),),
        min_live_window=16,
        cooldown_s=0.0,
        retrain=RetrainPlan(workers=1, max_live_records=256),
        gate=PromotionGate(
            max_disagreement_rate=1.0,
            min_shadow_requests=16,
            regression_threshold=0.25,
            min_examples=5,
        ),
    )


def test_soak_smoke_heals_once_and_absorbs_the_drift(tmp_path):
    spec = preset("synth-drift-storm").scaled(160)
    report = run_soak(
        spec,
        ticks=10,
        requests_per_tick=24,
        policy=_soak_policy(),
        store_dir=tmp_path / "store",
        journal_path=tmp_path / "journal.jsonl",
    )
    actions = report.actions()
    heal_tick = report.first_action_tick("heal_started")
    promote_tick = report.first_action_tick("promoted")

    # Quiet on clean traffic: nothing fires before the storm arrives.
    storm_start = next(t.tick for t in report.ticks if t.oov_rate > 0)
    assert heal_tick is not None and heal_tick >= storm_start, actions
    assert all(a == "no_trigger" for a in actions[:heal_tick]), actions

    # The heal lands: one promotion, no rejections.
    assert promote_tick is not None and promote_tick > heal_tick, actions
    assert report.promotions == 1 and report.rejections == 0, actions

    # Absorbed drift never re-fires, even though the storm keeps blowing.
    assert all(a == "no_trigger" for a in actions[promote_tick + 1 :]), actions
    assert report.heals_started == 1

    # The journal survives the process and audits clean.
    assert report.journal.check() == []
    replayed = DecisionJournal.read(tmp_path / "journal.jsonl")
    assert check_consistency(replayed) == []
    assert [e["kind"] for e in replayed] == [
        "trigger",
        "retrain_started",
        "retrain_finished",
        "staged",
        "shadow_started",
        "gate",
        "promoted",
        "reference_updated",
    ]


def test_calm_drift_never_triggers(tmp_path):
    """The calm preset's tiny OOV blip must stay below the trigger."""
    spec = preset("synth-drift-calm").scaled(120)
    report = run_soak(
        spec,
        ticks=6,
        requests_per_tick=20,
        policy=_soak_policy(),
        store_dir=tmp_path / "store",
    )
    assert report.actions() == ["no_trigger"] * 6, report.actions()
    assert report.heals_started == 0



def test_default_store_is_removed_on_return_and_on_error(tmp_path, monkeypatch):
    """Without ``store_dir`` the harness makes a store and removes it."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    spec = preset("synth-drift-calm").scaled(60)
    report = run_soak(spec, ticks=1, requests_per_tick=4, policy=_soak_policy())
    assert report.actions() == ["no_trigger"]
    assert list(scratch.iterdir()) == []

    def fail(self):
        raise RuntimeError("tick failed")

    monkeypatch.setattr(Supervisor, "step", fail)
    with pytest.raises(RuntimeError, match="tick failed"):
        run_soak(spec, ticks=1, requests_per_tick=4, policy=_soak_policy())
    assert list(scratch.iterdir()) == []


def test_a_given_store_dir_is_kept(tmp_path, monkeypatch):
    """A store the caller names is the caller's: the harness leaves it."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    spec = preset("synth-drift-calm").scaled(60)
    run_soak(
        spec,
        ticks=1,
        requests_per_tick=4,
        policy=_soak_policy(),
        store_dir=tmp_path / "store",
    )
    assert any((tmp_path / "store").iterdir())
    assert list(scratch.iterdir()) == []


def test_report_reads_actions_in_tick_order():
    report = SoakReport(
        spec=preset("synth-drift-calm"),
        ticks=[
            SoakTick(tick=0, fraction=0.0, oov_rate=0.0, action="no_trigger"),
            SoakTick(tick=1, fraction=0.5, oov_rate=0.4, action="heal_started"),
            SoakTick(tick=2, fraction=1.0, oov_rate=0.4, action="promoted"),
        ],
    )
    assert report.actions() == ["no_trigger", "heal_started", "promoted"]
    assert report.first_action_tick("promoted") == 2
    assert report.first_action_tick("paused") is None


def _chaos_policy(max_heal_failures: int = 3) -> HealPolicy:
    """The soak policy, hardened: retrial-tolerant retrains, auto-pause."""
    return HealPolicy(
        drift_triggers=(DriftTrigger(js_threshold=0.35, oov_jump_threshold=0.05),),
        min_live_window=16,
        cooldown_s=0.0,
        retrain=RetrainPlan(
            workers=1,
            max_live_records=256,
            retries=1,
            retry_backoff_s=0.0,
            on_error="skip",
        ),
        gate=PromotionGate(
            max_disagreement_rate=1.0,
            min_shadow_requests=16,
            regression_threshold=0.25,
            min_examples=5,
        ),
        max_heal_failures=max_heal_failures,
    )


def _chaos_plan() -> FaultPlan:
    """One storm across all three shipped fault points.

    Two live requests fail outright, the first retrain's trial crashes
    once (absorbed by the executor retry), and the first heal's candidate
    fetch dies with an IO error (failing that heal) — the loop must
    degrade, back off, and still land the promotion on the second try.
    """
    return FaultPlan(
        name="soak-storm",
        seed=20,
        rules=(
            FaultRule(
                point="replica.serve",
                match=(("role", "stable"),),
                after=30,
                max_fires=2,
            ),
            FaultRule(point="exec.trial", kind="crash", max_fires=1),
            FaultRule(point="store.fetch", kind="io_error", max_fires=1),
        ),
    )


def _run_chaos_soak(tmp_path, name: str, **overrides):
    spec = preset("synth-drift-storm").scaled(160)
    kwargs = dict(
        ticks=12,
        requests_per_tick=24,
        policy=_chaos_policy(),
        store_dir=tmp_path / f"{name}-store",
        journal_path=tmp_path / f"{name}-journal.jsonl",
        fault_plan=_chaos_plan(),
    )
    kwargs.update(overrides)
    return run_soak(spec, **kwargs)


def test_chaos_soak_degrades_and_recovers(tmp_path):
    """The full storm: failed requests, a crashed trial, a failed heal —
    and still exactly one promotion, with every decision journaled."""
    report = _run_chaos_soak(tmp_path, "chaos")
    actions = report.actions()

    # The storm was absorbed: one failed heal, then a clean promotion.
    assert actions.count("heal_failed") == 1, actions
    assert report.heals_started == 2 and report.promotions == 1, actions
    assert report.rejections == 0

    # The two injected request faults failed those requests, nothing more:
    # no shedding, and the loop never saw them as drift.
    assert report.request_errors == 2
    assert report.shed == 0

    # The injected storm replayed exactly as planned, in plan order.
    assert [d["kind"] for d in report.fault_decisions] == [
        "error",
        "error",
        "crash",
        "io_error",
    ]
    assert [d["hit"] for d in report.fault_decisions] == [31, 32, 1, 1]

    # The journal tells the whole story, and audits clean despite the
    # mid-heal failure.
    replayed = DecisionJournal.read(tmp_path / "chaos-journal.jsonl")
    assert check_consistency(replayed) == []
    assert [e["kind"] for e in replayed] == [
        "trigger",
        "retrain_started",
        "retrain_finished",
        "staged",
        "heal_failed",
        "trigger",
        "retrain_started",
        "retrain_finished",
        "staged",
        "shadow_started",
        "gate",
        "promoted",
        "reference_updated",
    ]
    failed = [e for e in replayed if e["kind"] == "heal_failed"]
    assert failed[0]["detail"]["consecutive"] == 1
    assert "StoreError" in failed[0]["detail"]["error"]


def test_chaos_soak_auto_pauses_after_repeated_heal_failures(tmp_path):
    """A heal that keeps dying must stop retraining and page a human."""
    always_down = FaultPlan(
        name="store-down",
        seed=0,
        rules=(FaultRule(point="store.fetch", kind="io_error"),),
    )
    report = _run_chaos_soak(
        tmp_path,
        "pause",
        ticks=10,
        policy=_chaos_policy(max_heal_failures=2),
        fault_plan=always_down,
    )
    actions = report.actions()
    assert actions.count("heal_failed") == 2, actions
    assert report.heals_started == 2 and report.promotions == 0

    # Every tick after the second failure is a paused no-op.
    last_failure = max(i for i, a in enumerate(actions) if a == "heal_failed")
    assert actions[last_failure + 1 :] == ["paused"] * (
        len(actions) - last_failure - 1
    ), actions

    paused = report.journal.entries("paused")
    assert len(paused) == 1
    assert (
        paused[0]["detail"]["reason"]
        == "auto-paused after 2 consecutive heal failures"
    )
    failed = report.journal.entries("heal_failed")
    assert [e["detail"]["consecutive"] for e in failed] == [1, 2]
    assert report.journal.check() == []


@pytest.mark.skipif(not SOAK, reason="tier-2 soak; set REPRO_SOAK=1")
def test_chaos_soak_is_byte_deterministic(tmp_path):
    """The same seeded storm twice: identical decisions, identical journal."""
    first = _run_chaos_soak(tmp_path, "det-a")
    second = _run_chaos_soak(tmp_path, "det-b")
    assert first.fault_decisions == second.fault_decisions
    first_journal = DecisionJournal.read(tmp_path / "det-a-journal.jsonl")
    second_journal = DecisionJournal.read(tmp_path / "det-b-journal.jsonl")
    assert [(e["seq"], e["kind"]) for e in first_journal] == [
        (e["seq"], e["kind"]) for e in second_journal
    ]
    assert first.actions() == second.actions()
    assert first.request_errors == second.request_errors


@pytest.mark.skipif(not SOAK, reason="tier-2 soak; set REPRO_SOAK=1")
def test_full_soak_two_storms_two_heals(tmp_path):
    spec = preset("synth-drift-storm").replace(
        n=600,
        drift=(
            DriftPhase(start=0.0),
            DriftPhase(start=0.25, oov_rate=0.45, length_delta=1),
            DriftPhase(start=0.5),
            DriftPhase(start=0.72, oov_rate=0.5, length_delta=1),
        ),
    )
    report = run_soak(
        spec,
        ticks=36,
        requests_per_tick=24,
        policy=_soak_policy(),
        store_dir=tmp_path / "store",
        journal_path=tmp_path / "journal.jsonl",
    )
    actions = report.actions()

    # Two storms, two heals, both promoted; the calm valleys stay quiet.
    assert report.heals_started == 2, actions
    assert report.promotions == 2 and report.rejections == 0, actions
    heal_ticks = [t.tick for t in report.ticks if t.action == "heal_started"]
    promote_ticks = [t.tick for t in report.ticks if t.action == "promoted"]
    storm_ticks = {t.tick for t in report.ticks if t.oov_rate > 0}
    assert len(heal_ticks) == 2 and len(promote_ticks) == 2
    assert all(tick in storm_ticks for tick in heal_ticks), (
        heal_ticks,
        sorted(storm_ticks),
    )
    # Between a promotion and the next storm phase, and after the last
    # one, nothing re-fires: absorbed drift stays absorbed.
    first_promote, second_heal = promote_ticks[0], heal_ticks[1]
    between = actions[first_promote + 1 : second_heal]
    assert all(a == "no_trigger" for a in between), actions
    assert all(a == "no_trigger" for a in actions[promote_ticks[1] + 1 :]), actions

    # Repeated heals keep the journal consistent, in memory and on disk.
    assert report.journal.check() == []
    replayed = DecisionJournal.read(tmp_path / "journal.jsonl")
    assert check_consistency(replayed) == []
    assert sum(1 for e in replayed if e["kind"] == "promoted") == 2
