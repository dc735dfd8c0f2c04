"""Observability through the autopilot: tick spans, journal trace links,
and the supervisor's scrapeable counters."""

from __future__ import annotations

import repro.obs as obs
from repro.autopilot import DecisionJournal, Supervisor

from tests.autopilot.conftest import clean_payload, lenient_policy
from tests.helpers import obs_activated


def make_supervisor(ap_world, ap_gateway) -> Supervisor:
    app, ds, run = ap_world
    store, gateway = ap_gateway
    return Supervisor(gateway, app, store, ds, lenient_policy())


class TestTickTracing:
    def test_each_tick_is_one_root_span(self, ap_world, ap_gateway):
        supervisor = make_supervisor(ap_world, ap_gateway)
        with obs_activated():
            supervisor.step()
            supervisor.step()
            ticks = [
                s for s in obs.get_tracer().ring.spans()
                if s.name == "autopilot.tick"
            ]
            assert len(ticks) == 2
            assert all(s.parent_id is None for s in ticks)
            assert len({s.trace_id for s in ticks}) == 2  # fresh trace per tick
            assert ticks[0].attrs["state"] == "idle"

    def test_journal_entries_link_to_the_tick_trace(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        supervisor = make_supervisor(ap_world, ap_gateway)
        with obs_activated():
            # Enough clean traffic to clear min_live_window: the step
            # journals a "trigger"-free tick only when something happens,
            # so force a decision via the kill switch instead.
            supervisor.pause("audit")
            supervisor.resume()
            (paused, resumed) = supervisor.journal.entries()[-2:]
        assert paused["kind"] == "paused" and resumed["kind"] == "resumed"
        # pause/resume run outside a tick -> no trace to link.
        assert "trace_id" not in paused

    def test_journal_records_tick_trace_id_inside_step(
        self, ap_world, ap_gateway, monkeypatch
    ):
        supervisor = make_supervisor(ap_world, ap_gateway)
        with obs_activated():
            # A quiet gateway's tick journals nothing, so journal from
            # inside the tick via a wrapped idle step — what matters is
            # that record() picks the tick span's trace id up implicitly.
            original = supervisor._step_idle

            def journaling_idle(now):
                supervisor.journal.record("probe", note="from inside tick")
                return original(now)

            monkeypatch.setattr(supervisor, "_step_idle", journaling_idle)
            supervisor.step()
            (entry,) = [
                e for e in supervisor.journal.entries() if e["kind"] == "probe"
            ]
            (tick,) = [
                s for s in obs.get_tracer().ring.spans()
                if s.name == "autopilot.tick"
            ]
            assert entry["trace_id"] == tick.trace_id

    def test_tick_counter_mirrors_ticks(self, ap_world, ap_gateway):
        supervisor = make_supervisor(ap_world, ap_gateway)
        with obs_activated():
            for _ in range(3):
                supervisor.step()
            counter = obs.get_registry().get("repro_autopilot_ticks_total")
            assert counter.value() == 3.0
        assert supervisor.ticks == 3


class TestJournalTraceColumn:
    def test_every_entry_carries_the_column(self, tmp_path):
        journal = DecisionJournal(tmp_path / "journal.jsonl")
        journal.record("start", reason="test")
        with obs_activated():
            with obs.span("autopilot.tick"):
                journal.record("inside")
        rows = DecisionJournal.read(tmp_path / "journal.jsonl")
        assert "trace_id" not in rows[0]  # recorded outside any span
        assert rows[1]["trace_id"]


class TestServeTraffic:
    def test_supervised_gateway_traffic_is_traced(self, ap_world, ap_gateway):
        app, ds, run = ap_world
        store, gateway = ap_gateway
        with obs_activated():
            future = gateway.submit_async(clean_payload(ds.records[0]))
            future.result(timeout=30)
            gateway.drain()
            names = {
                s.name
                for s in obs.get_tracer().ring.trace(future.trace_id)
            }
        assert "gateway.enqueue" in names and "gateway.batch" in names
