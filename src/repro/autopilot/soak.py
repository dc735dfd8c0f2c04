"""Drift-schedule-driven soak runs for the autopilot supervisor.

A single heal proves the loop closes once; a *soak* proves the loop is a
stable controller: ticks arrive on a simulated clock, the spec's drift
schedule decides when the traffic distribution moves, and the supervisor
must heal when it moves, stay quiet when it doesn't, and never re-fire
on drift it already absorbed.  The driver is deterministic end to end —
generated traffic, injectable clock, seeded retrains — so soak failures
reproduce.
"""

from __future__ import annotations

import tempfile
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import Application
from repro.autopilot import DecisionJournal, HealPolicy, Supervisor
from repro.core import ModelConfig
from repro.deploy import ModelStore
from repro.errors import ServeOverloadError
from repro.faults import FaultPlan, InjectedFault, injected
from repro.serve import GatewayConfig, ReplicaPool, ServingGateway
from repro.workloads.synth.difficulty import reference_config
from repro.workloads.synth.generator import SynthGenerator
from repro.workloads.synth.registry import build_application
from repro.workloads.synth.sources import live_labeler
from repro.workloads.synth.spec import WorkloadSpec


@dataclass
class SoakTick:
    """One supervisor tick of a soak run."""

    tick: int
    fraction: float
    oov_rate: float
    action: str
    detail: dict = field(default_factory=dict)


@dataclass
class SoakReport:
    """Everything a soak test needs to assert on."""

    spec: WorkloadSpec
    ticks: list[SoakTick] = field(default_factory=list)
    journal: DecisionJournal | None = None
    promotions: int = 0
    rejections: int = 0
    heals_started: int = 0
    shed: int = 0  # requests refused retryably (queue full / circuit open)
    request_errors: int = 0  # requests failed by an injected fault
    fault_decisions: list[dict] = field(default_factory=list)

    def actions(self) -> list[str]:
        """The per-tick action sequence, in order."""
        return [t.action for t in self.ticks]

    def first_action_tick(self, action: str) -> int | None:
        """Index of the first tick with the given action, if any."""
        for entry in self.ticks:
            if entry.action == action:
                return entry.tick
        return None


def run_soak(
    spec: WorkloadSpec,
    *,
    ticks: int = 24,
    requests_per_tick: int = 24,
    policy: HealPolicy | None = None,
    config: ModelConfig | None = None,
    store_dir: str | Path | None = None,
    journal_path: str | Path | None = None,
    tick_seconds: float = 60.0,
    application: Application | None = None,
    fault_plan: FaultPlan | None = None,
) -> SoakReport:
    """Drive ``Supervisor.step()`` through the spec's drift schedule.

    The reference model trains on the spec *without* drift; live traffic
    is a fresh stream of ``ticks * requests_per_tick`` payloads from the
    drifting spec (reseeded so live never replays training data), fed
    tick by tick.  The supervisor sees a simulated clock advancing
    ``tick_seconds`` per tick, so cooldown and shadow windows behave as
    in production without wall-clock sleeps.

    ``fault_plan`` replays a seeded fault storm (see ``repro.faults``)
    across the run: shed and fault-failed requests are counted on the
    report instead of failing the soak, and the injector's timestamp-free
    decision log lands in ``report.fault_decisions`` so chaos soaks can
    assert byte-identical storms across runs.
    """
    reference_spec = spec.without_drift()
    reference = SynthGenerator(reference_spec).dataset()
    application = application or build_application(spec)
    config = config or reference_config(size=12, epochs=2)
    run = application.fit(reference, config)

    with ExitStack() as scope:
        if store_dir is None:
            # A store the harness makes is the harness's to remove.
            scratch = scope.enter_context(
                tempfile.TemporaryDirectory(prefix="synth-soak-")
            )
            store_dir = Path(scratch) / "store"
        store = ModelStore(Path(store_dir))
        run.deploy(store)
        pool = ReplicaPool.from_store(store, application.name)
        gateway = ServingGateway(
            pool,
            GatewayConfig(
                max_batch_size=8, max_wait_s=0.001, payload_sample_every=1
            ),
        )

        live_n = ticks * requests_per_tick
        live_spec = spec.scaled(live_n).reseeded(spec.seed + 1)
        live = SynthGenerator(live_spec)

        now = [0.0]
        journal = DecisionJournal(path=journal_path)
        supervisor = Supervisor(
            gateway,
            application,
            store,
            reference,
            policy,
            labeler=live_labeler(live.world),
            journal=journal,
            clock=lambda: now[0],
        )
        report = SoakReport(spec=spec, journal=journal)
        # The storm arms *after* setup (reference fit, deploy, pool
        # creation): chaos tests target the live loop — serving, heals,
        # candidate fetches — not the fixture-building preamble.
        storm = nullcontext(None) if fault_plan is None else injected(fault_plan)
        with storm as injector, gateway:
            for tick in range(ticks):
                start = tick * requests_per_tick
                for index in range(start, start + requests_per_tick):
                    try:
                        gateway.submit(live.payload(index, live_n))
                    except ServeOverloadError:
                        report.shed += 1
                    except InjectedFault:
                        report.request_errors += 1
                gateway.drain()
                now[0] += tick_seconds
                fraction = min(1.0, (tick + 1) * requests_per_tick / live_n)
                phase = live_spec.phase_at(fraction)
                outcome = supervisor.step()
                report.ticks.append(
                    SoakTick(
                        tick=tick,
                        fraction=fraction,
                        oov_rate=phase.oov_rate if phase else 0.0,
                        action=outcome.get("action", "unknown"),
                        detail=outcome,
                    )
                )
        report.promotions = supervisor.promotions
        report.rejections = supervisor.rejections
        report.heals_started = supervisor.heals_started
        if injector is not None:
            report.fault_decisions = injector.decisions()
    return report
