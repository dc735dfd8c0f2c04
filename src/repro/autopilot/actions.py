"""The staged heal pipeline: assemble, retrain, stage, gate.

Each function here is one hop of the supervisor's action pipeline and is
deliberately free of loop state — the :class:`~repro.autopilot.supervisor.
Supervisor` sequences them and journals around them, so every hop stays
individually testable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.api.run import Run
from repro.data.dataset import Dataset
from repro.data.record import Record
from repro.errors import AutopilotError, DataError, SchemaError
from repro.exec import winning_model
from repro.monitoring.regression import compare_reports
from repro.training.reports import QualityReport

from repro.autopilot.policy import PromotionGate, RetrainPlan


def default_live_labeler(records: Sequence[Record]) -> None:
    """Attach gold-free weak supervision to sampled live records.

    Live traffic has no gold labels, but the repo's heuristic sources
    (keyword intent, gazetteer type projection, type-compatibility
    argument resolution) need only the payloads — exactly the weak
    supervision a production team would run over logged requests.
    """
    from repro.workloads.weak_sources import (
        compatibility_intent_arg_source,
        gazetteer_type_source,
        keyword_intent_source,
    )

    keyword_intent_source(records, miss_rate=0.0)
    gazetteer_type_source(records, noise=0.0)
    compatibility_intent_arg_source(records, slip_rate=0.0)


def collect_live_records(
    telemetry,
    schema,
    max_records: int = 512,
    labeler: Callable[[Sequence[Record]], None] | None = default_live_labeler,
    tags: Sequence[str] = ("train", "live"),
) -> list[Record]:
    """Sampled live payloads as schema-valid, weakly-labeled records.

    Invalid payloads are silently dropped (live traffic is untrusted);
    the newest ``max_records`` valid ones are labeled and tagged so they
    can join a training set.
    """
    records: list[Record] = []
    for payload in telemetry.payload_samples():
        record = Record(payloads=copy.deepcopy(dict(payload)))
        try:
            record.validate(schema)
        except (DataError, SchemaError):
            continue
        for tag in tags:
            record.add_tag(tag)
        records.append(record)
    records = records[-max_records:]
    if labeler is not None and records:
        labeler(records)
    return records


def assemble_retrain_set(reference: Dataset, live: Sequence[Record]) -> Dataset:
    """Reference data plus live records, as one dataset.

    Vocabularies are rebuilt over the union downstream (``fit`` calls
    ``build_vocabs`` on the full dataset), which is what heals
    vocabulary drift: novel live tokens become in-vocab.
    """
    return Dataset(
        reference.schema, list(reference.records) + list(live), validate=False
    )


def retrain_candidate(
    application,
    dataset: Dataset,
    plan: RetrainPlan,
    fallback_config,
):
    """Train the candidate through a cached :class:`TrialExecutor`.

    Returns ``(run, stats)`` where ``stats`` records executor counters
    (cache hits, trials executed), the winning score, and whether the
    candidate model was ``"retrained"`` or ``"restored"`` from the trial
    cache — a heal that re-elects a config on a retrain set the cache has
    already seen returns without training.  With neither explicit
    candidates nor a tuning spec, the currently-deployed config
    (``fallback_config``) is rescored — the common "same architecture,
    fresher data" heal.
    """
    executor = application.tuning_executor(
        dataset,
        workers=plan.workers,
        cache_dir=plan.cache_dir,
        retries=plan.retries,
        retry_backoff_s=plan.retry_backoff_s,
        on_error=plan.on_error,
    )
    try:
        if plan.spec is not None:
            run = application.tune(
                dataset,
                plan.spec,
                strategy=plan.strategy,
                num_trials=plan.num_trials,
                executor=executor,
            )
            extra = {"best_score": None}  # tune() keeps scores internal
        else:
            configs = list(plan.candidates) or [fallback_config]
            best = max(executor.evaluate(configs), key=lambda o: o.score)
            trained = winning_model(executor, best.config, best.score)
            run = Run(application=application, trained=trained)
            extra = {"best_score": best.score, "candidates": len(configs)}
    finally:
        executor.close()
    stats = executor.stats.to_dict()
    stats["candidate"] = "restored" if executor.stats.restored else "retrained"
    return run, {**stats, **extra}


def stage_candidate(run, store, name: str):
    """Push the candidate *without* moving the latest pointer."""
    return store.push(name, run.artifact(), set_latest=False)


@dataclass
class GateResult:
    """The promotion gate's verdict, one named check at a time."""

    passed: bool = True
    checks: list[dict] = field(default_factory=list)

    def add(self, name: str, passed: bool, **detail) -> None:
        self.checks.append({"name": name, "passed": passed, "detail": detail})
        if not passed:
            self.passed = False

    def failures(self) -> list[str]:
        return [c["name"] for c in self.checks if not c["passed"]]

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": list(self.checks)}


def evaluate_gate(
    gate: PromotionGate,
    shadow_served: int,
    shadow_disagreements: int,
    stable_report: QualityReport,
    candidate_report: QualityReport,
) -> GateResult:
    """Run every promotion check; all must pass for the candidate to ship.

    Checks, in order: the shadow window is large enough; the live
    disagreement rate is under the cap; blocking slices are covered by
    the candidate's report; and the candidate does not regress vs the
    stable model (everywhere when ``blocking_slices`` is empty, else on
    the blocking slices).
    """
    result = GateResult()
    result.add(
        "shadow_window",
        shadow_served >= gate.min_shadow_requests,
        served=shadow_served,
        required=gate.min_shadow_requests,
    )
    rate = shadow_disagreements / shadow_served if shadow_served else None
    result.add(
        "shadow_disagreement",
        rate is not None and rate <= gate.max_disagreement_rate,
        rate=rate,
        disagreements=shadow_disagreements,
        max_rate=gate.max_disagreement_rate,
    )
    comparison = compare_reports(
        stable_report,
        candidate_report,
        threshold=gate.regression_threshold,
        min_examples=gate.min_examples,
        metrics=gate.metrics,
    )
    if gate.blocking_slices:
        covered = {
            row.tag
            for row in candidate_report.rows
            if row.n >= gate.min_examples
        }
        missing = [t for t in gate.blocking_slices if t not in covered]
        result.add(
            "slice_coverage",
            not missing,
            required=list(gate.blocking_slices),
            uncovered=missing,
        )
        blocking = [
            r for r in comparison.regressions if r.tag in gate.blocking_slices
        ]
    else:
        blocking = list(comparison.regressions)
    result.add(
        "non_regression",
        not blocking,
        regressions=[r.to_dict() for r in blocking],
        advisory=[
            r.to_dict() for r in comparison.regressions if r not in blocking
        ],
        improvements=len(comparison.improvements),
        missing_after=[list(p) for p in comparison.missing_after],
    )
    return result


def ensure_single_tier(pool) -> str:
    """The autopilot heals single-tier deployments; name that tier."""
    if len(pool.tier_order) != 1:
        raise AutopilotError(
            f"autopilot supports single-tier pools; this pool has tiers "
            f"{pool.tier_order}"
        )
    return pool.tier_order[0]
