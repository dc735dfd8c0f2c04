"""Declarative policy for the self-healing loop: triggers and gates.

The supervisor never improvises.  Everything it is allowed to do — when
to suspect the deployed model (triggers), how to build a replacement
(retrain plan), and what a replacement must prove before taking traffic
(promotion gate) — is declared up front in a :class:`HealPolicy`.  The
policy is plain data: it serializes to/from JSON so operators can review
and version the loop's rules like any other config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import ModelConfig, TuningSpec
from repro.core.codec import Spec
from repro.errors import AutopilotError


@dataclass(frozen=True)
class DriftTrigger(Spec, error=AutopilotError):
    """Fire when a payload's live distribution leaves the reference one.

    ``vocab`` names the vocabulary used for OOV accounting; it defaults
    to the payload name.
    """

    payload: str = "tokens"
    js_threshold: float = 0.1
    oov_jump_threshold: float = 0.05
    vocab: str | None = None

    def __post_init__(self) -> None:
        if self.js_threshold < 0 or self.oov_jump_threshold < 0:
            raise AutopilotError("drift thresholds must be non-negative")


@dataclass(frozen=True)
class RegressionTrigger(Spec, error=AutopilotError):
    """Fire when an observed labeled-eval report regresses vs baseline.

    Live labeled evaluation arrives out of band (crowd labels, user
    feedback); the supervisor compares each observed report against its
    baseline with these parameters.  ``slices`` optionally restricts the
    watch to specific tags.
    """

    threshold: float = 0.02
    min_examples: int = 5
    metrics: tuple[str, ...] | None = None
    slices: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise AutopilotError("regression threshold must be non-negative")


@dataclass(frozen=True)
class RetrainPlan(Spec, error=AutopilotError):
    """How to build a candidate once a trigger fires.

    ``candidates`` lists explicit configs to score through the cached
    executor; empty means "retrain the currently-deployed config".
    ``spec`` switches to a full tuning search instead.  ``include_live``
    mixes sampled live payloads (labeled by the supervisor's labeler,
    tagged ``live_tag`` + "train") into the retrain set — that is what
    heals vocabulary drift, since vocabs are rebuilt over the union.

    ``retries`` / ``retry_backoff_s`` / ``on_error`` flow straight into
    the trial executor: an unattended retrain defaults to one retry and
    ``on_error="skip"`` so a single flaky trial degrades the search
    instead of failing the whole heal (see
    :meth:`repro.exec.TrialExecutor.evaluate`).
    """

    candidates: tuple[ModelConfig, ...] = ()
    spec: TuningSpec | None = None
    strategy: str = "grid"
    num_trials: int = 4
    workers: int = 1
    cache_dir: str | None = None
    include_live: bool = True
    max_live_records: int = 512
    live_tag: str = "live"
    retries: int = 1
    retry_backoff_s: float = 0.0
    on_error: str = "skip"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise AutopilotError("retrain workers must be >= 1")
        if self.max_live_records < 0:
            raise AutopilotError("max_live_records must be >= 0")
        if self.retries < 0:
            raise AutopilotError("retrain retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise AutopilotError("retry_backoff_s must be non-negative")
        if self.on_error not in ("raise", "skip"):
            raise AutopilotError(
                f"on_error must be 'raise' or 'skip', got {self.on_error!r}"
            )


@dataclass(frozen=True)
class PromotionGate(Spec, error=AutopilotError):
    """What a candidate must prove before it takes traffic.

    Two kinds of evidence feed the gate: live shadow disagreement (the
    candidate answered mirrored traffic; how often did it differ?) and a
    per-slice quality comparison against the stable model's report on the
    same healed dataset.  ``blocking_slices`` names tags that must both
    be *covered* (>= ``min_examples`` gold-labeled rows in the candidate
    report) and non-regressing; when empty, any regression anywhere
    blocks — automated changes are only safe when gated by measurable
    coverage of the scenarios they might break.
    """

    max_disagreement_rate: float = 0.05
    min_shadow_requests: int = 32
    shadow_timeout_s: float = 600.0
    regression_threshold: float = 0.01
    min_examples: int = 5
    metrics: tuple[str, ...] | None = None
    blocking_slices: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_disagreement_rate <= 1.0:
            raise AutopilotError("max_disagreement_rate must be in [0, 1]")
        if self.min_shadow_requests < 1:
            raise AutopilotError("min_shadow_requests must be >= 1")
        if self.shadow_timeout_s <= 0:
            raise AutopilotError("shadow_timeout_s must be positive")


@dataclass(frozen=True)
class HealPolicy(Spec, error=AutopilotError):
    """The complete rulebook for one supervised deployment.

    ``min_live_window`` is the number of sampled live payloads required
    before drift triggers are even evaluated; ``cooldown_s`` is the
    mandatory quiet period after any heal attempt (promoted, rejected,
    failed, or dry-run); ``max_promotions`` is the promotion budget —
    once spent, the supervisor pauses itself rather than keep shipping.

    Heal *failures* escalate: after the k-th consecutive ``heal_failed``
    the cooldown doubles (``cooldown_s * 2**(k-1)``, capped at
    ``heal_backoff_cap_s``), and after ``max_heal_failures`` of them the
    supervisor auto-pauses — a heal that keeps dying needs a human, not
    an infinite retry loop (``None`` disables the auto-pause).
    """

    drift_triggers: tuple[DriftTrigger, ...] = (DriftTrigger(),)
    regression_trigger: RegressionTrigger | None = None
    min_live_window: int = 32
    cooldown_s: float = 300.0
    max_promotions: int | None = None
    retrain: RetrainPlan = field(default_factory=RetrainPlan)
    gate: PromotionGate = field(default_factory=PromotionGate)
    heal_backoff_cap_s: float = 3600.0
    max_heal_failures: int | None = 3

    def __post_init__(self) -> None:
        if self.min_live_window < 1:
            raise AutopilotError("min_live_window must be >= 1")
        if self.cooldown_s < 0:
            raise AutopilotError("cooldown_s must be non-negative")
        if self.max_promotions is not None and self.max_promotions < 0:
            raise AutopilotError("max_promotions must be >= 0")
        if self.heal_backoff_cap_s < 0:
            raise AutopilotError("heal_backoff_cap_s must be non-negative")
        if self.max_heal_failures is not None and self.max_heal_failures < 1:
            raise AutopilotError("max_heal_failures must be >= 1 (or None)")
