"""Declarative, seeded fault plans: what breaks, where, when, how often.

A :class:`FaultPlan` is the chaos-engineering analogue of a
:class:`~repro.autopilot.HealPolicy` or a
:class:`~repro.workloads.synth.WorkloadSpec`: plain frozen data that
round-trips through JSON, so a fault storm can be reviewed, versioned,
and replayed byte-identically.  Each :class:`FaultRule` targets one named
fault point (``"replica.serve"``, ``"exec.trial"``, ``"store.fetch"``)
and declares a fault kind, a deterministic arming window (``after`` /
``max_fires``), and an optional seeded firing probability (``rate``).

Plans do nothing on their own — :func:`repro.faults.install` arms the
named points, and instrumented call sites pay one boolean branch per hit
while no plan is installed (the ``repro.obs`` cost discipline).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.codec import Spec
from repro.errors import FaultError

#: Fault kinds a rule may inject.
KINDS = ("error", "latency", "crash", "io_error")


@dataclass(frozen=True)
class FaultRule(Spec, error=FaultError):
    """One fault declaration against one named fault point.

    ``kind`` selects the injected failure: ``"error"`` raises
    :class:`~repro.faults.InjectedFault` (an arbitrary infrastructure
    exception), ``"crash"`` raises :class:`~repro.faults.InjectedCrash`
    (models a worker process dying mid-task, transient by definition),
    ``"io_error"`` raises ``OSError`` (models storage-layer failures),
    and ``"latency"`` sleeps ``latency_s`` without failing.

    The firing window is deterministic: the first ``after`` matching hits
    pass untouched, then each hit fires with probability ``rate`` (drawn
    from the rule's own seeded stream, so the decision sequence is a pure
    function of plan seed + per-point hit order), and the rule disarms
    after ``max_fires`` firings.  ``match`` restricts the rule to hits
    whose labels carry the given values (e.g. ``{"tier": "small"}``).
    """

    point: str
    kind: str = "error"
    rate: float = 1.0
    after: int = 0
    max_fires: int | None = None
    latency_s: float = 0.0
    message: str = "injected fault"
    match: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.point or not isinstance(self.point, str):
            raise FaultError("a fault rule needs a non-empty point name")
        if self.kind not in KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultError(f"rate must be in [0, 1], got {self.rate}")
        if self.after < 0:
            raise FaultError(f"after must be >= 0, got {self.after}")
        if self.max_fires is not None and self.max_fires < 1:
            raise FaultError(f"max_fires must be >= 1, got {self.max_fires}")
        if self.latency_s < 0:
            raise FaultError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.kind == "latency" and self.latency_s == 0:
            raise FaultError("a latency rule needs latency_s > 0")

    def matches(self, labels: dict) -> bool:
        """Whether a hit carrying ``labels`` is eligible for this rule."""
        return all(str(labels.get(key)) == value for key, value in self.match)

    # ``match`` is a ``{label: value}`` object in JSON, sorted pairs here.
    def to_dict(self) -> dict:
        return {**super().to_dict(), "match": dict(self.match)}

    @classmethod
    def from_dict(cls, spec: dict) -> "FaultRule":
        if isinstance(spec, dict) and "match" in spec:
            match = spec["match"] or {}
            if not isinstance(match, dict):
                raise FaultError("match must be a {label: value} object")
            pairs = sorted((str(key), str(value)) for key, value in match.items())
            spec = {**spec, "match": tuple(pairs)}
        return super().from_dict(spec)


@dataclass(frozen=True)
class FaultPlan(Spec, error=FaultError):
    """A named, seeded set of fault rules — one whole storm, as data."""

    name: str = "chaos"
    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultError("a fault plan needs a name")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise FaultError(f"seed must be an int, got {self.seed!r}")
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise FaultError(f"rules must be FaultRule instances, got {rule!r}")

    def points(self) -> list[str]:
        """Distinct targeted fault-point names, in first-seen order."""
        seen: list[str] = []
        for rule in self.rules:
            if rule.point not in seen:
                seen.append(rule.point)
        return seen
