"""Application-level constraints: the paper's stated future work.

"Supporting more complex, application-level constraints seems ideally
suited to an SRL approach, and is future work for Overton" (§4, §5).  This
module implements that extension in the spirit of DeepDive/Markov Logic:
declarative *soft constraints* over the joint outputs of multiple tasks,
applied at inference time by rescoring joint configurations.

A constraint scores a joint assignment of task predictions for one example;
violations subtract ``weight`` from the joint log-score.  Inference
enumerates the top-k options per constrained task (the per-task
distributions are already computed by the model) and picks the highest
scoring consistent configuration — knowledge-compilation style, no separate
query phase, matching the paper's description of Overton's SRL stance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ReproError


class ConstraintError(ReproError):
    """A constraint definition or application is invalid."""


@dataclass
class Constraint:
    """A soft constraint over a joint assignment.

    ``check(assignment, context)`` returns True when satisfied.  The
    assignment maps task name -> chosen label index; ``context`` is the
    caller-provided per-example context (an endpoint passes the request's
    payload mapping), so checks can inspect candidate entities etc.
    """

    name: str
    tasks: tuple[str, ...]
    check: Callable[[dict[str, int], Any], bool]
    weight: float = 5.0  # log-score penalty when violated

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConstraintError(f"constraint {self.name!r} binds no tasks")
        if self.weight <= 0:
            raise ConstraintError(
                f"constraint {self.name!r}: weight must be positive "
                "(hard constraints use a large weight)"
            )


@dataclass
class JointDecodeResult:
    """One example's constrained decode."""

    assignment: dict[str, int]
    score: float
    violations: list[str] = field(default_factory=list)
    changed: dict[str, tuple[int, int]] = field(default_factory=dict)  # task -> (before, after)


class ConstraintSet:
    """A collection of constraints plus the joint decoder."""

    def __init__(self, constraints: Sequence[Constraint] = ()) -> None:
        names = [c.name for c in constraints]
        if len(set(names)) != len(names):
            raise ConstraintError(f"duplicate constraint names: {names}")
        self.constraints = list(constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def add(self, constraint: Constraint) -> None:
        if any(c.name == constraint.name for c in self.constraints):
            raise ConstraintError(f"constraint {constraint.name!r} already defined")
        self.constraints.append(constraint)

    def constrained_tasks(self) -> list[str]:
        tasks: list[str] = []
        for c in self.constraints:
            for t in c.tasks:
                if t not in tasks:
                    tasks.append(t)
        return tasks

    # ------------------------------------------------------------------
    # Joint decoding
    # ------------------------------------------------------------------
    def decode(
        self,
        distributions: dict[str, np.ndarray],
        context: Any = None,
        top_k: int = 3,
    ) -> JointDecodeResult:
        """Pick the best joint assignment under the constraints.

        ``distributions`` maps task -> probability vector for ONE example.
        Unconstrained tasks keep their argmax.  Constrained tasks are
        jointly rescored over their per-task top-k candidates:

            score(a) = sum_t log p_t(a_t) - sum_violated(weight_c)
        """
        if top_k < 1:
            raise ConstraintError("top_k must be >= 1")
        independent = {
            task: int(np.argmax(probs)) for task, probs in distributions.items()
        }
        constrained = [t for t in self.constrained_tasks() if t in distributions]
        if not constrained or not self.constraints:
            return JointDecodeResult(assignment=independent, score=0.0)

        candidate_lists = []
        for task in constrained:
            probs = np.asarray(distributions[task], dtype=float)
            order = np.argsort(-probs)[: min(top_k, probs.size)]
            candidate_lists.append([(int(i), float(probs[i])) for i in order])

        best: JointDecodeResult | None = None
        for combo in itertools.product(*candidate_lists):
            assignment = dict(independent)
            log_score = 0.0
            for task, (idx, p) in zip(constrained, combo):
                assignment[task] = idx
                log_score += float(np.log(max(p, 1e-12)))
            violations = []
            for constraint in self.constraints:
                if not constraint.check(assignment, context):
                    violations.append(constraint.name)
                    log_score -= constraint.weight
            if best is None or log_score > best.score:
                best = JointDecodeResult(
                    assignment=assignment, score=log_score, violations=violations
                )
        assert best is not None
        best.changed = {
            t: (independent[t], best.assignment[t])
            for t in constrained
            if independent[t] != best.assignment[t]
        }
        return best

    def violation_rate(
        self,
        per_example_distributions: Sequence[dict[str, np.ndarray]],
        contexts: Sequence[Any] | None = None,
    ) -> float:
        """Fraction of examples whose *independent* argmaxes violate any
        constraint — the monitoring number that motivates joint decoding."""
        if not per_example_distributions:
            return 0.0
        contexts = contexts or [None] * len(per_example_distributions)
        violated = 0
        for dists, context in zip(per_example_distributions, contexts):
            assignment = {t: int(np.argmax(p)) for t, p in dists.items()}
            if any(not c.check(assignment, context) for c in self.constraints):
                violated += 1
        return violated / len(per_example_distributions)


# ----------------------------------------------------------------------
# The factoid application's natural constraint
# ----------------------------------------------------------------------
def intent_argument_compatibility(
    intent_classes: Sequence[str],
    candidate_categories_of: Callable[[Any, int], str | None],
    intent_category: dict[str, tuple[str, ...]],
    weight: float = 5.0,
) -> Constraint:
    """Intent and IntentArg must agree: the selected entity's category must
    be compatible with the predicted intent.

    ``candidate_categories_of(context, index)`` resolves a candidate index
    to its category for the current example.
    """

    def check(assignment: dict[str, int], context: Any) -> bool:
        intent_idx = assignment.get("Intent")
        arg_idx = assignment.get("IntentArg")
        if intent_idx is None or arg_idx is None:
            return True
        intent = intent_classes[intent_idx]
        category = candidate_categories_of(context, arg_idx)
        if category is None:
            return True  # unknown candidate: don't penalize
        return category in intent_category.get(intent, ())

    return Constraint(
        name="intent_argument_compatibility",
        tasks=("Intent", "IntentArg"),
        check=check,
        weight=weight,
    )
