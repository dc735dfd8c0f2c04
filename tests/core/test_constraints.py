"""Tests for application-level constraints (the paper's future work)."""

import numpy as np
import pytest

from repro.core import (
    Constraint,
    ConstraintError,
    ConstraintSet,
    intent_argument_compatibility,
)


def parity_constraint(weight=5.0):
    """Toy constraint: tasks A and B must pick the same index."""
    return Constraint(
        name="parity",
        tasks=("A", "B"),
        check=lambda a, ctx: a.get("A") == a.get("B"),
        weight=weight,
    )


class TestConstraintDefinition:
    def test_requires_tasks(self):
        with pytest.raises(ConstraintError):
            Constraint(name="x", tasks=(), check=lambda a, c: True)

    def test_requires_positive_weight(self):
        with pytest.raises(ConstraintError):
            Constraint(name="x", tasks=("A",), check=lambda a, c: True, weight=0)

    def test_duplicate_names_rejected(self):
        cs = ConstraintSet([parity_constraint()])
        with pytest.raises(ConstraintError):
            cs.add(parity_constraint())
        assert len(cs) == 1

    def test_constrained_tasks_deduped(self):
        cs = ConstraintSet(
            [
                parity_constraint(),
                Constraint(name="other", tasks=("B", "C"), check=lambda a, c: True),
            ]
        )
        assert cs.constrained_tasks() == ["A", "B", "C"]


class TestJointDecode:
    def test_no_constraints_returns_argmax(self):
        cs = ConstraintSet()
        result = cs.decode({"A": np.array([0.1, 0.9])})
        assert result.assignment == {"A": 1}

    def test_violation_flipped_when_cheap(self):
        # Independent argmaxes disagree (A->1, B->0) but flipping B to 1
        # costs little probability and saves the big penalty.
        cs = ConstraintSet([parity_constraint(weight=10.0)])
        result = cs.decode(
            {
                "A": np.array([0.05, 0.95]),
                "B": np.array([0.55, 0.45]),
            }
        )
        assert result.assignment == {"A": 1, "B": 1}
        assert result.violations == []
        assert result.changed == {"B": (0, 1)}

    def test_violation_kept_when_expensive(self):
        # With a tiny weight, paying the penalty beats moving probability.
        cs = ConstraintSet([parity_constraint(weight=0.01)])
        result = cs.decode(
            {
                "A": np.array([0.01, 0.99]),
                "B": np.array([0.99, 0.01]),
            }
        )
        assert result.assignment == {"A": 1, "B": 0}
        assert result.violations == ["parity"]

    def test_unconstrained_task_untouched(self):
        cs = ConstraintSet([parity_constraint(weight=10.0)])
        result = cs.decode(
            {
                "A": np.array([0.4, 0.6]),
                "B": np.array([0.6, 0.4]),
                "C": np.array([0.2, 0.8]),
            }
        )
        assert result.assignment["C"] == 1

    def test_top_k_bounds_search(self):
        # Weight 10: large enough to matter, small enough that the decoder
        # will not jump to a ~zero-probability option just to satisfy it.
        cs = ConstraintSet([parity_constraint(weight=10.0)])
        # The consistent option for B is its 3rd choice; top_k=2 can't see it.
        dists = {
            "A": np.array([0.0, 0.0, 1.0]),
            "B": np.array([0.5, 0.4, 0.1]),
        }
        shallow = cs.decode(dists, top_k=2)
        assert shallow.violations == ["parity"]
        deep = cs.decode(dists, top_k=3)
        assert deep.violations == []
        assert deep.assignment["B"] == 2

    def test_invalid_top_k(self):
        with pytest.raises(ConstraintError):
            ConstraintSet([parity_constraint()]).decode({"A": np.ones(2)}, top_k=0)

    def test_violation_rate(self):
        cs = ConstraintSet([parity_constraint()])
        examples = [
            {"A": np.array([0.9, 0.1]), "B": np.array([0.9, 0.1])},  # consistent
            {"A": np.array([0.9, 0.1]), "B": np.array([0.1, 0.9])},  # violated
        ]
        assert cs.violation_rate(examples) == 0.5
        assert cs.violation_rate([]) == 0.0


# The context an endpoint passes: the request's payload mapping.
PAYLOAD = {"entities": [{"category": "person"}, {"category": "country"}]}


class TestIntentArgumentCompatibility:
    def make(self):
        def lookup(payload, idx):
            members = payload.get("entities") or []
            return members[idx]["category"] if idx < len(members) else None

        return intent_argument_compatibility(
            intent_classes=["height", "capital"],
            candidate_categories_of=lookup,
            intent_category={"height": ("person",), "capital": ("country",)},
        )

    def test_compatible_passes(self):
        c = self.make()
        assert c.check({"Intent": 0, "IntentArg": 0}, PAYLOAD)  # height/person
        assert c.check({"Intent": 1, "IntentArg": 1}, PAYLOAD)  # capital/country

    def test_incompatible_fails(self):
        c = self.make()
        assert not c.check({"Intent": 0, "IntentArg": 1}, PAYLOAD)  # height/country

    def test_unknown_candidate_passes(self):
        c = self.make()
        assert c.check({"Intent": 0, "IntentArg": 9}, PAYLOAD)

    def test_missing_tasks_pass(self):
        c = self.make()
        assert c.check({"Intent": 0}, PAYLOAD)

    def test_joint_decode_fixes_incompatible_pair(self):
        c = self.make()
        cs = ConstraintSet([c])
        # Model slightly prefers an incompatible pair.
        result = cs.decode(
            {
                "Intent": np.array([0.55, 0.45]),  # height
                "IntentArg": np.array([0.45, 0.55]),  # country (incompatible)
            },
            context=PAYLOAD,
        )
        intent, arg = result.assignment["Intent"], result.assignment["IntentArg"]
        assert (intent, arg) in {(0, 0), (1, 1)}  # a compatible pair
        assert result.violations == []
