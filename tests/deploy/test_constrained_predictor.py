"""Tests for constrained decoding inside the Endpoint."""

import numpy as np
import pytest

from repro.api import Endpoint
from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.deploy import ModelArtifact
from repro.model import compile_from_dataset
from repro.workloads import (
    FactoidGenerator,
    WorkloadConfig,
    factoid_constraints,
)


def permissive(artifact, constraints=None) -> Endpoint:
    return Endpoint(
        artifact, constraints=constraints, strict=False, micro_batch_size=None
    )


@pytest.fixture(scope="module")
def artifact():
    ds = FactoidGenerator(WorkloadConfig(n=40, seed=9)).generate()
    config = ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=8),
            "query": PayloadConfig(size=8),
            "entities": PayloadConfig(size=8),
        },
        trainer=TrainerConfig(epochs=1),
    )
    model, vocabs = compile_from_dataset(ds, config)
    return ModelArtifact.from_model(model, vocabs)


class TestConstrainedPredictor:
    def test_constrained_outputs_satisfy_invariant(self, artifact):
        from repro.workloads.gazetteer import GAZETTEER, INTENT_CATEGORY

        by_id = {e.id: e for e in GAZETTEER}
        endpoint = permissive(artifact, constraints=factoid_constraints(weight=50.0))
        payloads = [
            {
                "tokens": ["what", "is", "the", "capital", "of", "georgia"],
                "entities": [
                    {"id": "Georgia_(state)", "range": [5, 6]},
                    {"id": "Georgia_(country)", "range": [5, 6]},
                ],
            },
            {
                "tokens": ["how", "old", "is", "washington"],
                "entities": [
                    {"id": "George_Washington", "range": [3, 4]},
                    {"id": "Washington_(state)", "range": [3, 4]},
                ],
            },
        ]
        for payload, response in zip(payloads, endpoint.predict(payloads)):
            intent = response["Intent"]["label"]
            index = response["IntentArg"]["index"]
            category = by_id[payload["entities"][index]["id"]].category
            assert category in INTENT_CATEGORY[intent]

    def test_without_constraints_unchanged(self, artifact):
        plain = permissive(artifact)
        constrained = permissive(artifact, constraints=factoid_constraints(weight=1e-9))
        payload = {
            "tokens": ["how", "tall", "is", "everest"],
            "entities": [{"id": "Mount_Everest", "range": [3, 4]}],
        }
        # With a negligible weight the constrained path must agree with the
        # plain path (penalty never outweighs probability).
        assert (
            plain.predict_one(payload)["IntentArg"]["index"]
            == constrained.predict_one(payload)["IntentArg"]["index"]
        )

    def test_empty_constraint_set_is_noop(self, artifact):
        from repro.core import ConstraintSet

        endpoint = permissive(artifact, constraints=ConstraintSet())
        response = endpoint.predict_one(
            {"tokens": ["how", "tall", "is", "everest"],
             "entities": [{"id": "Mount_Everest", "range": [3, 4]}]}
        )
        assert "Intent" in response

    def test_sequence_tasks_never_constrained(self, artifact):
        """POS (sequence) output shape is unaffected by constrained decode."""
        endpoint = permissive(artifact, constraints=factoid_constraints())
        response = endpoint.predict_one(
            {"tokens": ["how", "tall", "is", "everest"],
             "entities": [{"id": "Mount_Everest", "range": [3, 4]}]}
        )
        assert len(response["POS"]["labels"]) == 4
