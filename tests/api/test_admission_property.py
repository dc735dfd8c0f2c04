"""Admission is encodability: a property over generated payloads.

Every payload ``Endpoint.admit_payload`` accepts must go through
``encode_requests`` -> ``forward_raw`` -> ``finalize_outputs`` without
raising, and every payload drawn from the value grammar must be accepted.
Payloads are drawn from a :class:`~repro.core.signature.ServingSignature`:
for each input, a valid value of its kind or a near-valid one (wrong
shapes, nested lists and objects where scalars go, booleans and strings
where numbers go), plus unknown and missing fields.

The grammar, one rule per input kind:

* sequence: null, or a list of at most ``max_length`` JSON scalars
  (string, number, boolean or null);
* set: null, or a list of at most ``max_members`` objects, each with an
  optional scalar ``id`` and an optional ``range`` that is null or
  ``[start, end)`` integers with ``0 <= start < end``;
* singleton with ``dim``: null, or exactly ``dim`` numbers (integers or
  floats that fit a float64).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given

from repro.api import Endpoint
from repro.core import ModelConfig, PayloadConfig, Schema, TrainerConfig
from repro.core.signature import ServingSignature
from repro.data import Vocab
from repro.deploy.artifact import ModelArtifact
from repro.errors import DataError, DeploymentError
from repro.model import compile_model

from tests.api.payload_strategies import payloads
from tests.fixtures import factoid_schema

# ----------------------------------------------------------------------
# The endpoints: the factoid schema, and one with a raw feature vector
# ----------------------------------------------------------------------
def vector_schema() -> Schema:
    """A sequence, a set over it and a 3-wide raw singleton."""
    return Schema.from_dict(
        {
            "payloads": {
                "words": {"type": "sequence", "max_length": 5},
                "feats": {"type": "singleton", "dim": 3},
                "spans": {"type": "set", "range": "words", "max_members": 2},
            },
            "tasks": {
                "Tag": {"payload": "words", "type": "multiclass", "classes": ["a", "b"]},
                "Kind": {
                    "payload": "feats",
                    "type": "bitvector",
                    "classes": ["x", "y", "z"],
                },
                "Pick": {"payload": "spans", "type": "select"},
            },
        }
    )


def untrained_artifact(schema: Schema) -> ModelArtifact:
    vocabs = {
        p.name: Vocab(["how", "tall", "paris", 1, True])
        for p in schema.payloads
        if p.type in ("sequence", "set")
    }
    config = ModelConfig(
        payloads={p.name: PayloadConfig(size=6) for p in schema.payloads},
        trainer=TrainerConfig(epochs=1),
    )
    return ModelArtifact.from_model(compile_model(schema, config, vocabs), vocabs)


@pytest.fixture(scope="module")
def endpoints():
    return {
        (name, dtype): Endpoint(untrained_artifact(schema()), dtype=dtype)
        for name, schema in (("factoid", factoid_schema), ("vector", vector_schema))
        for dtype in ("float64", "float32")
    }


def serve_one(endpoint: Endpoint, payload) -> list:
    items, batch = endpoint.encode_requests([payload])
    return endpoint.finalize_outputs(endpoint.forward_raw(batch), items)


FACTOID = ServingSignature.from_schema(factoid_schema())
VECTOR = ServingSignature.from_schema(vector_schema())


def admitted_payload_encodes(endpoint: Endpoint, payload) -> None:
    try:
        endpoint.admit_payload(payload)
    except (DeploymentError, DataError):
        return
    (reply,) = serve_one(endpoint, payload)
    assert set(reply) == {o.name for o in endpoint.signature.outputs}


def grammar_payload_is_admitted(endpoint: Endpoint, payload) -> None:
    endpoint.admit_payload(payload)
    (reply,) = serve_one(endpoint, payload)
    assert set(reply) == {o.name for o in endpoint.signature.outputs}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestFactoid:
    @given(payload=payloads(FACTOID, near=True))
    # What reached the encoder and raised before the value rule covered
    # what it can hash: nested and object tokens, list and object ids.
    @example(payload={"tokens": [["what"], "is"], "entities": []})
    @example(payload={"tokens": ["what", {"is": 1}], "entities": []})
    @example(payload={"tokens": ["paris"], "entities": [{"id": ["Paris"], "range": [0, 1]}]})
    @example(payload={"tokens": ["paris"], "entities": [{"id": {"name": "Paris"}}]})
    def test_every_admitted_payload_encodes(self, endpoints, dtype, payload):
        admitted_payload_encodes(endpoints["factoid", dtype], payload)

    @given(payload=payloads(FACTOID, near=False))
    def test_every_grammar_payload_is_admitted(self, endpoints, dtype, payload):
        grammar_payload_is_admitted(endpoints["factoid", dtype], payload)


# A float past float32's range is a number in the grammar: a float32
# endpoint casts it to inf, which numpy reports and the reply survives.
@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestVector:
    @given(payload=payloads(VECTOR, near=True))
    @example(payload={"words": [], "feats": [1, 2, 2**1100], "spans": []})
    @example(payload={"words": ["a"], "feats": None, "spans": [{"range": [0, 2**70]}]})
    def test_every_admitted_payload_encodes(self, endpoints, dtype, payload):
        admitted_payload_encodes(endpoints["vector", dtype], payload)

    @given(payload=payloads(VECTOR, near=False))
    def test_every_grammar_payload_is_admitted(self, endpoints, dtype, payload):
        grammar_payload_is_admitted(endpoints["vector", dtype], payload)
