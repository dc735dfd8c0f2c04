"""Columnar finalize against the per-record oracle, byte for byte.

``Endpoint.finalize_outputs`` formats each task once per batch; the oracle
(``tests/api/finalize_oracle.py``) is the per-(record, task) loop it
replaced.  Every response must be ``json.dumps``-equal to the oracle's —
for every task kind the schema language has (sequence and singleton
multiclass, sequence and singleton bitvector, select), for null payloads
and empty sets, with joint constraints on, in float32, at several batch
sizes — and the work must not grow with Python calls per record.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Endpoint
from repro.core import ModelConfig, PayloadConfig, Schema, TrainerConfig
from repro.core.constraints import Constraint, ConstraintSet
from repro.data import Dataset
from repro.data.record import Record
from repro.deploy.artifact import ModelArtifact
from repro.serve.shm import RawTaskOutput

from tests.api.finalize_oracle import format_responses
from tests.fixtures import compile_from_dataset, factoid_schema, mini_dataset
from tests.helpers import python_calls

SIZES = (1, 2, 7, 32)
TOPICS = ["news", "sport", "weather"]


def schema_with_every_task_kind() -> Schema:
    """The factoid schema plus a singleton bitvector task."""
    spec = factoid_schema().to_dict()
    spec["tasks"]["Topics"] = {
        "payload": "query",
        "type": "bitvector",
        "classes": TOPICS,
    }
    return Schema.from_dict(spec)


def forbid_first_member() -> ConstraintSet:
    """A constraint an untrained model violates often: member 0 is only
    selectable under the first intent."""
    return ConstraintSet(
        [
            Constraint(
                name="first-member-needs-first-intent",
                tasks=("Intent", "IntentArg"),
                check=lambda a, _record: a["IntentArg"] != 0 or a["Intent"] == 0,
                weight=50.0,
            )
        ]
    )


@pytest.fixture(scope="module")
def setup():
    """An (untrained) artifact of the five-kind schema + request payloads."""
    base = mini_dataset(n=40, seed=0)
    dataset = Dataset(schema_with_every_task_kind(), base.records)
    config = ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=8),
            "query": PayloadConfig(size=8),
            "entities": PayloadConfig(size=8),
        },
        trainer=TrainerConfig(epochs=1, batch_size=16),
    )
    model, vocabs = compile_from_dataset(dataset, config)
    payloads = []
    for i, record in enumerate(base.records):
        tokens, entities = record.payloads["tokens"], record.payloads["entities"]
        if i % 6 == 1:
            tokens, entities = None, None  # null payloads
        elif i % 5 == 2:
            entities = []  # a select task with no members
        elif i % 7 == 3:
            entities = None
        payloads.append({"tokens": tokens, "entities": entities})
    return ModelArtifact.from_model(model, vocabs), payloads


@pytest.fixture(scope="module")
def endpoints(setup):
    artifact, _ = setup
    return {
        (dtype, constrained): Endpoint(
            artifact,
            dtype=dtype,
            constraints=forbid_first_member() if constrained else None,
        )
        for dtype in ("float64", "float32")
        for constrained in (False, True)
    }


def assert_same_bytes(got, expected) -> None:
    assert json.dumps(got) == json.dumps(expected)


class TestAgainstTheOracle:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("constrained", [False, True], ids=["free", "constrained"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_model_outputs(self, setup, endpoints, dtype, constrained, n):
        _, payloads = setup
        endpoint = endpoints[dtype, constrained]
        assert endpoint.dtype_name == dtype
        records, batch = endpoint.encode_requests(payloads[:n])
        outputs = endpoint.forward_raw(batch)
        # finalize rewrites constrained predictions in place; the oracle
        # formats the arrays as finalize left them.
        got = endpoint.finalize_outputs(outputs, records)
        assert outputs["Intent"].probs.dtype == np.dtype(dtype)
        assert_same_bytes(got, format_responses(endpoint, outputs, records))

    def test_constraints_rewrite_what_is_formatted(self, setup, endpoints):
        """The constrained case above is not vacuous: the constraint moves
        some IntentArg answers, and finalize reports the moved ones."""
        _, payloads = setup
        free = endpoints["float64", False].predict(payloads)
        constrained = endpoints["float64", True].predict(payloads)
        moved = [
            i
            for i, (a, b) in enumerate(zip(free, constrained))
            if a["IntentArg"]["index"] != b["IntentArg"]["index"]
        ]
        assert moved
        assert all(constrained[i]["IntentArg"]["index"] != 0 for i in moved)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_arrays(self, endpoints, seed):
        """Arbitrary outputs and lengths, including sequences longer and
        shorter than the batch's positions and sets of 0 to 4 members."""
        rng = np.random.default_rng(seed)
        endpoint = endpoints["float64", False]
        n = int(rng.integers(1, 33))
        positions = int(rng.integers(1, 14))
        records = []
        for _ in range(n):
            length, members = int(rng.integers(0, 13)), int(rng.integers(0, 5))
            tokens = None if length == 0 and rng.random() < 0.5 else ["w"] * length
            entities = None if members == 0 and rng.random() < 0.5 else [{}] * members
            records.append(Record(payloads={"tokens": tokens, "entities": entities}))
        dtype = np.float32 if seed % 2 else np.float64
        classes = {o.name: len(o.classes) for o in endpoint.signature.outputs}

        def probs(*shape):
            return rng.random(shape).astype(dtype)

        def bits(*shape):
            return (rng.random(shape) < 0.4).astype(np.int64)

        outputs = {
            "POS": RawTaskOutput(
                probs(n, positions, classes["POS"]),
                rng.integers(0, classes["POS"], (n, positions)),
            ),
            "EntityType": RawTaskOutput(
                probs(n, positions, classes["EntityType"]),
                bits(n, positions, classes["EntityType"]),
            ),
            "Intent": RawTaskOutput(
                probs(n, classes["Intent"]),
                rng.integers(0, classes["Intent"], n),
            ),
            "IntentArg": RawTaskOutput(probs(n, 4), rng.integers(0, 4, n)),
            "Topics": RawTaskOutput(
                probs(n, len(TOPICS)), bits(n, len(TOPICS))
            ),
        }
        got = endpoint.finalize_outputs(outputs, records)
        assert_same_bytes(got, format_responses(endpoint, outputs, records))


def test_finalize_has_no_per_record_python(setup, endpoints):
    """Formatting is per task, not per (record, task): 31 more records
    cost at most 3 Python calls each (on the serve_light artifact the
    per-record loop made 526 calls at n = 32 against 17 at n = 1)."""
    _, payloads = setup
    endpoint = endpoints["float64", False]
    calls = {}
    for n in (1, 32):
        records, batch = endpoint.encode_requests(payloads[:n])
        outputs = endpoint.forward_raw(batch)
        calls[n] = python_calls(endpoint.finalize_outputs, outputs, records)
    assert calls[32] <= calls[1] + 3 * 31, calls
