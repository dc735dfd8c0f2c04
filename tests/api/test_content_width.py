"""A served batch is as wide as its content.

``Endpoint.encode_requests`` cuts each sequence to the batch's content
width (:func:`~repro.data.batching.narrow_to_content`): its longest live
row, or the furthest live span end of a set over it.  The property: the
replies are the ones the ``max_length``-padded batch gives
(``encode_inputs`` + ``forward_raw`` + ``finalize_outputs``), for every
sequence encoder and query pooling, under float64 and float32, on batches
drawn from the serving signature.

* Byte-equal (``json.dumps`` equality) for the ``bow``, ``cnn``, ``lstm``,
  ``bilstm`` and ``gru`` encoders under ``mean`` and ``max`` pooling.
  The one width-dependent rounding left there is inside a sequence task:
  its slice indicators are ``(rows, d) @ (d, 1)`` products, which BLAS
  runs as a matrix-vector kernel whose last ``rows mod 4`` rows take a
  differently rounded path, so a raw probability can move in its last
  bit (``tests/model/test_forward_bits.py`` pins and bounds that).  A reply
  carries a sequence task's labels only, which move only at a tie in the
  last bit.
* With the ``attention`` encoder or ``attention`` pooling, a softmax over
  the key axis sums a different number of exact zeros, so numpy's pairwise
  summation may associate differently: labels and indices stay exact and
  scores move in the last bits.  The largest gaps measured (batch sizes
  1, 7 and 32): 4.4e-16 in float64 and 1.5e-7 in float32; the bounds
  below are ten times that.

Plus two clock-free guards: the LSTM steps over the content, not over
``max_length``, and the shared-memory hand-off of a narrowed batch is
smaller than the padded one.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Endpoint
from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.core.signature import ServingSignature
from repro.data import Vocab, encode_inputs
from repro.deploy.artifact import ModelArtifact
from repro.model import compile_model
from repro.serve.shm import batch_to_arrays, required_bytes
from repro.tensor import dtype_policy

from tests.api.payload_strategies import payloads
from tests.fixtures import factoid_schema

SCHEMA = factoid_schema()
SIGNATURE = ServingSignature.from_schema(SCHEMA)
MAX_LENGTH = SCHEMA.payload("tokens").max_length
ENCODERS = ("bow", "cnn", "lstm", "bilstm", "gru", "attention")
POOLINGS = ("mean", "max", "attention")
# Ten times the largest score difference measured with attention.
SCORE_BOUND = {"float64": 4.4e-15, "float32": 1.5e-6}


def make_endpoint(encoder: str, pooling: str, dtype: str) -> Endpoint:
    """An untrained factoid model with two slices (so the slice heads run)."""
    vocabs = {
        "tokens": Vocab(["how", "tall", "is", "paris", 1, True]),
        "entities": Vocab(["Paris", "Paris_Texas", 1]),
    }
    config = ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder=encoder, size=8),
            "query": PayloadConfig(aggregation=pooling, size=8),
            "entities": PayloadConfig(size=8),
        },
        trainer=TrainerConfig(epochs=1),
        dtype=dtype,
    )
    model = compile_model(SCHEMA, config, vocabs, slice_names=["short", "long"])
    return Endpoint(ModelArtifact.from_model(model, vocabs), micro_batch_size=None)


@pytest.fixture(scope="module")
def endpoints():
    return {
        (encoder, pooling, dtype): make_endpoint(encoder, pooling, dtype)
        for encoder in ENCODERS
        for pooling in POOLINGS
        for dtype in ("float64", "float32")
    }


def served(endpoint: Endpoint, batch: list) -> list:
    items, encoded = endpoint.encode_requests(batch)
    return endpoint.finalize_outputs(endpoint.forward_raw(encoded), items)


def padded(endpoint: Endpoint, batch: list) -> list:
    with dtype_policy(endpoint.dtype_name):
        encoded = encode_inputs(batch, endpoint.artifact.schema, endpoint.artifact.vocabs)
    assert encoded.payloads["tokens"].ids.shape[1] == MAX_LENGTH
    return endpoint.finalize_outputs(endpoint.forward_raw(encoded), batch)


def assert_close(got, want, bound: float) -> None:
    """Structure, labels and indices exact; floats within ``bound``."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= bound, (got, want)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_close(got[key], want[key], bound)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w, bound)
    else:
        assert type(got) is type(want) and got == want, (got, want)


batches = st.lists(payloads(SIGNATURE, near=False), min_size=1, max_size=8)
EMPTY_BATCH = [{"tokens": [], "entities": []}, {"tokens": None, "entities": None}]
MIXED_BATCH = [
    {"tokens": ["how", "tall", "is", "paris"], "entities": [{"id": "Paris", "range": [3, 4]}]},
    {"tokens": ["paris"], "entities": [{"id": "Paris_Texas"}]},
    {"tokens": [], "entities": None},
    {"tokens": ["how"] * MAX_LENGTH, "entities": []},
]
# Spans past the last token (but inside max_length) and past max_length.
# Two members each, so the select scores see every span summary.
PAST_THE_END = [
    {
        "tokens": ["paris"],
        "entities": [{"id": "Paris", "range": [0, 5]}, {"id": "Paris", "range": [2, 3]}],
    },
    {
        "tokens": ["how", "tall"],
        "entities": [{"id": 1, "range": [0, 2**70]}, {"id": "Paris", "range": [1, 2]}],
    },
    {"tokens": None, "entities": [{"range": [MAX_LENGTH + 3, MAX_LENGTH + 9]}, {}]},
]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("encoder", ENCODERS)
class TestNarrowedRepliesMatchPadded:
    @settings(max_examples=25)
    @given(batch=batches)
    @example(batch=EMPTY_BATCH)
    @example(batch=MIXED_BATCH)
    @example(batch=PAST_THE_END)
    @example(batch=MIXED_BATCH + PAST_THE_END + EMPTY_BATCH)
    def test_property(self, endpoints, encoder, dtype, batch):
        for pooling in POOLINGS:
            endpoint = endpoints[encoder, pooling, dtype]
            got, want = served(endpoint, batch), padded(endpoint, batch)
            if "attention" in (encoder, pooling):
                assert_close(got, want, SCORE_BOUND[dtype])
            else:
                assert json.dumps(got) == json.dumps(want)


class TestContentWidth:
    FOUR = [
        {"tokens": ["how", "tall", "is", "paris"], "entities": [{"id": "Paris", "range": [3, 4]}]},
        {"tokens": ["paris"], "entities": []},
    ]

    def test_every_sequence_empty_is_one_column(self, endpoints):
        _, batch = endpoints["lstm", "mean", "float64"].encode_requests(EMPTY_BATCH)
        assert batch.payloads["tokens"].ids.shape == (2, 1)

    def test_a_live_span_past_the_last_token_widens_the_batch(self, endpoints):
        _, batch = endpoints["lstm", "mean", "float64"].encode_requests(PAST_THE_END[:1])
        assert batch.payloads["tokens"].ids.shape == (1, 5)

    def test_the_lstm_steps_over_the_content_not_max_length(self, endpoints, monkeypatch):
        endpoint = endpoints["lstm", "mean", "float64"]
        lstm = endpoint._model.encoders["tokens"].encoder
        steps = []
        run = lstm._run

        def counting_run(data, step_masks, saved):
            steps.append(data.shape[1])
            return run(data, step_masks, saved)

        monkeypatch.setattr(lstm, "_run", counting_run)
        served(endpoint, self.FOUR)
        assert steps == [4] and MAX_LENGTH > 4

    def test_the_worker_hand_off_carries_fewer_bytes(self, endpoints):
        endpoint = endpoints["lstm", "mean", "float64"]
        _, narrowed = endpoint.encode_requests(self.FOUR)
        full = encode_inputs(self.FOUR, SCHEMA, endpoint.artifact.vocabs)
        narrow_bytes = required_bytes(batch_to_arrays(narrowed)[0])
        assert narrow_bytes < required_bytes(batch_to_arrays(full)[0])
