"""Bit pins of the model forward on a sliced factoid model.

Every array a forward returns is pinned by the sha256 of its bytes: the
tape-free serving forward (``Endpoint.forward_raw``: each task's ``probs``
and ``predictions``) of a batch padded to ``max_length`` and of the same
batch as ``Endpoint.encode_requests`` serves it (cut to its content
width), and the taped training forward of the same batches (each task's
logits, probs and predictions, the loss and every parameter gradient), for
a bag-of-words and an LSTM encoder, float64 and float32, at batch sizes 1,
2 and 32.  Both paths share ``SliceAwareHead._run``, so a
rewrite of the head, the encoders or the module glue that moves one bit of
one float fails here.

The digests hash IEEE bit patterns and hold for the numpy/BLAS build they
were pinned under (numpy 2.4.6, scipy-openblas 0.3.31, x86-64).  The
float32 digests were re-pinned once the slice head's attention pad was
allocated in the scores' dtype: before, a float64 pad promoted the float32
slice softmax to float64.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import Endpoint
from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.data.batching import encode_inputs
from repro.data.encoded import EncodedDataset
from repro.tensor import dtype_policy
from repro.training.trainer import _cast_targets, _slice_targets
from repro.workloads import resolve_workload

from tests.helpers import python_calls

SIZES = (1, 2, 32)
DTYPES = ("float64", "float32")
ENCODERS = {"bow": 24, "lstm": 16}

FORWARD_RAW = {
    "bow-float64-n1": "6110c79b33a9520ab8efad5556dcaa4107773ce37ffb269c30fb0bdc8c1537ff",
    "bow-float64-n2": "86ea0bfadc85d037fae2f49283f9aa8b88ffa1fab7aa23c7ba50c6641e0eb5dc",
    "bow-float64-n32": "927ebc82d60e5d5928d46a4bd40ba822c64a54581dcc56d927445a403753d0f3",
    "bow-float32-n1": "97567c1a7a4818223d3f58d9f282a3d108189ba29973ac29bd665f56faef7a9f",
    "bow-float32-n2": "066eaf6f4e6624f4ba6efbbe8240360e1409483410bc7d6e9c5c3f55677aac6a",
    "bow-float32-n32": "8ac3aa001d41ff1afc3393efc9dc0f11084bbc5d67ed277d9d5cf7f54e6023d3",
    "lstm-float64-n1": "14d93701dfa1fc1ac4ed1c07e3add0f1323e4a51b8b8f31ee340e4c792cfee8e",
    "lstm-float64-n2": "6fcc48d84033e486f1d6413f05b49e1415324986d59213e3e8c98a3406e6a3b0",
    "lstm-float64-n32": "5724e99dfb8703bd6526314dcff1812d78ca1ba02482fdb35e3a8f5192d9e19b",
    "lstm-float32-n1": "990f46138ba14c3fe9bc76dbc401217ac37d5a16573c8b22bcb5d1c674f5160f",
    "lstm-float32-n2": "1d2cdad71072e44adfa0d8bf3f9134680529dddbe701754273304cde997fc9e3",
    "lstm-float32-n32": "a8b9fcd85f9d325615c5767ca2974393257cb75ad44dae3f79ab3ef592c426b3",
}
TAPED = {
    "bow-float64-n1": "09d05ff2f389169d2795990e25b0b33c272552d9dd9661c72a267fe788da59c8",
    "bow-float64-n2": "1186051ca03e3d41a5f061c8b3e7a3662308664f290b478492c40ee511d864e0",
    "bow-float64-n32": "7a0c6ff6eddd8f067e73e29e65f8d99b0f3faacaf2dbc61c81af5b39a81012ed",
    "bow-float32-n1": "70bca8d2d4b8084457cb9efbf494d5aa0e7fc03ea17a581303e2344a358edca5",
    "bow-float32-n2": "783543a2ed6e24df775b559cdcd0542f615189bbf7668bb98917f02667e47fd9",
    "bow-float32-n32": "442b88436262fd27ea24dd35c71056b499e16373b0eee16d146354270ccb8cf0",
    "lstm-float64-n1": "adbfe9a6ba7f6af8dfde94b311957578ed7e155159405ad3e80536a7cf89fe2f",
    "lstm-float64-n2": "8f58bb1adc2e03fa42a46c90c3954963a3d6ae4f31eb7e7f969c516203731127",
    "lstm-float64-n32": "f60fef23774db0d4ead12779ac21e3be9304f9a41d62bf5ff17814658d3165f2",
    "lstm-float32-n1": "9d39262d0ede14fe3d7492fd29728a7433c114ba4774c372ddfcdc682134df4d",
    "lstm-float32-n2": "900ac4d791eb4da426f0d0fb241da8d73e29a4fa48a5fab5cae24fdd174f3617",
    "lstm-float32-n32": "cc8c36cb65adff007940cd6da586209a0cbe04eb925c8ed73108633bf8bfe9df",
}
FORWARD_SERVED = {
    "bow-float64-n1": "8223afdb095856d892d1a46bfb24d4672573a480d8d1ee0d6ab033293de800e8",
    "bow-float64-n2": "359935e0409de2a24a35de7febe0ac2d4fabeca1bd5f4400f7bb95fed905a91b",
    "bow-float64-n32": "dbd83263ce93a42c9d2abb1aedfb98bead9356a2024f02da32619fbfbb6ed62f",
    "bow-float32-n1": "9ccf8f5527ca871eb54e692d4385bb26a431daa1caa58cfaa0e3abe95f9192dd",
    "bow-float32-n2": "a9a942cb87c9c616e7e35392aa651397e1d83cb09ea1f171996b59b49df321ba",
    "bow-float32-n32": "7e588240d6316e4176a64eb44d06bf9fd5f4bc5eb3116c179ed6a2234218fe6f",
    "lstm-float64-n1": "dfb46faf28ed49c5976e4e367ec23b9c85706c37f370bdc77cae7ac10ba6f44d",
    "lstm-float64-n2": "83170959e6918484ba8eae4a54e7306eb561d251d023583f239dcecfc2069445",
    "lstm-float64-n32": "ff968f274fb7e34c06d405ffbc47a90dc95fad289927ad9d1feb9f7ab3def5d4",
    "lstm-float32-n1": "bb9c953ae0fd1a56ead3a4ace67c7034e295502c68f0ea6425a17e5b2ec51de4",
    "lstm-float32-n2": "9d6c8659d18a18b89b93e06d29a47d756aea5ac858d1a5129e690b56d0b22e4a",
    "lstm-float32-n32": "c73e9ffe62175fe9306d46054c8c1aa3b384d79ff4f1f6fe42855cae7355331d",
}

# How far a served (content-width) forward's probabilities may sit from the
# padded one's: ten times the largest gap measured on these models.
SERVED_BOUND = {"float64": 4.2e-16, "float32": 3.0e-7}

# Python function calls per ``Endpoint.forward_raw`` on the fixture, the same
# for a batch of 1 and of 32 (no per-row Python; rows pad to one length).
# Before the tape-free forward shed its module glue (the per-predict mode
# walk, numpy's Python wrappers on tiny arrays, per-slice confidences, a
# Tensor per op) the counts were 513 (bow) and 600 (lstm).
FORWARD_RAW_CALLS = {"bow": 233, "lstm": 318}


def digest(arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def config(encoder: str) -> ModelConfig:
    """The serve workloads' model, with dropout on so the taped forward draws."""
    size = ENCODERS[encoder]
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder=encoder, size=size, dropout=0.1),
            "query": PayloadConfig(size=size, dropout=0.1),
            "entities": PayloadConfig(size=size),
        },
        trainer=TrainerConfig(epochs=1, batch_size=32, lr=0.05),
    )


def fit(encoder: str) -> tuple:
    """A one-epoch fit of a three-slice factoid application."""
    built = resolve_workload("factoid", scale=120, seed=7)
    app = built.application
    assert len(app.slices.names) == 3
    data = app.prepare(built.dataset)
    run = app.fit_prepared(data, config(encoder))
    return encoder, app, data, run.artifact()


@pytest.fixture(scope="module", params=sorted(ENCODERS))
def trained(request):
    return fit(request.param)


def request_payloads(endpoint: Endpoint, records, n: int) -> list[dict]:
    names = [spec.name for spec in endpoint.signature.inputs]
    return [{name: r.payloads[name] for name in names} for r in records[:n]]


def encoded(endpoint: Endpoint, records, n: int):
    """The first ``n`` records as a request batch padded to ``max_length``."""
    with dtype_policy(endpoint.dtype_name):
        return encode_inputs(
            request_payloads(endpoint, records, n),
            endpoint.artifact.schema,
            endpoint.artifact.vocabs,
        )


def served(endpoint: Endpoint, records, n: int):
    """The first ``n`` records as the endpoint encodes a request batch."""
    return endpoint.encode_requests(request_payloads(endpoint, records, n))[1]


def forward_raw_digest(artifact, records, dtype: str, n: int, encode=encoded) -> str:
    endpoint = Endpoint(artifact, dtype=dtype)
    outputs = endpoint.forward_raw(encode(endpoint, records, n))
    return digest(
        array
        for task in sorted(outputs)
        for array in (outputs[task].probs, outputs[task].predictions)
    )


def taped_digest(artifact, app, data, dtype: str, n: int) -> str:
    model = artifact.build_model().to_dtype(dtype)
    model.train()
    idx = np.arange(n)
    with dtype_policy(model.dtype):
        batch = EncodedDataset(data.train_records, app.schema, data.vocabs).batch(idx)
    targets = _slice_targets(_cast_targets(data.targets, model.dtype), idx)
    outputs = model(batch)
    loss = model.compute_loss(outputs, targets)
    loss.backward()
    arrays = [loss.data]
    for task in sorted(outputs):
        out = outputs[task]
        arrays += [out.logits.data, out.probs, out.predictions]
    for _, p in model.named_parameters():
        grad = p.grad
        if grad is None:
            continue
        arrays += [grad.indices, grad.values] if hasattr(grad, "indices") else [grad]
    return digest(arrays)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_forward_raw_bytes_are_pinned(trained, dtype, n):
    encoder, _, data, artifact = trained
    key = f"{encoder}-{dtype}-n{n}"
    assert forward_raw_digest(artifact, data.train_records, dtype, n) == FORWARD_RAW[key]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_served_forward_raw_bytes_are_pinned(trained, dtype, n):
    encoder, _, data, artifact = trained
    key = f"{encoder}-{dtype}-n{n}"
    got = forward_raw_digest(artifact, data.train_records, dtype, n, encode=served)
    assert got == FORWARD_SERVED[key]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_a_served_batch_forwards_the_padded_columns(trained, dtype, n):
    """``encode_requests`` cuts the batch to its content width: every
    output is the padded forward's, a sequence task's positions cut to
    that width.  Predictions are equal; probabilities equal up to the last
    bits of a slice indicator's matrix-vector product, whose rounding
    follows the row count (``tests/api/test_content_width.py``)."""
    _, _, data, artifact = trained
    endpoint = Endpoint(artifact, dtype=dtype)
    batch = served(endpoint, data.train_records, n)
    width = batch.payloads["tokens"].ids.shape[1]
    assert width < endpoint.artifact.schema.payload("tokens").max_length
    narrow = endpoint.forward_raw(batch)
    padded = endpoint.forward_raw(encoded(endpoint, data.train_records, n))
    for task, out in padded.items():
        cut = (slice(None), slice(0, width)) if out.probs.ndim == 3 else ()
        got = narrow[task]
        assert np.array_equal(got.predictions, out.predictions[cut]), task
        assert got.probs.dtype == out.probs.dtype
        assert np.abs(got.probs - out.probs[cut]).max() <= SERVED_BOUND[dtype], task


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_taped_forward_loss_and_grads_are_pinned(trained, dtype, n):
    encoder, app, data, artifact = trained
    key = f"{encoder}-{dtype}-n{n}"
    assert taped_digest(artifact, app, data, dtype, n) == TAPED[key]


@pytest.mark.parametrize("n", (1, 32))
def test_forward_raw_python_calls_are_pinned(trained, n):
    encoder, _, data, artifact = trained
    endpoint = Endpoint(artifact)
    batch = served(endpoint, data.train_records, n)
    assert python_calls(endpoint.forward_raw, batch) <= FORWARD_RAW_CALLS[encoder]


@pytest.mark.parametrize("dtype", DTYPES)
def test_slice_attention_runs_in_the_serving_dtype(trained, dtype):
    """The slice softmax stays in the serving precision: no float64 pad
    promotes a float32 forward."""
    _, _, data, artifact = trained
    endpoint = Endpoint(artifact, dtype=dtype)
    outputs = endpoint.forward_raw(encoded(endpoint, data.train_records, 2))
    attentions = {
        task: out.extra["slice_forward"].attention
        for task, out in outputs.items()
        if "slice_forward" in out.extra
    }
    assert attentions and all(a is not None for a in attentions.values())
    assert {task: a.dtype for task, a in attentions.items()} == {
        task: np.dtype(dtype) for task in attentions
    }
