"""Bit pins of the model forward on a sliced factoid model.

Every array a forward returns is pinned by the sha256 of its bytes: the
tape-free serving forward (``Endpoint.forward_raw``: each task's ``probs``
and ``predictions``) and the taped training forward of the same batches
(each task's logits, probs and predictions, the loss and every parameter
gradient), for a bag-of-words and an LSTM encoder, float64 and float32, at
batch sizes 1, 2 and 32.  Both paths share ``SliceAwareHead._run``, so a
rewrite of the head, the encoders or the module glue that moves one bit of
one float fails here.

The digests hash IEEE bit patterns and hold for the numpy/BLAS build they
were pinned under (numpy 2.4.6, scipy-openblas 0.3.31, x86-64).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import Endpoint
from repro.core import ModelConfig, PayloadConfig, TrainerConfig
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
    "bow-float32-n1": "0bfdd289def07817debced405a1e5c4858b7fa3df6656f3ef0b8aec0fa44e2e4",
    "bow-float32-n2": "346d23273c71cf56bade1a341321bc5bf3b6ff5bcef1ef9d0fd8245c495e30a6",
    "bow-float32-n32": "f77522910e4dea8edda421095e8c1e41cac7ce1740a4294fc525acfe96617096",
    "lstm-float64-n1": "14d93701dfa1fc1ac4ed1c07e3add0f1323e4a51b8b8f31ee340e4c792cfee8e",
    "lstm-float64-n2": "6fcc48d84033e486f1d6413f05b49e1415324986d59213e3e8c98a3406e6a3b0",
    "lstm-float64-n32": "5724e99dfb8703bd6526314dcff1812d78ca1ba02482fdb35e3a8f5192d9e19b",
    "lstm-float32-n1": "6f923a33511354236bfd548cb8ae254508071c1e80083b9bb0c1316e63752a1c",
    "lstm-float32-n2": "826bf03bad4ad4072a14ec0c2835afa0c1ff134f3a73eb2d0ddd392c75511d97",
    "lstm-float32-n32": "ca7b1ba4ed51ff3848dc21cc2f748ab07a7174c500c66b8f93a5b5242dcc774c",
}
TAPED = {
    "bow-float64-n1": "09d05ff2f389169d2795990e25b0b33c272552d9dd9661c72a267fe788da59c8",
    "bow-float64-n2": "1186051ca03e3d41a5f061c8b3e7a3662308664f290b478492c40ee511d864e0",
    "bow-float64-n32": "7a0c6ff6eddd8f067e73e29e65f8d99b0f3faacaf2dbc61c81af5b39a81012ed",
    "bow-float32-n1": "e00457a8c1e955799fe697878faeca12c4212db64efcde6aabaa2f4f6b68d5eb",
    "bow-float32-n2": "c7db5a3818dc83d5a9e576045d6ea709c41e690cc79ecdc3227735510fd5d9e3",
    "bow-float32-n32": "ce2659524a087c6649af8a95396d11033c2910fd8ea3520a99fd5c46b9dccb1f",
    "lstm-float64-n1": "adbfe9a6ba7f6af8dfde94b311957578ed7e155159405ad3e80536a7cf89fe2f",
    "lstm-float64-n2": "8f58bb1adc2e03fa42a46c90c3954963a3d6ae4f31eb7e7f969c516203731127",
    "lstm-float64-n32": "f60fef23774db0d4ead12779ac21e3be9304f9a41d62bf5ff17814658d3165f2",
    "lstm-float32-n1": "0355ee2405b77f453e50f0c1d93e7be21c599124fd4a9bbf8865628c28ae8d06",
    "lstm-float32-n2": "f81a9cbe82b4b79e13d879fe07fb7d55cac5c2531068ba43f4ce22652ef58a86",
    "lstm-float32-n32": "77915c54b167f82b4ffcbfdfaa480393421f80270d8549eaa7fb1b95815e9326",
}


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


def encoded(endpoint: Endpoint, records, n: int):
    """The first ``n`` records as the endpoint encodes a request batch."""
    names = [spec.name for spec in endpoint.signature.inputs]
    payloads = [{name: r.payloads[name] for name in names} for r in records[:n]]
    return endpoint.encode_requests(payloads)[1]


def forward_raw_digest(artifact, records, dtype: str, n: int) -> str:
    endpoint = Endpoint(artifact, dtype=dtype)
    outputs = endpoint.forward_raw(encoded(endpoint, records, n))
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
def test_taped_forward_loss_and_grads_are_pinned(trained, dtype, n):
    encoder, app, data, artifact = trained
    key = f"{encoder}-{dtype}-n{n}"
    assert taped_digest(artifact, app, data, dtype, n) == TAPED[key]


@pytest.mark.parametrize("n", (1, 32))
def test_forward_raw_python_calls_are_pinned(trained, n):
    encoder, _, data, artifact = trained
    endpoint = Endpoint(artifact)
    batch = encoded(endpoint, data.train_records, n)
    assert python_calls(endpoint.forward_raw, batch) <= FORWARD_RAW_CALLS[encoder]
