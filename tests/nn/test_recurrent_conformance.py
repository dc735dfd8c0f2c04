"""The fused recurrent primitives against the per-op tape they replaced.

``repro.nn.recurrent`` records one tape node per layer and differentiates
it with a hand-written reverse loop.  The contract is exact: outputs and
all gradients equal the oracle's (``tests/nn/recurrent_oracle.py``, the
parent commit's taped loops) bit for bit, in both dtypes — so training
trajectories, artifacts and the taped-vs-``no_grad`` contract cannot move.
The count guards are the clock-free half: tape nodes per forward do not
grow with the sequence length, and the joint vjp runs once per backward.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import GRU, LSTM, BiLSTM
from repro.tensor import Tensor, dtype_policy, no_grad
from tests.helpers import check_grad, python_calls
from tests.nn import recurrent_oracle

ORACLES = {
    LSTM: recurrent_oracle.lstm_forward,
    GRU: recurrent_oracle.gru_forward,
    BiLSTM: recurrent_oracle.bilstm_forward,
}
SHAPES = [(1, 5, 8, 8), (7, 13, 24, 16), (32, 10, 64, 64)]
MASKS = ["none", "ragged", "dead_row", "ones"]


def make_mask(kind: str, batch: int, time: int, rng) -> np.ndarray | None:
    if kind == "none":
        return None
    if kind == "ones":
        return np.ones((batch, time))
    lengths = rng.integers(1, time + 1, size=batch)
    mask = (np.arange(time) < lengths[:, None]).astype(float)
    if kind == "dead_row":
        mask[0] = 0.0  # a fully masked row: its state never leaves zero
    return mask


def run(forward, layer, x_data, mask, out_grad) -> dict[str, np.ndarray]:
    """Output and every gradient of one taped forward + backward."""
    layer.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    out = forward(x, mask)
    out.backward(out_grad)
    result = {"out": out.data, "x.grad": x.grad}
    for name, param in layer.named_parameters():
        result[f"{name}.grad"] = param.grad.copy()
    return result


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("mask_kind", MASKS)
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("cls", list(ORACLES), ids=lambda c: c.__name__)
def test_bit_identical_to_the_per_op_tape(cls, dtype, mask_kind, shape):
    batch, time, input_dim, hidden = shape
    rng = np.random.default_rng(batch * time)
    with dtype_policy(dtype):
        layer = cls(input_dim, hidden, np.random.default_rng(1))
        x_data = rng.normal(size=(batch, time, input_dim))
        mask = make_mask(mask_kind, batch, time, rng)
        out_grad = rng.normal(size=(batch, time, hidden))
        fused = run(layer, layer, x_data, mask, out_grad)
        oracle = run(
            lambda x, m: ORACLES[cls](layer, x, m), layer, x_data, mask, out_grad
        )
        with no_grad():
            tape_free = layer(Tensor(x_data), mask)
    assert fused.keys() == oracle.keys() and len(fused) >= 5
    for name, expected in oracle.items():
        got = fused[name]
        assert got.dtype == expected.dtype == np.dtype(dtype), name
        assert got.shape == expected.shape, name
        assert np.array_equal(got, expected), name
    assert not tape_free.requires_grad
    assert tape_free.data.dtype == fused["out"].dtype
    assert np.array_equal(tape_free.data, fused["out"])


@pytest.mark.parametrize("param", ["w_x", "w_h", "bias"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("cls", [LSTM, GRU], ids=lambda c: c.__name__)
def test_parameter_gradcheck(cls, dtype, param):
    rng = np.random.default_rng(11)
    with dtype_policy(dtype):
        layer = cls(3, 4, rng)
    mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    x = rng.normal(size=(2, 4, 3))
    weights = rng.normal(size=(2, 4, 4))  # a non-uniform upstream gradient
    original = getattr(layer, param)

    def loss_with(value: Tensor) -> Tensor:
        setattr(layer, param, value)
        try:
            return (layer(Tensor(x), mask) * weights).sum()
        finally:
            setattr(layer, param, original)

    check_grad(loss_with, original.data, atol=1e-4, rtol=1e-3, dtype=dtype)


def small_case(cls, time: int):
    rng = np.random.default_rng(time)
    layer = cls(6, 8, rng)
    x = Tensor(rng.normal(size=(3, time, 6)), requires_grad=True)
    return layer, x, make_mask("ragged", 3, time, rng)


@pytest.mark.parametrize("cls", [LSTM, GRU], ids=lambda c: c.__name__)
class TestCounts:
    def test_tape_nodes_do_not_grow_with_the_sequence(self, cls):
        nodes = []
        for time in (5, 20):
            layer, x, mask = small_case(cls, time)
            nodes.append(python_calls(lambda: layer(x, mask), of=Tensor._make))
        assert nodes == [1, 1]

    def test_the_joint_vjp_runs_once_per_backward(self, cls):
        layer, x, mask = small_case(cls, 7)
        out = layer(x, mask)
        assert len(out._parents) == 4  # x, w_x, w_h, bias share the one vjp
        grad = np.ones(out.shape)
        assert python_calls(out.backward, grad, of=out._joint) == 1
