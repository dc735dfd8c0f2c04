"""Tests for Module/Parameter discovery, modes, and state dicts."""

import numpy as np
import pytest

from repro.errors import DeploymentError
from repro.nn import Dropout, Linear, Module, Parameter
from repro.tensor import Tensor


def make_rng():
    return np.random.default_rng(0)


class Stack(Module):
    """Children held in a list attribute."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)


class Named(Module):
    """Children held in a dict attribute."""

    def __init__(self, **members: Module) -> None:
        super().__init__()
        self.members = dict(members)


class Nested(Module):
    def __init__(self):
        super().__init__()
        self.inner = Linear(2, 3, make_rng())
        self.extra = Parameter(np.zeros(4))
        self.in_list = [Linear(2, 2, make_rng()), Parameter(np.ones(1))]
        self.in_dict = {"a": Linear(3, 3, make_rng())}

    def forward(self, x):
        return self.inner(x)


class TestParameterDiscovery:
    def test_named_parameters_nested(self):
        names = {name for name, _ in Nested().named_parameters()}
        assert "inner.weight" in names
        assert "inner.bias" in names
        assert "extra" in names
        assert "in_list.0.weight" in names
        assert "in_list.1" in names
        assert "in_dict.a.weight" in names

    def test_num_parameters(self):
        m = Linear(2, 3, make_rng())
        assert m.num_parameters() == 2 * 3 + 3

    def test_private_attrs_skipped(self):
        m = Nested()
        m._hidden = Parameter(np.zeros(9))
        assert all(name != "_hidden" for name, _ in m.named_parameters())

    def test_zero_grad_clears_all(self):
        m = Linear(2, 2, make_rng())
        out = m(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert m.weight.grad is not None
        m.zero_grad()
        assert m.weight.grad is None


class TestModes:
    def test_train_eval_recursive(self):
        seq = Stack(Linear(2, 2, make_rng()), Dropout(0.5))
        seq.eval()
        assert not seq.layers[1].training
        seq.train()
        assert seq.layers[1].training

    def test_mode_reaches_dict_members(self):
        md = Named(d=Dropout(0.5))
        md.eval()
        assert not md.members["d"].training


class TestStateDict:
    def test_roundtrip(self):
        m1 = Linear(3, 2, make_rng())
        m2 = Linear(3, 2, np.random.default_rng(99))
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_allclose(m1.weight.data, m2.weight.data)

    def test_state_dict_is_a_copy(self):
        m = Linear(2, 2, make_rng())
        state = m.state_dict()
        state["weight"][:] = 0.0
        assert m.weight.data.any()

    def test_missing_key_rejected(self):
        m = Linear(2, 2, make_rng())
        state = m.state_dict()
        del state["bias"]
        with pytest.raises(DeploymentError):
            m.load_state_dict(state)

    def test_unexpected_key_rejected(self):
        m = Linear(2, 2, make_rng())
        state = m.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(DeploymentError):
            m.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        m = Linear(2, 2, make_rng())
        state = m.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(DeploymentError):
            m.load_state_dict(state)


class TestContainers:
    def test_base_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
