"""Tests for optimizers, gradient clipping, and the LR schedule."""

import numpy as np
import pytest

from repro.nn import Linear, Parameter
from repro.optim import (
    Adam,
    AdamW,
    ConstantSchedule,
    SGD,
    clip_grad_norm,
)
from repro.tensor import Tensor


def quadratic_loss(p: Parameter) -> Tensor:
    """(p - 3)^2 summed — minimum at 3."""
    diff = p - Tensor(np.full(p.shape, 3.0))
    return (diff * diff).sum()


def run_steps(optimizer, p: Parameter, n: int = 200) -> None:
    for _ in range(n):
        optimizer.zero_grad()
        quadratic_loss(p).backward()
        optimizer.step()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(3))
        run_steps(SGD([p], lr=0.1), p)
        np.testing.assert_allclose(p.data, np.full(3, 3.0), atol=1e-4)

    def test_momentum_converges(self):
        p = Parameter(np.zeros(3))
        run_steps(SGD([p], lr=0.05, momentum=0.9), p)
        np.testing.assert_allclose(p.data, np.full(3, 3.0), atol=1e-3)

    def test_weight_decay_shrinks_solution(self):
        p1 = Parameter(np.zeros(1))
        p2 = Parameter(np.zeros(1))
        run_steps(SGD([p1], lr=0.1), p1)
        run_steps(SGD([p2], lr=0.1, weight_decay=1.0), p2)
        assert p2.data[0] < p1.data[0]

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_skips_params_without_grad(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad: should be a no-op, not crash
        np.testing.assert_allclose(p.data, np.ones(2))


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(3))
        run_steps(Adam([p], lr=0.1), p, n=400)
        np.testing.assert_allclose(p.data, np.full(3, 3.0), atol=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.9))

    def test_adamw_decoupled_decay(self):
        # With pure decay and zero gradient signal, AdamW shrinks weights
        # geometrically.
        p = Parameter(np.ones(1))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_trains_linear_layer(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 1, rng)
        w_true = np.array([[1.0], [-2.0], [0.5], [3.0]])
        x = rng.normal(size=(64, 4))
        y = x @ w_true
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            pred = layer(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, w_true, atol=0.05)


class TestClipGradNorm:
    def test_clips_to_max(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_no_clip_below_max(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_handles_missing_grads(self):
        p = Parameter(np.zeros(2))
        assert clip_grad_norm([p], max_norm=1.0) == 0.0

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=0.0)


class TestSchedules:
    def test_constant(self):
        opt = SGD([Parameter(np.zeros(1))], lr=0.5)
        sched = ConstantSchedule(opt)
        for _ in range(5):
            sched.step()
        assert opt.lr == 0.5
