"""Unit tests for stable activations and noise-aware losses."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import (
    Tensor,
    log_softmax,
    softmax,
    binary_cross_entropy_with_logits,
    select_loss,
    accuracy,
)

from tests.helpers import check_grad, cross_entropy


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax(Tensor(rng.normal(size=(4, 5))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_stable_for_large_logits(self):
        out = softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            log_softmax(Tensor(x)).data, np.log(softmax(Tensor(x)).data), atol=1e-10
        )

    def test_grad(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        check_grad(lambda t: (softmax(t) * Tensor(w)).sum(), rng.normal(size=(3, 4)))


class TestCrossEntropy:
    def test_hard_targets_value(self):
        logits = Tensor(np.log(np.array([[0.7, 0.3], [0.4, 0.6]])))
        loss = cross_entropy(logits, np.array([0, 1]))
        expected = -(np.log(0.7) + np.log(0.6)) / 2
        assert abs(loss.item() - expected) < 1e-10

    def test_soft_targets(self):
        logits = Tensor(np.zeros((1, 2)))
        loss = cross_entropy(logits, np.array([[0.5, 0.5]]))
        assert abs(loss.item() - np.log(2)) < 1e-10

    def test_grad_hard(self):
        rng = np.random.default_rng(3)
        targets = np.array([0, 2, 1])
        check_grad(lambda t: cross_entropy(t, targets), rng.normal(size=(3, 3)))

    def test_grad_soft(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=4)
        check_grad(lambda t: cross_entropy(t, probs), rng.normal(size=(4, 3)))

    def test_sample_weights_zero_examples_ignored(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        # Second example is wrong but has zero weight.
        loss = cross_entropy(logits, np.array([0, 0]), sample_weights=np.array([1.0, 0.0]))
        assert loss.item() < 1e-4

    def test_all_zero_weights_returns_zero_loss(self):
        logits = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = cross_entropy(logits, np.array([0, 1]), sample_weights=np.zeros(2))
        assert loss.item() == 0.0
        loss.backward()  # must stay differentiable

    def test_class_weights_rebalance(self):
        logits = Tensor(np.zeros((2, 2)))
        # Upweighting class 1 doesn't change the loss value for uniform
        # logits (both classes give log 2) but must be accepted and keep the
        # normalization.
        loss = cross_entropy(
            logits, np.array([0, 1]), class_weights=np.array([1.0, 3.0])
        )
        assert abs(loss.item() - np.log(2)) < 1e-10

    def test_class_weight_shape_checked(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 1]), class_weights=np.ones(3))

    def test_bad_target_shape(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))

    def test_requires_2d_logits(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros(4)), np.array([0]))


class TestBinaryCrossEntropy:
    def test_matches_reference(self):
        x = np.array([[0.5, -1.0]])
        t = np.array([[1.0, 0.0]])
        loss = binary_cross_entropy_with_logits(Tensor(x), t)
        p = 1 / (1 + np.exp(-x))
        ref = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert abs(loss.item() - ref) < 1e-10

    def test_stable_for_extreme_logits(self):
        loss = binary_cross_entropy_with_logits(
            Tensor([[500.0, -500.0]]), np.array([[1.0, 0.0]])
        )
        assert loss.item() < 1e-10

    def test_grad(self):
        rng = np.random.default_rng(5)
        t = rng.random((3, 4))
        check_grad(
            lambda x: binary_cross_entropy_with_logits(x, t), rng.normal(size=(3, 4))
        )

    def test_soft_targets_supported(self):
        loss = binary_cross_entropy_with_logits(Tensor([[0.0]]), np.array([[0.5]]))
        assert abs(loss.item() - np.log(2)) < 1e-10

    def test_pos_weight(self):
        x = Tensor([[0.0, 0.0]])
        t = np.array([[1.0, 0.0]])
        unweighted = binary_cross_entropy_with_logits(x, t).item()
        weighted = binary_cross_entropy_with_logits(x, t, pos_weight=2.0).item()
        # Positive element loss doubles; negative unchanged.
        assert weighted > unweighted

    def test_sample_weights(self):
        x = Tensor([[10.0], [-10.0]])
        t = np.array([[1.0], [1.0]])
        loss = binary_cross_entropy_with_logits(
            x, t, sample_weights=np.array([1.0, 0.0])
        )
        assert loss.item() < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            binary_cross_entropy_with_logits(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))


class TestSelectLoss:
    def test_masked_candidates_excluded(self):
        scores = Tensor(np.array([[0.0, 0.0, 99.0]]))
        target = np.array([[1.0, 0.0, 0.0]])
        mask = np.array([[1.0, 1.0, 0.0]])  # third candidate invalid
        loss = select_loss(scores, target, mask)
        # With the invalid candidate masked the softmax is uniform over 2.
        assert abs(loss.item() - np.log(2)) < 1e-6

    def test_grad(self):
        rng = np.random.default_rng(6)
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        target = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        check_grad(
            lambda t: select_loss(t, target, mask), rng.normal(size=(2, 3))
        )

    def test_zero_weights(self):
        scores = Tensor(np.zeros((1, 2)), requires_grad=True)
        loss = select_loss(
            scores,
            np.array([[1.0, 0.0]]),
            np.ones((1, 2)),
            sample_weights=np.zeros(1),
        )
        assert loss.item() == 0.0


class TestAccuracy:
    def test_basic(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 1])) == 0.5

    def test_empty(self):
        assert accuracy(np.zeros((0, 2)), np.zeros(0)) == 0.0
