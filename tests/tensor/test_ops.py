"""Unit tests for functional tensor ops (concat/stack/where/gather/masking)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import (
    SparseRowGrad,
    Tensor,
    concat,
    stack,
    where,
    gather_rows,
    masked_fill,
    dropout_mask,
)

from tests.helpers import check_grad


class TestConcat:
    def test_forward(self):
        out = concat([Tensor([1.0, 2.0]), Tensor([3.0])])
        np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0])

    def test_grad_splits(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (concat([a, b]) * Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])

    def test_axis1(self):
        rng = np.random.default_rng(0)
        other = Tensor(rng.normal(size=(2, 2)))
        check_grad(lambda t: concat([t, other], axis=1).sum() * 2, rng.normal(size=(2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            concat([])


class TestStack:
    def test_forward_shape(self):
        out = stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])])
        assert out.shape == (2, 2)

    def test_grad_unstacks(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (stack([a, b], axis=0) * Tensor([[1.0, 1.0], [2.0, 2.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [2.0, 2.0])

    def test_stack_new_last_axis(self):
        out = stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])], axis=-1)
        assert out.shape == (2, 2)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            stack([])


class TestWhere:
    def test_forward(self):
        out = where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_grad_routed_by_condition(self):
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0], requires_grad=True)
        where(np.array([True, False]), a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])

    def test_accepts_raw_arrays(self):
        out = where(np.array([True]), np.array([3.0]), np.array([4.0]))
        np.testing.assert_allclose(out.data, [3.0])


class TestGatherRows:
    def test_forward(self):
        table = Tensor(np.arange(6.0).reshape(3, 2))
        out = gather_rows(table, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[4.0, 5.0], [0.0, 1.0]])

    def test_grad_scatter_adds(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        gather_rows(table, np.array([1, 1, 0])).sum().backward()
        # Small tables keep the dense scatter-add gradient.
        assert isinstance(table.grad, np.ndarray)
        np.testing.assert_allclose(table.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_grad_sparse_for_large_leaf_table(self):
        table = Tensor(np.zeros((64, 2)), requires_grad=True)
        gather_rows(table, np.array([5, 5, 9])).sum().backward()
        # Tables much larger than the index count get a sparse row grad.
        assert isinstance(table.grad, SparseRowGrad)
        dense = table.grad.to_dense()
        np.testing.assert_allclose(dense[5], [2.0, 2.0])
        np.testing.assert_allclose(dense[9], [1.0, 1.0])
        assert dense.sum() == 6.0

    def test_multidim_indices(self):
        table = Tensor(np.arange(8.0).reshape(4, 2))
        out = gather_rows(table, np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 2)

    def test_requires_2d_table(self):
        with pytest.raises(ShapeError):
            gather_rows(Tensor(np.zeros(3)), np.array([0]))

    def test_grad_through_multidim(self):
        table = Tensor(np.zeros((2, 3)), requires_grad=True)
        gather_rows(table, np.array([[0, 0], [1, 0]])).sum().backward()
        np.testing.assert_allclose(table.grad[0], [3.0, 3.0, 3.0])
        np.testing.assert_allclose(table.grad[1], [1.0, 1.0, 1.0])

    def test_grad_dense_for_non_leaf_table(self):
        base = Tensor(np.ones((3, 2)), requires_grad=True)
        table = base * 2.0
        gather_rows(table, np.array([1, 1])).sum().backward()
        # Non-leaf tables keep the dense scatter-add path so upstream vjps
        # always see plain arrays.
        np.testing.assert_allclose(
            base.grad, [[0.0, 0.0], [4.0, 4.0], [0.0, 0.0]]
        )


class TestMaskedFill:
    def test_forward(self):
        out = masked_fill(Tensor([1.0, 2.0]), np.array([False, True]), -9.0)
        np.testing.assert_allclose(out.data, [1.0, -9.0])

    def test_grad_blocked_at_masked(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        masked_fill(t, np.array([False, True]), -9.0).sum().backward()
        np.testing.assert_allclose(t.grad, [1.0, 0.0])


class TestDropoutMask:
    def test_rate_zero_is_identity(self):
        mask = dropout_mask((100,), 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(mask, np.ones(100))

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(1)
        mask = dropout_mask((100_000,), 0.3, rng)
        assert abs(mask.mean() - 1.0) < 0.02

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            dropout_mask((3,), 1.0, np.random.default_rng(0))
