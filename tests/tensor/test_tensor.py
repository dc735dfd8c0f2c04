"""Unit tests for the core autodiff Tensor."""

import numpy as np
import pytest

from repro.errors import GradientError, ShapeError
from repro.tensor import Tensor, no_grad, tensor, zeros, ones

from tests.helpers import check_grad


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_from_int_array_casts_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.data.dtype == np.float64

    def test_scalar(self):
        t = Tensor(2.5)
        assert t.shape == ()
        assert t.item() == 2.5

    def test_item_requires_single_element(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_zeros_ones_helpers(self):
        assert zeros(2, 3).shape == (2, 3)
        assert ones(4).data.sum() == 4.0
        assert tensor([1.0], requires_grad=True).requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3


class TestBackwardBasics:
    def test_backward_requires_grad(self):
        with pytest.raises(GradientError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_explicit_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = t * 2
        with pytest.raises(GradientError):
            out.backward()

    def test_backward_explicit_grad_shape_checked(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = t * 2
        with pytest.raises(ShapeError):
            out.backward(np.ones(3))

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward(accumulate=True)
        np.testing.assert_allclose(t.grad, [4.0])

    def test_backward_default_overwrites_reusing_buffer(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        buffer = t.grad
        (t * 3).sum().backward()
        assert t.grad is buffer  # same allocation, refreshed in place
        np.testing.assert_allclose(t.grad, [3.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_accumulates(self):
        # y = x*x + x*x  — gradient should be 4x, checking fan-out accumulation
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestJointNode:
    """``Tensor._make_joint``: several inputs, one backward."""

    @staticmethod
    def scaled_product(a: Tensor, b: Tensor, calls: list) -> Tensor:
        def vjp(g):
            calls.append(g)
            return g * b.data * 3.0, g * a.data * 3.0

        return Tensor._make_joint(a.data * b.data * 3.0, (a, b), vjp, "scaled_product")

    def test_one_vjp_call_serves_every_input(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        calls = []
        out = self.scaled_product(a, b, calls)
        (out * 2.0).sum().backward()
        assert len(calls) == 1
        np.testing.assert_allclose(a.grad, [30.0, 42.0])
        np.testing.assert_allclose(b.grad, [6.0, 12.0])

    def test_shares_join_the_other_consumers_of_an_input(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (self.scaled_product(a, b, []) + a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [17.0, 25.0])

    def test_inputs_without_grad_get_no_share(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([5.0, 7.0])
        out = self.scaled_product(a, b, [])
        assert [p for p, _ in out._parents] == [a]
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [15.0, 21.0])
        assert b.grad is None

    def test_nothing_is_recorded_without_a_tape(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        with no_grad():
            free = self.scaled_product(a, b, [])
        frozen = self.scaled_product(a.detach(), b.detach(), [])
        for out in (free, frozen):
            assert not out.requires_grad and not out._parents and out._joint is None

    def test_gradcheck(self):
        rng = np.random.default_rng(15)
        other = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        check_grad(
            lambda t: self.scaled_product(t, other, []).sum(), rng.normal(size=(2, 3))
        )


class TestArithmeticGradients:
    def test_add(self):
        check_grad(lambda t: (t + t).sum(), np.random.default_rng(0).normal(size=(3, 4)))

    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(4,))
        check_grad(lambda t: (t + Tensor(b)).sum(), rng.normal(size=(3, 4)))

    def test_broadcast_gradient_to_smaller_operand(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [3.0] * 4)

    def test_sub_rsub(self):
        t = Tensor([2.0], requires_grad=True)
        (5.0 - t).sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0])

    def test_mul(self):
        rng = np.random.default_rng(2)
        check_grad(lambda t: (t * t * 2.0).sum(), rng.normal(size=(2, 3)))

    def test_div(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3,)) + 5.0
        check_grad(lambda t: (1.0 / t).sum(), x)

    def test_div_both_sides(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.5])

    def test_pow(self):
        rng = np.random.default_rng(4)
        check_grad(lambda t: (t**3).sum(), rng.normal(size=(3,)) + 2.0)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        t = Tensor([1.0, -2.0], requires_grad=True)
        (-t).sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0, -1.0])


class TestMatmulGradients:
    def test_matmul_2d(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 2))
        check_grad(lambda t: (t @ Tensor(w)).sum(), rng.normal(size=(3, 4)))

    def test_matmul_grad_right(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4))
        check_grad(lambda t: (Tensor(x) @ t).sum(), rng.normal(size=(4, 2)))

    def test_matmul_vector_right(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(4,))
        check_grad(lambda t: (t @ Tensor(v)).sum(), rng.normal(size=(3, 4)))

    def test_matmul_batched(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(2, 4, 5))
        check_grad(lambda t: (t @ Tensor(w)).sum(), rng.normal(size=(2, 3, 4)))

    def test_matmul_batched_broadcast_weight(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(4, 5))
        x = rng.normal(size=(2, 3, 4))
        check_grad(lambda t: (t @ Tensor(w)).sum(), x)
        # And gradient flows to the broadcast weight correctly.
        wt = Tensor(w, requires_grad=True)
        (Tensor(x) @ wt).sum().backward()
        assert wt.grad.shape == w.shape

    def test_matmul_scalar_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(2.0) @ Tensor([1.0])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        rng = np.random.default_rng(10)
        check_grad(lambda t: (t.reshape(6) * 2).sum(), rng.normal(size=(2, 3)))

    def test_reshape_tuple_arg(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape((2, 3)).shape == (2, 3)

    def test_transpose_default_reverses(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.T.shape == (4, 3, 2)

    def test_transpose_grad(self):
        rng = np.random.default_rng(11)
        check_grad(lambda t: (t.transpose(1, 0) * 3).sum(), rng.normal(size=(2, 3)))

    def test_swapaxes_grad(self):
        rng = np.random.default_rng(12)
        check_grad(lambda t: (t.swapaxes(0, 1) * 2).sum(), rng.normal(size=(2, 3)))

    def test_getitem_grad_scatter(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t[0].sum().backward()
        np.testing.assert_allclose(t.grad, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])

    def test_getitem_repeated_index_accumulates(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        t[np.array([0, 0, 1])].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 1.0])

    BASIC_INDICES = [
        1,
        np.int64(0),
        slice(1, None),
        (slice(None), 2),
        (slice(None), slice(0, 3, 2), 1),
        (Ellipsis, 1),
        (None, 1, Ellipsis),
        (slice(None, None, -1), None, 0),
    ]

    @pytest.mark.parametrize("index", BASIC_INDICES, ids=repr)
    def test_basic_index_grad_equals_add_at(self, index):
        """Ints / slices / Ellipsis / None scatter in place: ``np.add.at``'s bits."""
        rng = np.random.default_rng(13)
        t = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        out = t[index]
        g = rng.normal(size=out.shape)
        out.backward(g)
        expected = np.zeros_like(t.data)
        np.add.at(expected, index, g)
        assert np.array_equal(t.grad, expected)
        check_grad(lambda u: (u[index] ** 2).sum(), rng.normal(size=(3, 4, 5)))

    @pytest.mark.parametrize(
        "index",
        [
            np.array([0, 2, 0, 0]),
            (slice(None), np.array([1, 1, 3])),
            (np.array([0, 0]), np.array([1, 1])),
            [2, 2],
            np.array([True, False, True]),
            (1, np.array([3, 3])),
        ],
        ids=repr,
    )
    def test_fancy_index_still_accumulates_repeats(self, index):
        rng = np.random.default_rng(14)
        t = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = t[index]
        g = rng.normal(size=out.shape)
        out.backward(g)
        expected = np.zeros_like(t.data)
        np.add.at(expected, index, g)
        assert np.array_equal(t.grad, expected)
        check_grad(lambda u: (u[index] ** 2).sum(), rng.normal(size=(3, 4)))

    def test_expand_squeeze(self):
        t = Tensor(np.ones((3,)), requires_grad=True)
        out = t.expand_dims(0).squeeze(0)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0, 1.0, 1.0])


class TestReductions:
    def test_sum_all(self):
        check_grad(lambda t: t.sum(), np.random.default_rng(13).normal(size=(3, 4)))

    def test_sum_axis(self):
        rng = np.random.default_rng(14)
        check_grad(lambda t: (t.sum(axis=0) * 2).sum(), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self):
        rng = np.random.default_rng(15)
        check_grad(
            lambda t: (t.sum(axis=1, keepdims=True) * 2).sum(), rng.normal(size=(3, 4))
        )

    def test_mean_all(self):
        check_grad(lambda t: t.mean(), np.random.default_rng(16).normal(size=(4,)))

    def test_mean_axis_tuple(self):
        rng = np.random.default_rng(17)
        check_grad(lambda t: (t.mean(axis=(0, 1)) * 2).sum(), rng.normal(size=(2, 3, 4)))

    def test_max_axis(self):
        rng = np.random.default_rng(18)
        # Use well-separated values to avoid tie subtleties in the check.
        x = rng.permutation(12).astype(np.float64).reshape(3, 4)
        check_grad(lambda t: t.max(axis=1).sum(), x)

    def test_max_splits_ties(self):
        t = Tensor([[1.0, 1.0]], requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])


class TestElementwise:
    def test_exp(self):
        check_grad(lambda t: t.exp().sum(), np.random.default_rng(19).normal(size=(3,)))

    def test_log(self):
        x = np.random.default_rng(20).random(3) + 0.5
        check_grad(lambda t: t.log().sum(), x)

    def test_sqrt(self):
        x = np.random.default_rng(21).random(3) + 0.5
        check_grad(lambda t: t.sqrt().sum(), x)

    def test_tanh(self):
        check_grad(lambda t: t.tanh().sum(), np.random.default_rng(22).normal(size=(3,)))

    def test_sigmoid(self):
        check_grad(
            lambda t: t.sigmoid().sum(), np.random.default_rng(23).normal(size=(4,))
        )

    def test_sigmoid_extreme_values_stable(self):
        out = Tensor([1000.0, -1000.0]).sigmoid()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_relu(self):
        x = np.array([-1.0, 0.5, 2.0])
        t = Tensor(x, requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0])

    def test_clip_grad_zero_outside(self):
        t = Tensor([-2.0, 0.0, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_abs(self):
        t = Tensor([-2.0, 3.0], requires_grad=True)
        t.abs().sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0, 1.0])
