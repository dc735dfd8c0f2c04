"""Property-based tests (hypothesis) for the autodiff substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import (
    Tensor,
    concat,
    log_softmax,
    softmax,
)

from tests.helpers import cross_entropy

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=finite_floats)


class TestSoftmaxProperties:
    @given(arrays((3, 5)))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, x):
        out = softmax(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), atol=1e-9)
        assert (out >= 0).all()

    @given(arrays((2, 4)), st.floats(min_value=-50, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, shift):
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + shift)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    @given(arrays((3, 4)))
    @settings(max_examples=50, deadline=None)
    def test_log_softmax_nonpositive(self, x):
        assert (log_softmax(Tensor(x)).data <= 1e-12).all()


class TestAutodiffProperties:
    @given(arrays((4,)), arrays((4,)))
    @settings(max_examples=50, deadline=None)
    def test_addition_gradient_is_ones(self, x, y):
        a = Tensor(x, requires_grad=True)
        (a + Tensor(y)).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(4))

    @given(arrays((3,)), arrays((3,)))
    @settings(max_examples=50, deadline=None)
    def test_product_rule(self, x, y):
        a = Tensor(x, requires_grad=True)
        b = Tensor(y, requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, y)
        np.testing.assert_allclose(b.grad, x)

    @given(arrays((2, 3)))
    @settings(max_examples=50, deadline=None)
    def test_linearity_of_gradients(self, x):
        # grad of (2f) = 2 grad of f
        a = Tensor(x, requires_grad=True)
        (a.sum() * 2.0).backward()
        g2 = a.grad.copy()
        a.zero_grad()
        a.sum().backward()
        np.testing.assert_allclose(g2, 2 * a.grad)

    @given(arrays((2, 2)))
    @settings(max_examples=50, deadline=None)
    def test_broadcast_sum_grad_counts(self, x):
        # y = x + row: every row element receives a gradient per row of x.
        row = Tensor(np.zeros(2), requires_grad=True)
        (Tensor(x) + row).sum().backward()
        np.testing.assert_allclose(row.grad, [2.0, 2.0])


class TestConcatProperties:
    @given(arrays((2, 3)), arrays((4, 3)))
    @settings(max_examples=50, deadline=None)
    def test_concat_preserves_content(self, a, b):
        out = concat([Tensor(a), Tensor(b)], axis=0).data
        np.testing.assert_allclose(out[:2], a)
        np.testing.assert_allclose(out[2:], b)

    @given(arrays((2, 3)), arrays((2, 5)))
    @settings(max_examples=50, deadline=None)
    def test_concat_grad_partition(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        concat([ta, tb], axis=1).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones_like(a))
        np.testing.assert_allclose(tb.grad, np.ones_like(b))


class TestLossProperties:
    @given(arrays((4, 3)))
    @settings(max_examples=50, deadline=None)
    def test_cross_entropy_nonnegative(self, logits):
        targets = np.array([0, 1, 2, 0])
        loss = cross_entropy(Tensor(logits), targets)
        assert loss.item() >= -1e-9

    @given(arrays((3, 4)))
    @settings(max_examples=50, deadline=None)
    def test_cross_entropy_uniform_soft_targets_bounded_below(self, logits):
        # With uniform soft targets the loss is at least log(K) (entropy).
        k = 4
        targets = np.full((3, k), 1.0 / k)
        loss = cross_entropy(Tensor(logits), targets)
        assert loss.item() >= np.log(k) - 1e-9
