"""The thread-local dtype policy.

Covers the contract every other layer leans on: policy scoping/restoration
(including across threads), policy-driven allocation, dtype-preserving
op outputs, and the backward-pass coercions that used to pin gradients to
float64 regardless of the tensor's own storage.
"""

import threading

import numpy as np
import pytest

from repro.nn import Linear
from repro.tensor import (
    Tensor,
    default_dtype,
    dtype_policy,
    dropout_mask,
    gather_rows,
    ones,
    resolve_dtype,
    supported_dtypes,
    zeros,
)


F32 = np.dtype("float32")
F64 = np.dtype("float64")


class TestResolveDtype:
    def test_accepts_names_dtypes_and_types(self):
        assert resolve_dtype("float32") == F32
        assert resolve_dtype(np.dtype("float64")) == F64
        assert resolve_dtype(np.float32) == F32

    def test_none_resolves_to_current_policy(self):
        with dtype_policy("float32"):
            assert resolve_dtype(None) == F32
        assert resolve_dtype(None) == F64

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            resolve_dtype("float16")
        with pytest.raises(TypeError):
            resolve_dtype(42)

    def test_supported_dtypes(self):
        assert set(supported_dtypes()) == {"float32", "float64"}


class TestPolicyScoping:
    def test_default_is_float64(self):
        assert default_dtype() == F64

    def test_context_manager_restores_on_exit_and_error(self):
        with dtype_policy("float32"):
            assert default_dtype() == F32
            with dtype_policy("float64"):
                assert default_dtype() == F64
            assert default_dtype() == F32
        assert default_dtype() == F64
        with pytest.raises(RuntimeError):
            with dtype_policy("float32"):
                raise RuntimeError("boom")
        assert default_dtype() == F64

    def test_policy_is_thread_local(self):
        seen = {}

        def worker():
            seen["worker"] = default_dtype()

        with dtype_policy("float32"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # A fresh thread starts from the process default, not the caller's.
        assert seen["worker"] == F64


class TestTensorDtype:
    def test_construction_follows_policy(self):
        with dtype_policy("float32"):
            assert Tensor([1.0, 2.0]).dtype == F32
            assert zeros(3).dtype == F32
            assert ones(3).dtype == F32
        assert Tensor([1.0, 2.0]).dtype == F64

    def test_allocation_honors_policy(self):
        with dtype_policy("float32"):
            assert Tensor([1, 2]).dtype == F32
        layer = Linear(2, 2, np.random.default_rng(0))
        assert layer.to_dtype("float32").weight.dtype == F32

    def test_existing_tensors_keep_their_dtype(self):
        with dtype_policy("float32"):
            t = Tensor([1.0, 2.0])
        # Outside the policy the float32 tensor's storage is untouched.
        assert t.dtype == F32
        assert Tensor(t).dtype == F32

    @pytest.mark.parametrize("name", ["float32", "float64"])
    def test_ops_preserve_dtype(self, name):
        dtype = np.dtype(name)
        with dtype_policy(name):
            a = Tensor(np.arange(6, dtype=dtype).reshape(2, 3), requires_grad=True)
            b = Tensor(np.ones((2, 3), dtype=dtype))
            for out in (
                a + b,
                a * 2.0,
                a - 0.5,
                a / b,
                a @ b.T,
                a.sum(),
                a.mean(axis=0),
                a.max(axis=1),
                a[0],
                a.reshape(3, 2),
                a.exp(),
                a.sigmoid(),
                a.tanh(),
                a.relu(),
            ):
                assert out.dtype == dtype, out._op

    def test_backward_grad_follows_tensor_dtype(self):
        with dtype_policy("float32"):
            t = Tensor(np.ones((3,), dtype=F32), requires_grad=True)
            (t * 2.0).sum().backward()
        assert t.grad.dtype == F32

    def test_explicit_float64_output_grad_is_cast_down(self):
        with dtype_policy("float32"):
            t = Tensor(np.ones((3,), dtype=F32), requires_grad=True)
            out = t * 2.0
        out.backward(np.ones(3))  # float64 seed under the default policy
        assert t.grad.dtype == F32

    def test_parked_buffer_not_revived_across_dtype_change(self):
        with dtype_policy("float32"):
            t = Tensor(np.ones((3,), dtype=F32), requires_grad=True)
            (t * 3.0).sum().backward()
            t.zero_grad(set_to_none=False)  # parks the float32 buffer
        # Cast the leaf up; the parked float32 buffer must not be reused.
        t.data = t.data.astype(F64)
        (t * 3.0).sum().backward()
        assert t.grad.dtype == F64

    def test_helpers_honor_policy(self):
        with dtype_policy("float32"):
            mask = dropout_mask((4, 4), 0.5, np.random.default_rng(0))
            assert mask.dtype == F32

    def test_gather_rows_sparse_grad_keeps_dtype(self):
        with dtype_policy("float32"):
            table = Tensor(np.ones((64, 4), dtype=F32), requires_grad=True)
            out = gather_rows(table, np.array([1, 2, 3]))
            out.sum().backward()
        grad = table.grad
        assert grad.values.dtype == F32
        assert grad.to_dense().dtype == F32
        assert grad.coalesce().values.dtype == F32
