"""From-scratch reverse-mode autodiff substrate (numpy).

The paper's Overton compiles schemas to TensorFlow/PyTorch; this package is
the equivalent differentiable-programming substrate built from scratch so the
compiler has something real to target in an offline environment.
"""

from repro.tensor.backend import (
    default_dtype,
    dtype_policy,
    resolve_dtype,
    supported_dtypes,
)
from repro.tensor.tensor import (
    Tensor,
    zeros,
    ones,
    no_grad,
    enable_grad,
    is_grad_enabled,
)
from repro.tensor.sparse import SparseRowGrad
from repro.tensor.ops import (
    concat,
    stack,
    where,
    gather_rows,
    masked_fill,
    dropout_mask,
)
from repro.tensor.functional import (
    log_softmax,
    softmax,
    binary_cross_entropy_with_logits,
    select_loss,
    accuracy,
)

__all__ = [
    "default_dtype",
    "dtype_policy",
    "resolve_dtype",
    "supported_dtypes",
    "Tensor",
    "zeros",
    "ones",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "SparseRowGrad",
    "concat",
    "stack",
    "where",
    "gather_rows",
    "masked_fill",
    "dropout_mask",
    "log_softmax",
    "softmax",
    "binary_cross_entropy_with_logits",
    "select_loss",
    "accuracy",
]
