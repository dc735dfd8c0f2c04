"""From-scratch reverse-mode autodiff substrate (numpy).

The paper's Overton compiles schemas to TensorFlow/PyTorch; this package is
the equivalent differentiable-programming substrate built from scratch so the
compiler has something real to target in an offline environment.
"""

from repro.tensor.backend import (
    default_dtype,
    dtype_policy,
    resolve_dtype,
    set_default_dtype,
    supported_dtypes,
)
from repro.tensor.tensor import (
    Tensor,
    tensor,
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
    pad_sequences,
)
from repro.tensor.functional import (
    log_softmax,
    softmax,
    cross_entropy,
    binary_cross_entropy_with_logits,
    select_loss,
    l2_penalty,
    accuracy,
)

__all__ = [
    "default_dtype",
    "dtype_policy",
    "resolve_dtype",
    "set_default_dtype",
    "supported_dtypes",
    "Tensor",
    "tensor",
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
    "pad_sequences",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "select_loss",
    "l2_penalty",
    "accuracy",
]
