"""Functional tensor operations that combine multiple tensors.

These complement the methods on :class:`repro.tensor.Tensor` with operations
whose natural form is a free function (``concat``, ``stack``, ``where``,
``gather`` for embedding lookups, masking helpers).

Every op honors :func:`repro.tensor.no_grad`: with the tape disabled the
vjp closures are never constructed and the result is a plain array wrapper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.tensor.backend import default_dtype
from repro.tensor.sparse import SparseRowGrad
from repro.tensor.tensor import Array, Tensor, is_grad_enabled


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; gradients split back per input."""
    if not tensors:
        raise ShapeError("concat requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not is_grad_enabled():
        return Tensor._wrap(data, "concat")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    parents = []
    for i, t in enumerate(tensors):
        start, stop = offsets[i], offsets[i + 1]

        def grad_fn(g: Array, start=start, stop=stop) -> Array:
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            return g[tuple(slicer)]

        parents.append((t, grad_fn))
    return Tensor._make(data, parents, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    if not tensors:
        raise ShapeError("stack requires at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)
    if not is_grad_enabled():
        return Tensor._wrap(data, "stack")

    parents = []
    for i, t in enumerate(tensors):

        def grad_fn(g: Array, i=i) -> Array:
            return np.take(g, i, axis=axis)

        parents.append((t, grad_fn))
    return Tensor._make(data, parents, "stack")


def where(condition: Array, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``condition ? a : b``.

    ``condition`` is a plain boolean array (no gradient flows through it).
    """
    cond = np.asarray(condition, dtype=bool)
    if not is_grad_enabled():
        dtype = default_dtype()
        a_data = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=dtype)
        b_data = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=dtype)
        return Tensor._wrap(np.where(cond, a_data, b_data), "where")
    a_t = a if isinstance(a, Tensor) else Tensor(a)
    b_t = b if isinstance(b, Tensor) else Tensor(b)
    data = np.where(cond, a_t.data, b_t.data)

    from repro.tensor.tensor import _unbroadcast

    return Tensor._make(
        data,
        [
            (a_t, lambda g: _unbroadcast(g * cond, a_t.shape)),
            (b_t, lambda g: _unbroadcast(g * (~cond), b_t.shape)),
        ],
        "where",
    )


def gather_rows(table: Tensor, indices: Array) -> Tensor:
    """Embedding lookup: select rows of a 2-D ``table`` by integer indices.

    ``indices`` may have any shape; the result has shape
    ``indices.shape + (table.shape[1],)``.  The backward pass is adaptive:
    when the table is a leaf (an embedding
    :class:`~repro.nn.module.Parameter`) and *large* relative to the batch's
    index count, it produces a :class:`~repro.tensor.sparse.SparseRowGrad`
    holding only the touched rows — a big-vocab table never materializes (or
    scans) a dense gradient.  Small tables, and non-leaf tables (whose
    upstream vjps expect plain arrays), keep the dense scatter-add: for them
    the dense path is cheaper than sparse coalescing.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows requires a 2-D table, got {table.shape}")
    data = table.data[idx]
    if not is_grad_enabled():
        return Tensor._wrap(data, "gather_rows")
    dim = table.shape[1]
    sparse = not table._parents and table.shape[0] > 2 * idx.size

    def grad_fn(g: Array) -> "Array | SparseRowGrad":
        flat_idx = idx.reshape(-1)
        flat_g = g.reshape(-1, dim)
        if sparse:
            return SparseRowGrad(flat_idx, flat_g, table.shape)
        grad = np.zeros_like(table.data)
        np.add.at(grad, flat_idx, flat_g)
        return grad

    return Tensor._make(data, [(table, grad_fn)], "gather_rows")


def masked_fill(t: Tensor, mask: Array, value: float) -> Tensor:
    """Replace positions where ``mask`` is True with ``value`` (no grad there)."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, value, t.data)
    if not is_grad_enabled():
        return Tensor._wrap(data, "masked_fill")
    return Tensor._make(data, [(t, lambda g: g * (~mask))], "masked_fill")


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> Array:
    """Sample an inverted-dropout mask (already scaled by ``1/(1-rate)``)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    dtype = default_dtype()
    if rate == 0.0:
        return np.ones(shape, dtype=dtype)
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / (1.0 - rate)
