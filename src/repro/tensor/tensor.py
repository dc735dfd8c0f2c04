"""Reverse-mode automatic differentiation on top of numpy.

This module is the lowest layer of the reproduction's deep-learning
substrate.  The paper compiles schemas into TensorFlow/PyTorch programs; this
environment has neither, so we implement the same contract from scratch: a
:class:`Tensor` records the operations applied to it and can backpropagate
gradients through the resulting DAG.

The design follows the classic "tape" formulation:

* every ``Tensor`` holds a numpy array ``data``, an optional gradient
  ``grad``, and — when produced by an op — a list of ``(parent, vjp)`` pairs
  where ``vjp`` maps the output gradient to the parent's gradient
  contribution (a vector-Jacobian product);
* a primitive whose inputs share one backward computation (a whole
  recurrent layer) records a single *joint* vjp returning every input's
  gradient at once (:meth:`Tensor._make_joint`);
* :meth:`Tensor.backward` topologically sorts the DAG and accumulates
  gradients.

Broadcasting is fully supported: gradient contributions are summed over
broadcast dimensions by :func:`_unbroadcast`.

Serving and evaluation never take gradients, so the tape itself is pure
overhead there.  :func:`no_grad` flips a thread-local flag that every op
checks *before* building vjp closures: inside the context each op returns a
plain array-wrapping :class:`Tensor` with no parents, no ``requires_grad``
propagation, and no recorded graph.  The flag is thread-local so concurrent
serving threads (the gateway's replica lanes) and a training thread can
coexist in one process.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import GradientError, ShapeError
from repro.tensor.backend import default_dtype

Array = np.ndarray

_GRAD_STATE = threading.local()

# Shared, never-mutated parent list for tape-free tensors (see Tensor._wrap).
_NO_PARENTS: list = []


def is_grad_enabled() -> bool:
    """Whether ops currently record the tape (thread-local, default True)."""
    return getattr(_GRAD_STATE, "enabled", True)


class no_grad:
    """Context manager (and decorator) that disables tape recording.

    Inside the context every op skips vjp-closure construction and returns a
    plain array wrapper: no parents are recorded and ``requires_grad`` never
    propagates, so forward passes cost only their numpy arithmetic.  Nesting
    is safe; the previous state is restored on exit.  Explicit leaf creation
    (``Tensor(data, requires_grad=True)``) is unaffected — only *recording*
    is off.
    """

    __slots__ = ("_prev",)

    def __enter__(self) -> "no_grad":
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _GRAD_STATE.enabled = self._prev
        return False

    def __call__(self, fn: Callable) -> Callable:
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


class enable_grad:
    """Context manager that re-enables tape recording inside a ``no_grad``.

    The inverse escape hatch: code running under a caller's ``no_grad``
    (e.g. a benchmark reproducing the legacy taped path, or a serving hook
    that genuinely needs a gradient) can locally restore recording.
    Restores the previous state on exit.
    """

    __slots__ = ("_prev",)

    def __enter__(self) -> "enable_grad":
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _GRAD_STATE.enabled = self._prev
        return False


def _as_array(value: "Tensor | Array | float | int | Sequence") -> Array:
    """Coerce ``value`` to the policy's float dtype (Tensors pass through).

    Tensors are never copied or cast — their storage dtype is authoritative.
    Everything else is coerced to the calling thread's default dtype (see
    :mod:`repro.tensor.backend`), which is how the dtype policy reaches raw
    numpy inputs (batch masks, targets, scalars) at the tensor boundary.
    """
    if isinstance(value, Tensor):
        return value.data
    dtype = default_dtype()
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def logistic(data: Array) -> Array:
    """Numerically stable logistic function on a plain array.

    A single exp: ``z = exp(-|x|)`` is always in (0, 1], so neither branch
    of the np.where can overflow (np.where evaluates both).  Shared by
    :meth:`Tensor.sigmoid` and the tape-free fast loops in
    :mod:`repro.nn.recurrent` so both paths are bit-identical.
    """
    z = np.exp(-np.abs(data))
    denom = 1.0 + z
    return np.where(data >= 0, 1.0 / denom, z / denom)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` over the axes that numpy broadcasting introduced.

    If ``a`` with shape ``shape`` was broadcast up to ``grad.shape`` during
    the forward pass, the correct gradient for ``a`` sums the incoming
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is made only of ints, slices, ``Ellipsis`` and ``None``.

    Such an index selects every element at most once, so its scatter is a
    plain in-place add; integer and boolean arrays can repeat an element and
    need ``np.add.at`` (27-62 us a call against ~2 us).
    """
    items = index if isinstance(index, tuple) else (index,)
    return all(i is None or i is Ellipsis or type(i) in (int, slice) for i in items)


class Tensor:
    """A numpy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a float array in the policy dtype (see
        :mod:`repro.tensor.backend`; existing Tensors keep their dtype).
    requires_grad:
        Whether gradients should flow to this tensor.  Leaf tensors created
        by users (e.g. parameters) set this; intermediate tensors inherit it
        from their parents.
    parents:
        Internal — ``(tensor, vjp)`` pairs recorded by ops (``(tensor,
        index)`` pairs on a joint node, see :meth:`_make_joint`).
    op:
        Internal — short op name, for debugging and graph dumps.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_joint", "_op", "_grad_buffer"
    )

    def __init__(
        self,
        data: "Array | float | int | Sequence | Tensor",
        requires_grad: bool = False,
        parents: "list[tuple[Tensor, Callable[[Array], Array]]] | None" = None,
        op: str = "leaf",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents or []
        self._joint: Callable[[Array], Sequence[Array]] | None = None
        self._op = op
        self._grad_buffer: Array | None = None

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return int(self.data.size)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{grad_flag})"

    def numpy(self) -> Array:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise ShapeError(f"item() requires a 1-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(data: Array, op: str) -> "Tensor":
        """Cheapest possible tape-free wrapper around an op result.

        ``data`` must already be a float ndarray (true for every numpy op
        on float inputs — ops preserve their operands' dtype).  Skips
        ``__init__``'s coercion and per-instance parent-list allocation —
        all tape-free tensors share one immutable empty parent list.
        """
        t = Tensor.__new__(Tensor)
        t.data = data
        t.grad = None
        t.requires_grad = False
        t._parents = _NO_PARENTS
        t._joint = None
        t._op = op
        t._grad_buffer = None
        return t

    @staticmethod
    def _make(
        data: Array,
        parents: Iterable[tuple["Tensor", Callable[[Array], Array]]],
        op: str,
    ) -> "Tensor":
        """Create an op output, keeping only parents that need gradients.

        This is also the tape-mode safety net: with gradients disabled no
        parents are kept, whatever the caller recorded.  (Hot ops check
        :func:`is_grad_enabled` *before* building their vjp closures so the
        closures are never allocated; ops that reach ``_make`` anyway are
        still guaranteed tape-free output here.)
        """
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor(data, op=op)
        kept = [(p, fn) for p, fn in parents if p.requires_grad]
        return Tensor(data, requires_grad=bool(kept), parents=kept, op=op)

    @staticmethod
    def _make_joint(
        data: Array,
        inputs: Sequence["Tensor"],
        vjp: Callable[[Array], Sequence[Array]],
        op: str,
    ) -> "Tensor":
        """Create the output of a primitive whose inputs share one backward.

        ``vjp`` maps the output gradient to one gradient per input, in
        ``inputs`` order (None for an input it does not reach).
        :meth:`backward` calls it exactly once per node
        and hands each input that requires grad its share — for primitives
        (a whole recurrent layer) whose input gradients fall out of a single
        reverse loop and would be recomputed by per-parent vjps.
        """
        out = Tensor._make(data, list(zip(inputs, range(len(inputs)))), op)
        if out._parents:
            out._joint = vjp
        return out

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Array | None = None, accumulate: bool = False) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones for scalar outputs; for non-scalar outputs
        an explicit output gradient must be supplied.

        ``accumulate`` controls what happens to a leaf's existing ``.grad``:
        by default the new gradient *overwrites* it, reusing the existing
        buffer in place when shapes match (so a training loop that zeroes
        gradients between steps never re-allocates them); with
        ``accumulate=True`` the new gradient is added to whatever is already
        there (the classic multi-backward accumulation behaviour).
        """
        if not self.requires_grad:
            raise GradientError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output; got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        # The output gradient adopts this tensor's own dtype (not the global
        # float64 it used to be pinned to), so float32 training accumulates
        # float32 gradients instead of silently upcasting the backward pass.
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"output gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        order = self._topological_order()
        grads: dict[int, Array] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if not node._parents:
                # Leaf: write into .grad (accumulating only when asked).
                self._write_leaf_grad(node, node_grad, accumulate)
                continue
            # A joint node computes every share at once; its pairs hold the
            # input's index into them where the others hold a vjp.  A None
            # share means that input got no gradient this time.
            shares = node._joint(node_grad) if node._joint is not None else None
            for parent, vjp in node._parents:
                contribution = vjp(node_grad) if shares is None else shares[vjp]
                if contribution is None:
                    continue
                existing = grads.get(id(parent))
                if existing is None:
                    grads[id(parent)] = contribution
                else:
                    grads[id(parent)] = existing + contribution

    @staticmethod
    def _write_leaf_grad(node: "Tensor", node_grad, accumulate: bool) -> None:
        """Store a leaf gradient, reusing an existing buffer when possible.

        ``node_grad`` may be a plain array or a sparse row-gradient (from
        embedding lookups); sparse values keep their compact form on the
        leaf so huge tables never materialize dense gradients.  Dense
        gradients overwrite the live ``.grad`` array in place when shapes
        match, or revive the buffer parked by ``zero_grad(set_to_none=
        False)`` — either way no new allocation per step.  A buffer is only
        reused when its dtype matches too: a parked float64 buffer must not
        survive a model's cast to float32 (``np.copyto`` would silently
        cast the gradient back up).
        """
        existing = node.grad
        if accumulate and existing is not None:
            node.grad = existing + node_grad
            return
        if not isinstance(node_grad, np.ndarray):
            # Sparse contribution: .copy() detaches it from graph temporaries.
            node.grad = node_grad.copy()
            return
        if (
            isinstance(existing, np.ndarray)
            and existing.shape == node_grad.shape
            and existing.dtype == node_grad.dtype
        ):
            np.copyto(existing, node_grad)
            return
        parked = node._grad_buffer
        if (
            parked is not None
            and parked.shape == node_grad.shape
            and parked.dtype == node_grad.dtype
        ):
            np.copyto(parked, node_grad)
            node.grad = parked
            node._grad_buffer = None
            return
        node.grad = node_grad.copy()

    def _topological_order(self) -> list["Tensor"]:
        """Return the graph above ``self`` in reverse-topological order."""
        visited: set[int] = set()
        order: list[Tensor] = []
        # Iterative DFS to avoid recursion limits on deep graphs (e.g. long
        # LSTM unrolls).
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear any accumulated gradient.

        ``.grad`` always reads ``None`` afterwards — optimizers rely on
        ``None`` to mean "this parameter got no gradient this step" (a
        zero-filled array would make momentum decay and apply stale
        updates to parameters whose loss terms were skipped, e.g. slice
        experts on batches with no members).  With ``set_to_none=False``
        the dense buffer is *parked* instead of dropped, and the next
        backward pass writes into the same allocation — the optimizer
        fast path without the numeric hazard.  Sparse gradients are
        always dropped; their shape changes per step.
        """
        if not set_to_none and isinstance(self.grad, np.ndarray):
            self._grad_buffer = self.grad
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor | Array | float") -> "Tensor":
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(self.data + _as_array(other), "add")
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self.data + other_t.data
        return Tensor._make(
            out,
            [
                (self, lambda g: _unbroadcast(g, self.shape)),
                (other_t, lambda g: _unbroadcast(g, other_t.shape)),
            ],
            "add",
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(-self.data, "neg")
        return Tensor._make(-self.data, [(self, lambda g: -g)], "neg")

    def __sub__(self, other: "Tensor | Array | float") -> "Tensor":
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(self.data - _as_array(other), "sub")
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self.data - other_t.data
        return Tensor._make(
            out,
            [
                (self, lambda g: _unbroadcast(g, self.shape)),
                (other_t, lambda g: _unbroadcast(-g, other_t.shape)),
            ],
            "sub",
        )

    def __rsub__(self, other: "Array | float") -> "Tensor":
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(_as_array(other) - self.data, "sub")
        return Tensor(other) - self

    def __mul__(self, other: "Tensor | Array | float") -> "Tensor":
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(self.data * _as_array(other), "mul")
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self.data * other_t.data
        return Tensor._make(
            out,
            [
                (self, lambda g: _unbroadcast(g * other_t.data, self.shape)),
                (other_t, lambda g: _unbroadcast(g * self.data, other_t.shape)),
            ],
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | Array | float") -> "Tensor":
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(self.data / _as_array(other), "div")
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self.data / other_t.data
        return Tensor._make(
            out,
            [
                (self, lambda g: _unbroadcast(g / other_t.data, self.shape)),
                (
                    other_t,
                    lambda g: _unbroadcast(
                        -g * self.data / (other_t.data**2), other_t.shape
                    ),
                ),
            ],
            "div",
        )

    def __rtruediv__(self, other: "Array | float") -> "Tensor":
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(_as_array(other) / self.data, "div")
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self.data**exponent
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "pow")
        return Tensor._make(
            out,
            [(self, lambda g: g * exponent * self.data ** (exponent - 1))],
            "pow",
        )

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        if self.data.ndim == 0 or other_t.data.ndim == 0:
            raise ShapeError("matmul requires tensors with ndim >= 1")
        out = self.data @ other_t.data
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "matmul")

        def grad_left(g: Array) -> Array:
            if other_t.ndim == 1:
                # (..., n) = (..., n, m) @ (m,): g has shape (..., n)
                return np.expand_dims(g, -1) * other_t.data
            grad = g @ np.swapaxes(other_t.data, -1, -2)
            return _unbroadcast(grad, self.shape) if grad.shape != self.shape else grad

        def grad_right(g: Array) -> Array:
            if self.ndim == 1:
                grad = np.outer(self.data, g) if g.ndim == 1 else np.einsum(
                    "i,...j->...ij", self.data, g
                )
            else:
                grad = np.swapaxes(self.data, -1, -2) @ g
            return (
                _unbroadcast(grad, other_t.shape)
                if grad.shape != other_t.shape
                else grad
            )

        return Tensor._make(out, [(self, grad_left), (other_t, grad_right)], "matmul")

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self.data.reshape(shape)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "reshape")
        original = self.shape
        return Tensor._make(out, [(self, lambda g: g.reshape(original))], "reshape")

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out = self.data.transpose(axes)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "transpose")
        inverse = tuple(np.argsort(axes))
        return Tensor._make(out, [(self, lambda g: g.transpose(inverse))], "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out = np.swapaxes(self.data, a, b)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "swapaxes")
        return Tensor._make(out, [(self, lambda g: np.swapaxes(g, a, b))], "swapaxes")

    def __getitem__(self, index) -> "Tensor":
        out = self.data[index]
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(np.asarray(out), "index")

        def grad_fn(g: Array) -> Array:
            grad = np.zeros_like(self.data)
            if _is_basic_index(index):
                grad[index] += g
            else:
                np.add.at(grad, index, g)
            return grad

        return Tensor._make(np.asarray(out), [(self, grad_fn)], "index")

    def expand_dims(self, axis: int) -> "Tensor":
        out = np.expand_dims(self.data, axis)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "expand_dims")
        return Tensor._make(out, [(self, lambda g: np.squeeze(g, axis))], "expand_dims")

    def squeeze(self, axis: int) -> "Tensor":
        out = np.squeeze(self.data, axis)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "squeeze")
        return Tensor._make(out, [(self, lambda g: np.expand_dims(g, axis))], "squeeze")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: "int | tuple[int, ...] | None" = None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(np.asarray(out), "sum")

        def grad_fn(g: Array) -> Array:
            if axis is None:
                return np.broadcast_to(g, self.shape).copy()
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_expanded, self.shape).copy()

        return Tensor._make(np.asarray(out), [(self, grad_fn)], "sum")

    def mean(self, axis: "int | tuple[int, ...] | None" = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(np.asarray(out), "max")
        mask = self.data == self.data.max(axis=axis, keepdims=True)
        # Split gradient among ties, matching the subgradient convention.
        counts = mask.sum(axis=axis, keepdims=True)

        def grad_fn(g: Array) -> Array:
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return mask * (g_expanded / counts)

        return Tensor._make(np.asarray(out), [(self, grad_fn)], "max")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "exp")
        return Tensor._make(out, [(self, lambda g: g * out)], "exp")

    def log(self) -> "Tensor":
        out = np.log(self.data)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "log")
        return Tensor._make(out, [(self, lambda g: g / self.data)], "log")

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "sqrt")
        return Tensor._make(out, [(self, lambda g: g * 0.5 / out)], "sqrt")

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "tanh")
        return Tensor._make(out, [(self, lambda g: g * (1.0 - out**2))], "tanh")

    def sigmoid(self) -> "Tensor":
        out = logistic(self.data)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "sigmoid")
        return Tensor._make(out, [(self, lambda g: g * out * (1.0 - out))], "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self.data * mask
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "relu")
        return Tensor._make(out, [(self, lambda g: g * mask)], "relu")

    def clip(self, low: float, high: float) -> "Tensor":
        out = np.clip(self.data, low, high)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "clip")
        mask = (self.data >= low) & (self.data <= high)
        return Tensor._make(out, [(self, lambda g: g * mask)], "clip")

    def abs(self) -> "Tensor":
        out = np.abs(self.data)
        if not getattr(_GRAD_STATE, "enabled", True):
            return Tensor._wrap(out, "abs")
        sign = np.sign(self.data)
        return Tensor._make(out, [(self, lambda g: g * sign)], "abs")


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=default_dtype()), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=default_dtype()), requires_grad=requires_grad)
