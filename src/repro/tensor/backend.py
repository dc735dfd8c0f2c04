"""The thread-local dtype policy of the compute stack.

Every float allocation and coercion in ``tensor/``, ``data/``, ``nn/`` and
``model/`` asks this module which float dtype numbers default to, instead
of hard-coding ``np.float64``.  The paper's premise is that the schema
compiler owns every numerical decision; the policy is how that ownership
reaches the array layer: the compiler stamps ``ModelConfig.dtype`` into
the model, the model scopes its forward/loss in :func:`dtype_policy`, and
serving can trade precision for throughput
(``Endpoint(..., dtype="float32")``) without touching application code.

The policy is thread-local so a float32 serving lane and a float64
training loop coexist in one process, exactly like the ``no_grad`` flag.
The process-wide default stays ``float64``, so code that never touches the
policy is bit-identical to the pre-policy stack.

The arrays themselves are plain numpy: call sites allocate with
``np.zeros(shape, dtype=default_dtype())`` and friends.

Usage::

    from repro.tensor import dtype_policy, set_default_dtype, default_dtype

    with dtype_policy("float32"):
        t = Tensor([1.0, 2.0])          # float32 storage
    set_default_dtype("float64")         # this thread, until changed back
"""

from __future__ import annotations

import threading

import numpy as np

# The only bare float64 literals in the compute stack live here: this module
# *defines* what "float64" means for everyone else.
_DTYPES: dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

# A supported dtype resolves to itself; looked up before the ``.name``
# property (three Python calls), since the hot callers pass a model's
# already resolved dtype.
_RESOLVED: dict[np.dtype, np.dtype] = {dtype: dtype for dtype in _DTYPES.values()}

DEFAULT_DTYPE_NAME = "float64"


def supported_dtypes() -> tuple[str, ...]:
    """The dtype names the policy accepts (``float32``, ``float64``)."""
    return tuple(sorted(_DTYPES))


def resolve_dtype(spec) -> np.dtype:
    """Normalize a dtype spec (name, numpy dtype/type, or None) to a dtype.

    ``None`` resolves to the calling thread's current default, so call
    sites can uniformly write ``resolve_dtype(maybe_dtype)``.
    """
    if spec is None:
        return default_dtype()
    if isinstance(spec, np.dtype):
        if spec in _RESOLVED:
            return _RESOLVED[spec]
        name = spec.name
    elif isinstance(spec, str):
        name = spec
    elif isinstance(spec, type) and issubclass(spec, np.generic):
        name = np.dtype(spec).name
    else:
        raise TypeError(
            f"cannot resolve dtype from {spec!r}; "
            f"expected one of {supported_dtypes()} or a numpy float dtype"
        )
    try:
        return _DTYPES[name]
    except KeyError:
        raise ValueError(
            f"unsupported dtype {name!r}; supported: {supported_dtypes()}"
        ) from None


# ----------------------------------------------------------------------
# The dtype policy (thread-local)
# ----------------------------------------------------------------------
_PROCESS_DEFAULT = _DTYPES[DEFAULT_DTYPE_NAME]
_POLICY = threading.local()


def default_dtype() -> np.dtype:
    """The calling thread's default float dtype (process default: float64)."""
    return getattr(_POLICY, "dtype", _PROCESS_DEFAULT)


def set_default_dtype(spec) -> np.dtype:
    """Set the calling thread's default float dtype; returns the previous.

    Prefer the scoped :func:`dtype_policy` in library code — an unmatched
    ``set_default_dtype`` leaks the policy to everything else the thread
    runs afterwards.
    """
    previous = default_dtype()
    _POLICY.dtype = resolve_dtype(spec)
    return previous


class dtype_policy:
    """Context manager scoping the thread's default float dtype.

    Nesting is safe; the previous dtype is restored on exit even when the
    body raises.  Like :class:`repro.tensor.no_grad` this is thread-local,
    so a float32 serving thread never perturbs a float64 training thread.
    """

    __slots__ = ("_dtype", "_prev")

    def __init__(self, spec) -> None:
        self._dtype = resolve_dtype(spec)

    def __enter__(self) -> "dtype_policy":
        self._prev = default_dtype()
        _POLICY.dtype = self._dtype
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _POLICY.dtype = self._prev
        return False
