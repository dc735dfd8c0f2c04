"""Shared test utilities: gradient checking, a taped cross-entropy, call
counting, process liveness, search executors over plain score functions, and
scoped observability.

Both gradient helpers accept a ``dtype`` so the gradcheck suites can run under the
float32 policy too: the function under test is evaluated inside
``dtype_policy(dtype)``, and float32 runs use a larger finite-difference
step (single-precision losses only carry ~7 significant digits, so a 1e-6
step is below the noise floor) with correspondingly relaxed tolerances.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from repro.exec import TrialExecutor
from repro.obs import enable, get_registry, get_tracer
from repro.tensor import Tensor, dtype_policy
from repro.tensor.functional import CrossEntropy

# Finite-difference steps and comparison tolerances per dtype policy.
_EPS = {"float64": 1e-6, "float32": 1e-3}
_TOL = {"float64": (1e-5, 1e-4), "float32": (5e-3, 5e-2)}


def numerical_grad(
    fn: Callable[[Tensor], Tensor],
    x: np.ndarray,
    eps: float | None = None,
    dtype: str = "float64",
) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``.

    Perturbation bookkeeping stays in float64; each evaluation runs under
    ``dtype_policy(dtype)`` so the function sees the same precision the
    autodiff pass under test used.  ``eps`` defaults per dtype — a
    float64-sized step under float32 would be dominated by rounding noise.
    """
    if eps is None:
        eps = _EPS[dtype]
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    with dtype_policy(dtype):
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn(Tensor(x)).item()
            flat[i] = orig - eps
            lo = fn(Tensor(x)).item()
            flat[i] = orig
            grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(
    fn: Callable[[Tensor], Tensor],
    x: np.ndarray,
    atol: float | None = None,
    rtol: float | None = None,
    dtype: str = "float64",
) -> None:
    """Assert that autodiff and numerical gradients of ``fn`` agree at ``x``.

    Under ``dtype="float32"`` the input, every op, and the returned
    gradient all live in single precision (asserted), and the comparison
    uses float32-appropriate step size and tolerances.  Explicit
    caller tolerances are honored verbatim under float64 (so a test may
    pin a *tighter* bound than the default); under float32 they are only
    ever widened to the precision's noise floor.
    """
    base_atol, base_rtol = _TOL[dtype]
    if atol is None:
        atol = base_atol
    elif dtype == "float32":
        atol = max(atol, base_atol)
    if rtol is None:
        rtol = base_rtol
    elif dtype == "float32":
        rtol = max(rtol, base_rtol)
    with dtype_policy(dtype):
        t = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
        assert t.data.dtype == np.dtype(dtype)
        out = fn(t)
        out.backward()
    assert t.grad is not None, "no gradient reached the input"
    assert t.grad.dtype == np.dtype(dtype), t.grad.dtype
    num = numerical_grad(fn, x, eps=_EPS[dtype], dtype=dtype)
    np.testing.assert_allclose(t.grad, num, atol=atol, rtol=rtol)


def cross_entropy(
    logits: Tensor, targets, sample_weights=None, class_weights=None
) -> Tensor:
    """:class:`~repro.tensor.functional.CrossEntropy` of a ``Tensor``'s
    logits as one tape node (the gradcheck and parity suites' loss)."""
    loss = CrossEntropy(logits.data, targets, sample_weights, class_weights)
    return Tensor._make_joint(
        loss.value, [logits], lambda g: [loss.vjp(g)], "cross_entropy"
    )


def python_calls(fn: Callable, *args, of: Callable | None = None) -> int:
    """Python-level function calls made while ``fn(*args)`` runs.

    A count, not a clock: under ``sys.setprofile`` it repeats exactly on
    any host, so a guard built on it needs no noise margin.  ``of``
    narrows the count to calls of that one function (or method).
    """
    code = getattr(of, "__code__", None)
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call" and (code is None or frame.f_code is code):
            calls += 1

    sys.setprofile(on_event)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def proc_stat_fields(pid: int | str) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command: state, ppid, ...; None if gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def process_running(pid: int) -> bool:
    """Is ``pid`` a live process?  (An unreaped zombie has exited.)"""
    fields = proc_stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def child_pids(parents: set[int]) -> list[int]:
    """Pids of every process whose parent is one of ``parents``."""
    return [
        int(entry.name)
        for entry in Path("/proc").iterdir()
        if entry.name.isdigit()
        and (fields := proc_stat_fields(entry.name)) is not None
        and int(fields[1]) in parents
    ]


def scoring_executor(score: Callable) -> TrialExecutor:
    """A ``TrialExecutor`` whose every trial returns ``score(config)``.

    How a test drives a search strategy with a plain score function: the
    strategies take an executor, and a halving trial's budget reaches
    ``score`` as ``config.trainer.epochs``.
    """
    return TrialExecutor(lambda _context, config, _seed, _budget: score(config))


def obs_active() -> bool:
    """Whether the global observability switch is on."""
    return get_tracer().enabled or get_registry().enabled


@contextmanager
def obs_activated():
    """Scoped ``repro.obs.enable()``: on exit restore the previous switch
    state, zero every metric series, and clear the span ring so no state
    leaks between tests."""
    tracer, registry = get_tracer(), get_registry()
    prev = (tracer.enabled, registry.enabled, tracer.sample_every)
    enable()
    try:
        yield
    finally:
        tracer.enabled, registry.enabled, tracer.sample_every = prev
        registry.reset()
        tracer.ring.clear()
