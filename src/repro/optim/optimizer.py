"""Optimizer base class, flat optimizer state, and gradient clipping.

All three are sparse-gradient aware: embedding lookups leave a
:class:`~repro.tensor.SparseRowGrad` on their table parameter, and the norm
/ scale / update logic here treats it as the dense gradient it stands in
for — without ever materializing that dense array.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.tensor import SparseRowGrad


class _Flat:
    """One dtype's parameters end to end in one buffer, rows data, grad,
    then the optimizer's state: each parameter's data (and dense grad) is
    rebound to a view of its span, and ``state`` (by parameter id) carried
    over into it, cast to the dtype."""

    def __init__(self, params: list[Parameter], rows: int, state: dict) -> None:
        offsets = np.cumsum([0] + [p.data.size for p in params]).tolist()
        self.size = offsets[-1]
        self.buffer = np.zeros((rows, self.size), dtype=params[0].data.dtype)
        self.slots = []  # (parameter, [data, grad, *state] views, span start)
        for p, start, stop in zip(params, offsets, offsets[1:]):
            views = [row[start:stop].reshape(p.data.shape) for row in self.buffer]
            for view, old in zip(views, [p.data, p.grad, *state.get(id(p), ())]):
                if isinstance(old, np.ndarray):
                    view[...] = old
            p.data = views[0]
            if isinstance(p.grad, np.ndarray):
                p.grad = views[1]
            self.slots.append((p, views, start))

    def scan(self) -> tuple[list[tuple[int, int]], list[int]] | None:
        """The spans of dense-grad runs and the slots with sparse grads, or
        None once a parameter's data is not its view.  A dense grad that is
        not its view is copied (cast) into it and rebound."""
        bounds, sparse, dense_before = [], [], False
        for i, (p, views, start) in enumerate(self.slots):
            if p.data is not views[0]:
                return None
            grad = p.grad
            dense = grad is views[1]
            if not dense and grad is not None:
                if isinstance(grad, np.ndarray):
                    np.copyto(views[1], grad)
                    p.grad = views[1]
                    dense = True
                else:
                    sparse.append(i)
            if dense is not dense_before:
                bounds.append(start)
                dense_before = dense
        if dense_before:
            bounds.append(self.size)
        return list(zip(bounds[::2], bounds[1::2])), sparse


class Optimizer:
    """Base optimizer: parameters, a mutable learning rate, flat state.

    The first :meth:`step` adopts the parameters into one contiguous buffer
    per dtype holding their data, grads and ``state_names`` arrays, all as
    views.  Each step checks the views by identity: data rebound (by
    ``load_state_dict``, ``Module.to_dtype``, assignment) triggers a fresh
    adoption, state carried over; a dense grad that is not its view (after
    ``Module.zero_grad()``) is copied in.  Then :meth:`_update` runs in place
    over each contiguous run of parameters with dense grads, and
    :meth:`_update_sparse` row-wise over each sparse-grad table's views.  A
    parameter whose grad is None splits the run and keeps its state.
    """

    state_names: tuple[str, ...] = ()

    def __init__(self, params: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self._flats: list[_Flat] = []

    def step(self) -> None:
        scans = [flat.scan() for flat in self._flats]
        if not self._flats or None in scans:
            self._adopt()
            scans = [flat.scan() for flat in self._flats]
        for flat, (runs, sparse) in zip(self._flats, scans):
            for start, stop in runs:
                self._update(*flat.buffer[:, start:stop])
            for i in sparse:
                p, (data, _, *state), _ = flat.slots[i]
                self._update_sparse(data, p.grad, *state)

    def _adopt(self) -> None:
        state = {id(p): views[2:] for flat in self._flats for p, views, _ in flat.slots}
        by_dtype: dict[np.dtype, list[Parameter]] = {}
        for p in {id(p): p for p in self.params}.values():
            by_dtype.setdefault(p.data.dtype, []).append(p)
        rows = 2 + len(self.state_names)
        self._flats = [_Flat(group, rows, state) for group in by_dtype.values()]

    def _update(self, data: np.ndarray, grad: np.ndarray, *state: np.ndarray) -> None:
        raise NotImplementedError

    def _update_sparse(self, data: np.ndarray, grad: SparseRowGrad, *state) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Clear gradients for the next step, keeping dense buffers parked.

        ``.grad`` reads ``None`` afterwards (``step()`` relies on ``None``
        to skip parameters whose loss terms were not computed), but each
        dense gradient's allocation is parked on its parameter so the
        following ``backward()`` writes into the same array instead of
        allocating a fresh one per step.  Sparse gradients are dropped
        (their shape changes with every batch's indices).
        """
        for p in self.params:
            p.zero_grad(set_to_none=False)


def grad_norm(params: list[Parameter]) -> float:
    """The global L2 norm of all current gradients, without modifying them.

    Sparse gradients are coalesced (in place, on the parameter) first so
    duplicate-row contributions are counted once, exactly as the
    equivalent dense gradient would be.  Parameters without a gradient
    are skipped.
    """
    total = 0.0
    for p in params:
        grad = p.grad
        if grad is None:
            continue
        if isinstance(grad, SparseRowGrad):
            p.grad = grad.coalesce()
            total += p.grad.norm_sq()
        else:
            total += float((grad**2).sum())
    return float(np.sqrt(total))


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm (useful for training diagnostics).
    Sparse gradients are coalesced first so duplicate-row contributions are
    counted once, exactly as the equivalent dense gradient would be.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = grad_norm(params)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if isinstance(p.grad, SparseRowGrad):
                p.grad = p.grad * scale
            elif p.grad is not None:
                p.grad *= scale
    return norm
