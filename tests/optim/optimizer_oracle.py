"""The per-parameter optimizer loops ``repro.optim`` replaced.

These are ``Adam.step`` and ``SGD.step`` as they were before the optimizer
state moved into one flat buffer per dtype, unchanged except that the
optimizer's hyperparameters come from an argument and the state lives here:
a loop over the parameters with about fifteen numpy calls each, skipping
those whose grad is None, and rebinding ``p.data`` to a fresh array.  They
are the reference the flat updates must reproduce bit for bit (data and
state), so they live in the tests and are not to be "optimized".
"""

from __future__ import annotations

import numpy as np

from repro.tensor import SparseRowGrad


class _Oracle:
    params: list

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad(set_to_none=False)


class OracleAdam(_Oracle):
    """Adam/AdamW with ``config``'s hyperparameters, per parameter."""

    def __init__(self, params, config) -> None:
        self.params = list(params)
        self.lr = config.lr
        self.beta1, self.beta2 = config.beta1, config.beta2
        self.eps = config.eps
        self.weight_decay = config.weight_decay
        self.decoupled = config.decoupled
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def state(self) -> dict[str, list[np.ndarray]]:
        return {"m": self.m, "v": self.v}

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            m, v = realigned(i, p, self.m, self.v)
            grad = p.grad
            if isinstance(grad, SparseRowGrad):
                if self.weight_decay and not self.decoupled:
                    grad = grad.to_dense()
                else:
                    sparse = grad.coalesce()
                    m *= self.beta1
                    m[sparse.indices] += (1.0 - self.beta1) * sparse.values
                    v *= self.beta2
                    v[sparse.indices] += (1.0 - self.beta2) * sparse.values**2
                    update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
                    if self.weight_decay and self.decoupled:
                        update = update + self.weight_decay * p.data
                    p.data = p.data - self.lr * update
                    continue
            if self.weight_decay and not self.decoupled:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay and self.decoupled:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update


class OracleSGD(_Oracle):
    """SGD with ``config``'s momentum and weight decay, per parameter."""

    def __init__(self, params, config) -> None:
        self.params = list(params)
        self.lr = config.lr
        self.momentum = config.momentum
        self.weight_decay = config.weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def state(self) -> dict[str, list[np.ndarray]]:
        return {"velocity": self.velocity}

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            (v,) = realigned(i, p, self.velocity)
            grad = p.grad
            if isinstance(grad, SparseRowGrad):
                if self.weight_decay:
                    grad = grad.to_dense()
                elif self.momentum:
                    sparse = grad.coalesce()
                    v *= self.momentum
                    v[sparse.indices] += sparse.values
                    p.data -= self.lr * v
                    continue
                else:
                    sparse = grad.coalesce()
                    p.data[sparse.indices] -= self.lr * sparse.values
                    continue
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.data = p.data - self.lr * update


def realigned(i: int, p, *stores: list) -> tuple:
    """Per-parameter state buffers, re-cast (in the store) if ``p`` was."""
    out = []
    for store in stores:
        buf = store[i]
        if buf.dtype != p.data.dtype:
            buf = store[i] = buf.astype(p.data.dtype)
        out.append(buf)
    return tuple(out)
