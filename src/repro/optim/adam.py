"""Adam and AdamW optimizers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction, on flat state.

    With ``decoupled_weight_decay=True`` this is AdamW: decay is applied to
    the weights directly instead of the gradient.

    Sparse gradients (embedding rows) update the first/second-moment
    estimates row-wise — the moment decay is applied in place to the whole
    table (as Adam's math requires) but the gradient itself never
    materializes densely.  Coupled weight decay mixes ``p.data`` into the
    gradient, which is inherently dense, so that configuration falls back
    to :meth:`~repro.tensor.SparseRowGrad.to_dense`.  The moments live in
    the optimizer's flat buffer (see :class:`~repro.optim.Optimizer`).
    """

    state_names = ("m", "v")

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        decoupled_weight_decay: bool = False,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled_weight_decay
        self._t = 0

    def step(self) -> None:
        self._t += 1
        self._bias = (1.0 - self.beta1**self._t, 1.0 - self.beta2**self._t)
        super().step()

    def _update(self, data, grad, m, v) -> None:
        if self.weight_decay and not self.decoupled:
            grad = grad + self.weight_decay * data
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        self._apply(data, m, v)

    def _update_sparse(self, data, grad, m, v) -> None:
        if self.weight_decay and not self.decoupled:
            return self._update(data, grad.to_dense(), m, v)
        sparse = grad.coalesce()
        m *= self.beta1
        m[sparse.indices] += (1.0 - self.beta1) * sparse.values
        v *= self.beta2
        v[sparse.indices] += (1.0 - self.beta2) * sparse.values**2
        self._apply(data, m, v)

    def _apply(self, data, m, v) -> None:
        """``data -= lr * m_hat / (sqrt(v_hat) + eps)`` (+ decoupled decay)."""
        bias1, bias2 = self._bias
        denom = v / bias2
        np.sqrt(denom, out=denom)
        denom += self.eps
        update = m / bias1
        update /= denom
        if self.weight_decay and self.decoupled:
            update += self.weight_decay * data
        update *= self.lr
        data -= update


def AdamW(
    params: list[Parameter],
    lr: float = 1e-3,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.01,
) -> Adam:
    """AdamW constructor: Adam with decoupled weight decay."""
    return Adam(
        params,
        lr=lr,
        betas=betas,
        eps=eps,
        weight_decay=weight_decay,
        decoupled_weight_decay=True,
    )
