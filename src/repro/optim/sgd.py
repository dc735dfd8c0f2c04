"""Stochastic gradient descent with optional momentum."""

from __future__ import annotations

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer


class SGD(Optimizer):
    """SGD with classical momentum and optional L2 weight decay.

    Sparse gradients (embedding rows) are applied row-wise: without
    momentum only the touched rows are updated; with momentum the velocity
    decay is in place and only the touched rows receive new gradient, so no
    dense gradient is ever materialized.  Weight decay mixes ``p.data`` into
    the gradient and is inherently dense, so it falls back to
    :meth:`~repro.tensor.SparseRowGrad.to_dense`.  The velocity lives in
    the optimizer's flat buffer (see :class:`~repro.optim.Optimizer`).
    """

    state_names = ("velocity",)

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay

    def _update(self, data, grad, velocity) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        if self.momentum:
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        data -= self.lr * grad

    def _update_sparse(self, data, grad, velocity) -> None:
        if self.weight_decay:
            return self._update(data, grad.to_dense(), velocity)
        sparse = grad.coalesce()
        if self.momentum:
            velocity *= self.momentum
            velocity[sparse.indices] += sparse.values
            data -= self.lr * velocity
        else:
            data[sparse.indices] -= self.lr * sparse.values
