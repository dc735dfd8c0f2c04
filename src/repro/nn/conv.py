"""1-D convolutional sequence encoder.

The CNN encoder is one of the coarse blocks Overton's search considers as an
alternative to recurrent encoders (§4 "Network Architecture Search": the
search is over blocks like "LSTM or CNN", not fine-grained connections).

Implemented as a sum of shifted affine maps, which keeps every step inside
the autodiff engine without a custom im2col kernel.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import kaiming_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor


class Conv1d(Module):
    """Same-padded 1-D convolution over ``(batch, time, in_dim)`` inputs.

    ``kernel_size`` must be odd so "same" padding is symmetric.  The output
    has shape ``(batch, time, out_dim)``.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        kernel_size: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if kernel_size % 2 != 1:
            raise ValueError(f"kernel_size must be odd, got {kernel_size}")
        self.kernels = [
            Parameter(kaiming_uniform((in_dim, out_dim), rng)) for _ in range(kernel_size)
        ]
        self.bias = Parameter(zeros((out_dim,)))
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.kernel_size = kernel_size

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        batch, time, _ = x.shape
        half = self.kernel_size // 2
        if mask is not None:
            # Zero padded positions so they don't leak into neighbours.
            x = x * Tensor(mask[:, :, None])
        out: Tensor | None = None
        for k, kernel in enumerate(self.kernels):
            offset = k - half
            shifted = self._shift(x, offset, batch, time)
            term = shifted @ kernel
            out = term if out is None else out + term
        assert out is not None
        out = out + self.bias
        return out.relu()

    @staticmethod
    def _shift(x: Tensor, offset: int, batch: int, time: int) -> Tensor:
        """Shift the time axis by ``offset``, zero-filling the gap."""
        if offset == 0:
            return x
        zeros_pad = Tensor(zeros((batch, abs(offset), x.shape[2])))
        from repro.tensor import concat

        if offset > 0:
            body = x[:, offset:, :]
            return concat([body, zeros_pad], axis=1)
        body = x[:, :offset, :]
        return concat([zeros_pad, body], axis=1)


class CNNEncoder(Module):
    """A stack of Conv1d layers with a linear input projection."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        num_layers: int = 2,
        kernel_size: int = 3,
    ) -> None:
        super().__init__()
        self.layers = [
            Conv1d(input_dim if i == 0 else hidden_dim, hidden_dim, kernel_size, rng)
            for i in range(num_layers)
        ]
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, mask)
        return x
