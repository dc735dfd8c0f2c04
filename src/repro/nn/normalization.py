"""Normalization layers."""

from __future__ import annotations

import numpy as np

from repro.nn.init import zeros
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, default_dtype


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.gain = Parameter(np.ones(dim, dtype=default_dtype()))
        self.bias = Parameter(zeros(dim))
        self.eps = eps
        self.dim = dim

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gain + self.bias
