"""Masked sequence pooling.

Fig. 2a's tuning spec lists ``"agg": ["max", "mean"]`` for the query payload:
how a singleton payload summarizes the sequence payload it references.  The
attention option lives in :mod:`repro.nn.attention`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor, masked_fill


class MeanPooling(Module):
    """Masked mean over the time axis: (batch, time, dim) -> (batch, dim)."""

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        if mask is None:
            return x.mean(axis=1)
        m = np.asarray(mask, dtype=x.data.dtype)
        counts = np.maximum(m.sum(axis=1, keepdims=True), 1.0)
        weighted = x * m[:, :, None]
        return weighted.sum(axis=1) / counts


class MaxPooling(Module):
    """Masked max over the time axis: (batch, time, dim) -> (batch, dim)."""

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        if mask is None:
            return x.max(axis=1)
        invalid = ~np.asarray(mask, dtype=bool)
        filled = masked_fill(x, np.broadcast_to(invalid[:, :, None], x.shape), -1e9)
        return filled.max(axis=1)


def make_pooling(kind: str, dim: int, rng: np.random.Generator) -> Module:
    """Factory over the aggregation choices in the tuning spec."""
    from repro.nn.attention import AttentionPooling

    if kind == "mean":
        return MeanPooling()
    if kind == "max":
        return MaxPooling()
    if kind == "attention":
        heads = 4 if dim % 4 == 0 else 1
        return AttentionPooling(dim, heads, rng)
    raise ValueError(f"unknown aggregation {kind!r}; expected mean/max/attention")
