"""Multi-head attention.

Used in two places, both straight from the paper:

* as a coarse encoder block alternative (a small transformer-style encoder);
* as Overton's *default payload aggregation*: "By default, combination is
  done with multi-headed attention" (footnote 6) — e.g. a ``query`` payload
  attending over its ``tokens`` payload, or an ``entities`` payload attending
  over its referenced spans.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.init import zeros
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.normalization import LayerNorm
from repro.tensor import Tensor, masked_fill, softmax


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` heads.

    ``dim`` must be divisible by ``num_heads``.  Accepts separate query and
    key/value inputs so it serves both self-attention and cross-payload
    aggregation.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ShapeError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng, bias=False)
        self.k_proj = Linear(dim, dim, rng, bias=False)
        self.v_proj = Linear(dim, dim, rng, bias=False)
        self.out_proj = Linear(dim, dim, rng)

    def forward(
        self,
        query: Tensor,
        keys: Tensor | None = None,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend ``query`` (batch, tq, dim) over ``keys`` (batch, tk, dim).

        ``mask`` is ``(batch, tk)`` with 1.0 at valid key positions.
        ``keys`` defaults to ``query`` (self-attention).
        """
        if keys is None:
            keys = query
        batch, tq, _ = query.shape
        tk = keys.shape[1]
        h, hd = self.num_heads, self.head_dim

        def split_heads(t: Tensor, length: int) -> Tensor:
            # (batch, len, dim) -> (batch, heads, len, head_dim)
            return t.reshape(batch, length, h, hd).transpose(0, 2, 1, 3)

        q = split_heads(self.q_proj(query), tq)
        k = split_heads(self.k_proj(keys), tk)
        v = split_heads(self.v_proj(keys), tk)

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(hd))
        if mask is not None:
            invalid = ~np.asarray(mask, dtype=bool)  # (batch, tk)
            invalid = np.broadcast_to(invalid[:, None, None, :], scores.shape)
            scores = masked_fill(scores, invalid, -1e9)
        weights = softmax(scores, axis=-1)
        attended = weights @ v  # (batch, heads, tq, head_dim)
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, tq, self.dim)
        return self.out_proj(merged)


class AttentionPooling(Module):
    """Aggregate a sequence into a single vector with a learned query.

    This is the paper's default payload-combination mechanism: a singleton
    payload (e.g. ``query``) is the attention-pooled summary of the sequence
    payload it references.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.seed_query = Parameter(zeros((1, 1, dim)))
        self.attention = MultiHeadAttention(dim, num_heads, rng)

    def forward(self, sequence: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """(batch, time, dim) -> (batch, dim)."""
        batch = sequence.shape[0]
        query = self.seed_query + Tensor(zeros((batch, 1, sequence.shape[2])))
        pooled = self.attention(query, sequence, mask)
        return pooled.squeeze(1)


class TransformerBlock(Module):
    """Self-attention + feed-forward with residuals and layer norm."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.attention = MultiHeadAttention(dim, num_heads, rng)
        self.norm1 = LayerNorm(dim)
        self.ff1 = Linear(dim, 2 * dim, rng, activation="relu")
        self.ff2 = Linear(2 * dim, dim, rng)
        self.norm2 = LayerNorm(dim)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        x = self.norm1(x + self.attention(x, mask=mask))
        x = self.norm2(x + self.ff2(self.ff1(x)))
        return x


class TransformerEncoder(Module):
    """Input projection + a stack of transformer blocks."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        num_layers: int = 2,
        num_heads: int = 4,
    ) -> None:
        super().__init__()
        self.input_proj = Linear(input_dim, hidden_dim, rng)
        self.blocks = [TransformerBlock(hidden_dim, num_heads, rng) for _ in range(num_layers)]
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        x = self.input_proj(x)
        for block in self.blocks:
            x = block(x, mask)
        return x
