"""Payload encoders: embed raw payload inputs into representation tensors.

"Overton's responsibility is to embed these payloads into tensors of the
correct size" (§2.1).  One encoder per payload; the encoder block is chosen
by the tuning config (the red components of Fig. 2b), while the dataflow
between payloads is fixed by the schema (the black boxes).
"""

from __future__ import annotations

import numpy as np

from repro.core.payloads import PayloadSpec
from repro.core.tuning_spec import PayloadConfig
from repro.data.batching import PayloadInputs
from repro.errors import CompilationError
from repro.model.embeddings_registry import EmbeddingRegistry
from repro.nn import (
    BiLSTM,
    CNNEncoder,
    Dropout,
    Embedding,
    GRU,
    Linear,
    LSTM,
    Module,
    TransformerEncoder,
    make_pooling,
)
from repro.tensor import Tensor, concat, stack


class SequencePayloadEncoder(Module):
    """ids (B, L) -> representations (B, L, size)."""

    def __init__(
        self,
        spec: PayloadSpec,
        config: PayloadConfig,
        vocab_size: int,
        rng: np.random.Generator,
        registry: EmbeddingRegistry,
        vocab=None,
    ) -> None:
        super().__init__()
        self.spec = spec
        self.size = config.size
        if config.embedding == "learned":
            self.embedding = Embedding(vocab_size, config.size, rng, padding_idx=0)
            embed_dim = config.size
        else:
            product = registry.get(config.embedding)
            if vocab is None:
                raise CompilationError(
                    f"payload {spec.name!r}: pretrained embedding "
                    f"{config.embedding!r} requires the payload vocab"
                )
            table = product.table_for(vocab, rng)
            self.embedding = Embedding(
                len(vocab), product.dim, pretrained=table, padding_idx=0
            )
            embed_dim = product.dim

        encoder = config.encoder
        if encoder == "bow":
            # Bag of words: per-position projection only (order-insensitive
            # beyond the embedding itself).
            self.encoder = None
            self.proj = (
                Linear(embed_dim, config.size, rng) if embed_dim != config.size else None
            )
        elif encoder == "cnn":
            self.encoder = CNNEncoder(embed_dim, config.size, rng)
            self.proj = None
        elif encoder == "lstm":
            self.encoder = LSTM(embed_dim, config.size, rng)
            self.proj = None
        elif encoder == "bilstm":
            if config.size % 2 != 0:
                raise CompilationError(
                    f"payload {spec.name!r}: bilstm needs an even size, got {config.size}"
                )
            self.encoder = BiLSTM(embed_dim, config.size, rng)
            self.proj = None
        elif encoder == "gru":
            self.encoder = GRU(embed_dim, config.size, rng)
            self.proj = None
        elif encoder == "attention":
            heads = config.attention_heads if config.size % config.attention_heads == 0 else 1
            self.encoder = TransformerEncoder(
                embed_dim, config.size, rng, num_layers=1, num_heads=heads
            )
            self.proj = None
        else:
            raise CompilationError(
                f"payload {spec.name!r}: unknown encoder {encoder!r}"
            )
        self.dropout = Dropout(config.dropout, seed=int(rng.integers(2**31)))

    def forward(self, inputs: PayloadInputs) -> Tensor:
        embedded = self.embedding(inputs.ids)
        if self.encoder is None:
            rep = self.proj(embedded) if self.proj is not None else embedded
        else:
            rep = self.encoder(embedded, inputs.mask)
        rep = self.dropout(rep)
        # Zero padded positions so downstream pooling stays clean.
        return rep * inputs.mask[:, :, None]


class SingletonPayloadEncoder(Module):
    """Aggregate base payload reps (or project raw features) to (B, size)."""

    def __init__(
        self,
        spec: PayloadSpec,
        config: PayloadConfig,
        base_sizes: dict[str, int],
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.spec = spec
        self.size = config.size
        self.base_names = list(spec.base)
        if self.base_names:
            self.poolers = {
                name: make_pooling(config.aggregation, base_sizes[name], rng)
                for name in self.base_names
            }
            total = sum(base_sizes[name] for name in self.base_names)
            self.proj = Linear(total, config.size, rng, activation="tanh")
        else:
            if spec.dim is None:
                raise CompilationError(
                    f"singleton payload {spec.name!r} has neither base nor dim"
                )
            self.poolers = {}
            self.proj = Linear(spec.dim, config.size, rng, activation="tanh")
        self.dropout = Dropout(config.dropout, seed=int(rng.integers(2**31)))

    def forward(
        self,
        inputs: PayloadInputs | None,
        base_reps: dict[str, Tensor],
        base_masks: dict[str, np.ndarray],
    ) -> Tensor:
        if self.base_names:
            pooled = [
                self.poolers[name](base_reps[name], base_masks.get(name))
                for name in self.base_names
            ]
            combined = pooled[0] if len(pooled) == 1 else concat(pooled, axis=-1)
            return self.dropout(self.proj(combined))
        assert inputs is not None and inputs.features is not None
        return self.dropout(self.proj(Tensor(inputs.features)))


class SetPayloadEncoder(Module):
    """Encode set members: span summaries of the range payload + member ids.

    "An entity payload may refer to its corresponding span of text" (§2.1):
    each member's representation is the mean of its span positions in the
    range payload's rep, summed with the member-id embedding, projected to
    ``size``.
    """

    def __init__(
        self,
        spec: PayloadSpec,
        config: PayloadConfig,
        range_size: int,
        vocab_size: int,
        rng: np.random.Generator,
        registry: EmbeddingRegistry,
        vocab=None,
    ) -> None:
        super().__init__()
        self.spec = spec
        self.size = config.size
        if config.embedding == "learned":
            self.member_embedding = Embedding(vocab_size, config.size, rng, padding_idx=0)
            member_dim = config.size
        else:
            product = registry.get(config.embedding)
            if vocab is None:
                raise CompilationError(
                    f"payload {spec.name!r}: pretrained embedding requires vocab"
                )
            table = product.table_for(vocab, rng)
            self.member_embedding = Embedding(
                len(vocab), product.dim, pretrained=table, padding_idx=0
            )
            member_dim = product.dim
        self.span_proj = Linear(range_size, config.size, rng, activation="tanh")
        self.member_proj = (
            Linear(member_dim, config.size, rng)
            if member_dim != config.size
            else None
        )
        self.dropout = Dropout(config.dropout, seed=int(rng.integers(2**31)))

    def forward(self, inputs: PayloadInputs, range_rep: Tensor) -> Tensor:
        """inputs.spans (B, M, 2) over range_rep (B, L, d) -> (B, M, size)."""
        length = range_rep.shape[1]
        # Span mean via a (B, M, L) weight matrix — pure numpy, no gradient
        # needed through the weights themselves.  Built by broadcasting a
        # position grid against the clipped span bounds instead of a
        # (batch x members) python loop.  Empty or inverted spans (end <=
        # start after clipping) get an all-zero row, i.e. a zero span
        # summary, matching how masked members are treated.
        starts = np.minimum(np.maximum(inputs.spans[..., 0], 0), length)  # (B, M)
        ends = np.minimum(np.maximum(inputs.spans[..., 1], 0), length)
        positions = np.arange(length)
        in_span = (positions >= starts[..., None]) & (positions < ends[..., None])
        widths = np.maximum(ends - starts, 1)[..., None]
        active = (inputs.member_mask > 0)[..., None]
        weights = np.where(active, in_span / widths, 0.0)
        span_summary = Tensor(weights) @ range_rep  # (B, M, d_range)
        rep = self.span_proj(span_summary)
        member_emb = self.member_embedding(inputs.member_ids)
        if self.member_proj is not None:
            member_emb = self.member_proj(member_emb)
        rep = rep + member_emb
        rep = self.dropout(rep)
        return rep * inputs.member_mask[:, :, None]
