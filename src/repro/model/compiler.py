"""The schema compiler: (schema, config, data artifacts) -> model.

"Overton compiles the schema into a (parameterized) TensorFlow or PyTorch
program" (§1).  Here the target is the repro.nn substrate; the contract is
identical: the compiler owns every architecture decision the schema leaves
open, so application code never constructs models directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema_def import Schema
from repro.core.tuning_spec import ModelConfig
from repro.data.vocab import Vocab
from repro.errors import CompilationError
from repro.model.embeddings_registry import EmbeddingRegistry
from repro.model.multitask import MultitaskModel
from repro.tensor.backend import supported_dtypes


def compile_model(
    schema: Schema,
    config: ModelConfig,
    vocabs: dict[str, Vocab],
    slice_names: list[str] | None = None,
    registry: EmbeddingRegistry | None = None,
    seed: int = 0,
) -> MultitaskModel:
    """Compile a concrete model. Raises CompilationError on bad inputs."""
    _validate(schema, config, vocabs, registry or EmbeddingRegistry())
    return MultitaskModel(
        schema=schema,
        config=config,
        vocabs=vocabs,
        slice_names=slice_names,
        registry=registry,
        seed=seed,
    )


def _validate(
    schema: Schema,
    config: ModelConfig,
    vocabs: dict[str, Vocab],
    registry: EmbeddingRegistry,
) -> None:
    if config.dtype not in supported_dtypes():
        raise CompilationError(
            f"tuning config dtype {config.dtype!r} is not supported; "
            f"choices: {supported_dtypes()}"
        )
    known_payloads = set(schema.payload_names)
    for name in config.payloads:
        if name not in known_payloads:
            raise CompilationError(
                f"tuning config mentions unknown payload {name!r}; "
                f"schema payloads: {sorted(known_payloads)}"
            )
    for payload in schema.payloads:
        p_config = config.for_payload(payload.name)
        if p_config.size <= 0:
            raise CompilationError(
                f"payload {payload.name!r}: size must be positive, got {p_config.size}"
            )
        if payload.type in ("sequence", "set") and payload.name not in vocabs:
            raise CompilationError(
                f"payload {payload.name!r} ({payload.type}) requires a vocab"
            )
        if p_config.embedding != "learned" and p_config.embedding not in registry:
            raise CompilationError(
                f"payload {payload.name!r}: embedding product "
                f"{p_config.embedding!r} is not registered "
                f"(registered: {registry.names()})"
            )
