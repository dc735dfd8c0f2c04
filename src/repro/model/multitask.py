"""The compiled multitask model.

"Overton was built to natively support multitask learning so that all model
tasks are concurrently predicted" (§1).  One forward pass encodes every
payload (following the schema's dataflow DAG) and evaluates every task head;
the training loss is the sum of per-task noise-aware losses, so supervision
at any granularity contributes to the shared representations.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema_def import Schema
from repro.core.tuning_spec import ModelConfig
from repro.data.batching import Batch
from repro.data.vocab import Vocab
from repro.errors import CompilationError, TrainingError
from repro.model.embeddings_registry import EmbeddingRegistry
from repro.model.payload_encoders import (
    SequencePayloadEncoder,
    SetPayloadEncoder,
    SingletonPayloadEncoder,
)
from repro.model.task_heads import (
    TaskOutput,
    TaskTargets,
    build_task_head,
)
from repro.nn import Module
from repro.tensor import Tensor, dtype_policy, no_grad, resolve_dtype


class MultitaskModel(Module):
    """Encoders for every payload + a head for every task."""

    def __init__(
        self,
        schema: Schema,
        config: ModelConfig,
        vocabs: dict[str, Vocab],
        slice_names: list[str] | None = None,
        registry: EmbeddingRegistry | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.schema = schema
        self.config = config
        self.slice_names = list(slice_names or [])
        registry = registry or EmbeddingRegistry()
        rng = np.random.default_rng(seed)

        # The compiler stamps the config's dtype into the model: every
        # parameter below is created under this policy, and forward/loss
        # scope themselves in it so raw numpy inputs coerce to match.
        self.dtype = resolve_dtype(config.dtype)
        with dtype_policy(self.dtype):
            self._build(schema, config, vocabs, registry, rng)

    def _build(
        self,
        schema: Schema,
        config: ModelConfig,
        vocabs: dict[str, Vocab],
        registry: EmbeddingRegistry,
        rng: np.random.Generator,
    ) -> None:
        """Construct encoders and heads (runs under the model's dtype)."""
        self.encoders: dict[str, Module] = {}
        sizes: dict[str, int] = {}
        # The schema is immutable: its dataflow order is computed once here,
        # not on every forward.
        self._payload_order = schema.topological_payload_order()
        for payload in self._payload_order:
            p_config = config.for_payload(payload.name)
            if payload.type == "sequence":
                vocab = vocabs.get(payload.name)
                if vocab is None:
                    raise CompilationError(
                        f"no vocab for sequence payload {payload.name!r}"
                    )
                self.encoders[payload.name] = SequencePayloadEncoder(
                    payload, p_config, len(vocab), rng, registry, vocab=vocab
                )
            elif payload.type == "singleton":
                base_sizes = {name: sizes[name] for name in payload.base}
                self.encoders[payload.name] = SingletonPayloadEncoder(
                    payload, p_config, base_sizes, rng
                )
            elif payload.type == "set":
                vocab = vocabs.get(payload.name)
                if vocab is None:
                    raise CompilationError(f"no vocab for set payload {payload.name!r}")
                if payload.range is None:
                    raise CompilationError(
                        f"set payload {payload.name!r} has no range payload"
                    )
                self.encoders[payload.name] = SetPayloadEncoder(
                    payload,
                    p_config,
                    range_size=sizes[payload.range],
                    vocab_size=len(vocab),
                    rng=rng,
                    registry=registry,
                    vocab=vocab,
                )
            sizes[payload.name] = p_config.size
        self.payload_sizes = sizes

        self.heads: dict[str, Module] = {}
        self._select_context: dict[str, str] = {}
        for task in schema.tasks:
            rep_dim = sizes[task.payload]
            context_dim = None
            if task.type == "select":
                context_payload = self._find_select_context(task.payload)
                if context_payload is not None:
                    self._select_context[task.name] = context_payload
                    context_dim = sizes[context_payload]
            self.heads[task.name] = build_task_head(
                task, rep_dim, self.slice_names, rng, context_dim=context_dim
            )

    def _find_select_context(self, set_payload_name: str) -> str | None:
        """A singleton payload summarizing the set's range, if one exists.

        E.g. ``query`` (aggregating ``tokens``) is the natural context for
        selecting among ``entities`` whose spans live in ``tokens``.
        """
        set_payload = self.schema.payload(set_payload_name)
        if set_payload.range is None:
            return None
        for payload in self.schema.payloads:
            if payload.type == "singleton" and set_payload.range in payload.base:
                return payload.name
        return None

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def encode_payloads(self, batch: Batch) -> tuple[dict[str, Tensor], dict[str, np.ndarray]]:
        """Encode every payload following the schema DAG.

        Returns (reps, masks): masks are per-position/member validity for
        sequence and set payloads.
        """
        reps: dict[str, Tensor] = {}
        masks: dict[str, np.ndarray] = {}
        for payload in self._payload_order:
            encoder = self.encoders[payload.name]
            inputs = batch.payloads.get(payload.name)
            if payload.type == "sequence":
                if inputs is None or inputs.ids is None:
                    raise TrainingError(f"batch missing payload {payload.name!r}")
                reps[payload.name] = encoder(inputs)
                masks[payload.name] = inputs.mask
            elif payload.type == "singleton":
                reps[payload.name] = encoder(inputs, reps, masks)
            elif payload.type == "set":
                if inputs is None or inputs.member_ids is None:
                    raise TrainingError(f"batch missing payload {payload.name!r}")
                reps[payload.name] = encoder(inputs, reps[payload.range])
                masks[payload.name] = inputs.member_mask
        return reps, masks

    def forward(self, batch: Batch) -> dict[str, TaskOutput]:
        """Predict every task for ``batch``.

        Runs under the model's :func:`~repro.tensor.dtype_policy`, so any
        float input that enters the tensor layer (masks, features, span
        weights) is coerced to the compiled dtype — a float32 model never
        silently upcasts its activations through a float64 batch array.
        """
        with dtype_policy(self.dtype):
            reps, masks = self.encode_payloads(batch)
            outputs: dict[str, TaskOutput] = {}
            for task in self.schema.tasks:
                rep = reps[task.payload]
                mask = masks.get(task.payload)
                context_name = self._select_context.get(task.name)
                if context_name is not None:
                    outputs[task.name] = self.heads[task.name](
                        rep, mask, context=reps[context_name]
                    )
                else:
                    outputs[task.name] = self.heads[task.name](rep, mask)
            return outputs

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def compute_loss(
        self,
        outputs: dict[str, TaskOutput],
        targets: dict[str, TaskTargets],
        slice_weight: float = 0.5,
        task_weights: dict[str, float] | None = None,
    ) -> Tensor:
        """Sum of per-task noise-aware losses over the tasks in ``targets``."""
        if not targets:
            raise TrainingError("compute_loss needs at least one task's targets")
        with dtype_policy(self.dtype):
            total: Tensor | None = None
            for task_name, task_targets in targets.items():
                if task_name not in outputs:
                    raise TrainingError(f"no output for task {task_name!r}")
                head = self.heads[task_name]
                term = head.loss(outputs[task_name], task_targets, slice_weight)
                weight = (task_weights or {}).get(task_name, 1.0)
                term = term * weight
                total = term if total is None else total + term
            assert total is not None
            return total

    def predict(self, batch: Batch) -> dict[str, TaskOutput]:
        """Inference forward pass: tape-free, and so without dropout.

        Runs under :func:`repro.tensor.no_grad`, so no vjp closures are
        recorded anywhere in the forward graph — every serving caller
        (``Endpoint``, the gateway's replica lanes) and the evaluation
        harness inherit the fast path through this method.  The module
        mode is neither read nor changed: :class:`~repro.nn.Dropout` is off
        whenever tape recording is off, so a model in train mode (the
        trainer's dev evaluation between epochs) predicts exactly what it
        would in eval mode, leaves every submodule's ``training`` flag as
        it was and draws nothing from any dropout generator.
        """
        with no_grad():
            return self.forward(batch)

    def to_dtype(self, dtype) -> "MultitaskModel":
        """Cast parameters *and* the model's forward/loss policy to ``dtype``.

        This is the serving-time precision override (``Endpoint(...,
        dtype="float32")``): unlike :meth:`Module.to_dtype` it also moves
        the dtype the forward pass scopes itself in, so inputs keep
        coercing to match the freshly-cast parameters.  ``self.config``
        follows too — an artifact built from a cast model must recompile
        in the dtype it actually serves in.
        """
        import dataclasses

        resolved = resolve_dtype(dtype)
        super().to_dtype(resolved)
        self.dtype = resolved
        if self.config.dtype != resolved.name:
            self.config = dataclasses.replace(self.config, dtype=resolved.name)
        return self

    def describe(self) -> dict:
        """Summary used in artifact metadata and monitoring."""
        return {
            "payload_sizes": dict(self.payload_sizes),
            "num_parameters": self.num_parameters(),
            "slices": list(self.slice_names),
            "tasks": self.schema.task_names,
            "dtype": self.dtype.name,
            "config": self.config.to_dict(),
        }
