"""The compiled multitask model and its compiler."""

from repro.model.embeddings_registry import EmbeddingProduct, EmbeddingRegistry
from repro.model.payload_encoders import (
    SequencePayloadEncoder,
    SetPayloadEncoder,
    SingletonPayloadEncoder,
)
from repro.model.task_heads import (
    BitvectorTaskHead,
    MulticlassTaskHead,
    SelectTaskHead,
    TaskOutput,
    TaskTargets,
    build_task_head,
)
from repro.model.multitask import MultitaskModel
from repro.model.compiler import compile_model

__all__ = [
    "EmbeddingProduct",
    "EmbeddingRegistry",
    "SequencePayloadEncoder",
    "SetPayloadEncoder",
    "SingletonPayloadEncoder",
    "BitvectorTaskHead",
    "MulticlassTaskHead",
    "SelectTaskHead",
    "TaskOutput",
    "TaskTargets",
    "build_task_head",
    "MultitaskModel",
    "compile_model",
]
