"""Overton's core abstractions: schema, signature, tuning spec, constraints.

The application lifecycle built on them lives in :mod:`repro.api`.
"""

from repro.core.payloads import PAYLOAD_TYPES, PayloadSpec
from repro.core.tasks import TASK_TYPES, TaskSpec
from repro.core.schema_def import Schema
from repro.core.signature import InputSignature, ServingSignature, TaskSignature
from repro.core.constraints import (
    Constraint,
    ConstraintError,
    ConstraintSet,
    JointDecodeResult,
    intent_argument_compatibility,
)
from repro.core.tuning_spec import (
    AGGREGATION_CHOICES,
    ENCODER_CHOICES,
    ModelConfig,
    PayloadConfig,
    TrainerConfig,
    TuningSpec,
)

__all__ = [
    "PAYLOAD_TYPES",
    "PayloadSpec",
    "TASK_TYPES",
    "TaskSpec",
    "Schema",
    "InputSignature",
    "ServingSignature",
    "TaskSignature",
    "AGGREGATION_CHOICES",
    "ENCODER_CHOICES",
    "ModelConfig",
    "PayloadConfig",
    "TrainerConfig",
    "TuningSpec",
    "Constraint",
    "ConstraintError",
    "ConstraintSet",
    "JointDecodeResult",
    "intent_argument_compatibility",
]
