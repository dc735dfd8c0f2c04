"""Serving signatures.

"This information allows Overton to compile the inference code and the loss
functions for each task and to build a serving signature, which contains
detailed information of the types and can be consumed by model serving
infrastructure" (§2.1).

The signature is the *only* contract between a deployed artifact and serving
code — serving never needs the schema, tuning spec, or training data, which
is what lets the model change without serving-code changes (model
independence, §1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.codec import Spec
from repro.core.schema_def import Schema
from repro.errors import SchemaError


@dataclass(frozen=True)
class TaskSignature(Spec, error=SchemaError):
    """Output contract for one task."""

    name: str
    type: str
    granularity: str  # singleton | sequence | set
    classes: tuple[str, ...]


@dataclass(frozen=True)
class InputSignature(Spec, error=SchemaError):
    """Input contract for one payload that serving must supply."""

    name: str
    type: str
    max_length: int | None
    max_members: int | None
    dim: int | None


@dataclass(frozen=True)
class ServingSignature(Spec, error=SchemaError):
    """Full serving contract: inputs, outputs, and the schema fingerprint."""

    inputs: tuple[InputSignature, ...]
    outputs: tuple[TaskSignature, ...]
    schema_fingerprint: str

    @classmethod
    def from_schema(cls, schema: Schema) -> "ServingSignature":
        inputs = []
        for p in schema.payloads:
            if p.base:
                # Derived payloads are computed inside the model; serving
                # does not supply them.
                continue
            inputs.append(
                InputSignature(
                    name=p.name,
                    type=p.type,
                    max_length=p.max_length,
                    max_members=p.max_members,
                    dim=p.dim,
                )
            )
        outputs = []
        for t in schema.tasks:
            payload = schema.payload(t.payload)
            outputs.append(
                TaskSignature(
                    name=t.name,
                    type=t.type,
                    granularity=payload.type,
                    classes=t.classes,
                )
            )
        return cls(
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            schema_fingerprint=schema.fingerprint(),
        )

    def output(self, task_name: str) -> TaskSignature:
        for out in self.outputs:
            if out.name == task_name:
                return out
        raise SchemaError(f"signature has no output for task {task_name!r}")
