"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """The schema file is malformed or internally inconsistent."""


class DataError(ReproError):
    """A data record does not conform to the schema, or a data file is bad."""


class SupervisionError(ReproError):
    """Label sources or label matrices are malformed or inconsistent."""

class SliceError(ReproError):
    """A slice definition is invalid or references unknown data."""


class CompilationError(ReproError):
    """The schema + tuning spec could not be compiled into a model."""


class TrainingError(ReproError):
    """Training failed or was configured inconsistently."""


class TuningError(ReproError):
    """The hyperparameter search space or controller is misconfigured."""


class ExecutionError(ReproError):
    """A worker process or worker team was misused (started twice, sized < 1)."""


class DeploymentError(ReproError):
    """An artifact could not be serialized, stored, or loaded."""


class StoreError(DeploymentError):
    """The model store rejected an operation (missing key, hash mismatch)."""


class AutopilotError(ReproError):
    """Raised when the self-healing supervisor is misconfigured or stuck."""


class ServeError(ReproError):
    """The serving runtime (gateway, replica pool, rollout) is misused."""


class ServeOverloadError(ServeError):
    """The gateway shed a request: queue full or every tier's breaker open.

    Retryable by construction — the request was rejected *before* any
    work happened, so a client may simply resubmit after backing off
    (the HTTP front maps this to 503 with a ``Retry-After`` header).
    """


class ServeTimeout(ServeError):
    """A submitted request was not answered within its deadline.

    Unlike :class:`ServeOverloadError` the request *was* accepted and may
    still complete; the caller only stopped waiting (HTTP 504).
    """


class WorkerCrashError(ServeError):
    """A long-lived worker process died (or stopped answering) mid-request.

    Raised by :mod:`repro.exec.workers` when the duplex channel to a
    worker breaks.  It is a :class:`ServeError` so the serving gateway's
    failure domains apply unchanged: the batch fails, the tier's circuit
    breaker records the failure, and the HTTP front answers 503 while the
    supervisor respawns the worker.
    """


class FaultError(ReproError):
    """A fault-injection plan is malformed or internally inconsistent."""


class ObservabilityError(ReproError):
    """A metric or trace instrument is declared or used inconsistently."""


class GradientError(ReproError):
    """Autodiff failure: backward on a non-scalar, missing graph, etc."""


class ShapeError(GradientError):
    """Tensor operands have incompatible shapes."""
