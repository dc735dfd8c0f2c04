"""The model-tuning specification (Fig. 2a, right panel).

The tuning spec is deliberately *separate* from the schema: "A key design
decision is that the schema does not contain information about
hyperparameters like hidden state sizes" (§2.1).  It lists, per payload, the
coarse blocks Overton's search may choose among — embeddings, encoders,
sizes, aggregations — plus trainer-level options.

A spec *expands* into a list of concrete :class:`ModelConfig` candidates;
the tuning controller (:mod:`repro.tuning`) evaluates them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass, field

from repro.core.codec import Spec
from repro.errors import TuningError

ENCODER_CHOICES = ("bow", "cnn", "lstm", "bilstm", "gru", "attention")
AGGREGATION_CHOICES = ("mean", "max", "attention")


@dataclass(frozen=True)
class PayloadConfig(Spec, error=TuningError):
    """Concrete architecture choices for one payload."""

    embedding: str = "learned"  # "learned" or a named pretrained product
    encoder: str = "bow"
    size: int = 32
    aggregation: str = "mean"
    attention_heads: int = 2
    dropout: float = 0.0


@dataclass(frozen=True)
class TrainerConfig(Spec, error=TuningError):
    """Concrete trainer hyperparameters."""

    optimizer: str = "adam"
    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 32
    weight_decay: float = 0.0
    clip_norm: float = 5.0
    seed: int = 0
    slice_weight: float = 0.5
    patience: int = 0  # 0 disables early stopping


@dataclass(frozen=True)
class ModelConfig(Spec, error=TuningError):
    """One fully concrete candidate: per-payload choices + trainer + dtype.

    ``dtype`` is the float precision the compiler stamps into the model —
    ``"float64"`` (the default, bit-identical to the pre-policy stack) or
    ``"float32"``.  It is a *model* decision, not a payload or trainer one:
    every parameter, activation, and loss of the compiled model lives in
    this dtype (see :mod:`repro.tensor.backend`).
    """

    payloads: dict[str, PayloadConfig] = field(default_factory=dict)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    dtype: str = "float64"

    def for_payload(self, name: str) -> PayloadConfig:
        return self.payloads.get(name, PayloadConfig())


@dataclass(frozen=True)
class TuningSpec(Spec, error=TuningError):
    """A search space: per-payload lists of options + trainer lists.

    JSON format mirrors Fig. 2a::

        {
          "payloads": {
            "tokens": {"embedding": ["learned", "corpus-32"],
                        "encoder": ["lstm", "cnn"], "size": [32, 64]},
            "query":  {"aggregation": ["max", "mean"]}
          },
          "trainer": {"lr": [0.01, 0.003], "epochs": [10]}
        }
    """

    payload_options: dict[str, dict[str, list]] = field(
        default_factory=dict, metadata={"json": "payloads"}
    )
    trainer_options: dict[str, list] = field(
        default_factory=dict, metadata={"json": "trainer"}
    )

    _PAYLOAD_KEYS = tuple(f.name for f in dataclasses.fields(PayloadConfig))
    _TRAINER_KEYS = tuple(f.name for f in dataclasses.fields(TrainerConfig))

    def __post_init__(self) -> None:
        for payload, options in self.payload_options.items():
            unknown = set(options) - set(self._PAYLOAD_KEYS)
            if unknown:
                raise TuningError(
                    f"payload {payload!r}: unknown tuning keys {sorted(unknown)}"
                )
            for encoder in options.get("encoder", []):
                if encoder not in ENCODER_CHOICES:
                    raise TuningError(
                        f"payload {payload!r}: unknown encoder {encoder!r}; "
                        f"choices: {ENCODER_CHOICES}"
                    )
            for agg in options.get("aggregation", []):
                if agg not in AGGREGATION_CHOICES:
                    raise TuningError(
                        f"payload {payload!r}: unknown aggregation {agg!r}; "
                        f"choices: {AGGREGATION_CHOICES}"
                    )
        unknown = set(self.trainer_options) - set(self._TRAINER_KEYS)
        if unknown:
            raise TuningError(f"unknown trainer tuning keys {sorted(unknown)}")

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def expand(self) -> list[ModelConfig]:
        """Enumerate the full cross product of all options (grid order)."""
        per_payload_candidates: dict[str, list[PayloadConfig]] = {}
        for payload, options in self.payload_options.items():
            keys = sorted(options)
            value_lists = [options[k] for k in keys]
            candidates = []
            for combo in itertools.product(*value_lists):
                candidates.append(PayloadConfig(**dict(zip(keys, combo))))
            per_payload_candidates[payload] = candidates or [PayloadConfig()]

        trainer_keys = sorted(self.trainer_options)
        trainer_lists = [self.trainer_options[k] for k in trainer_keys]
        trainer_candidates = [
            TrainerConfig(**dict(zip(trainer_keys, combo)))
            for combo in itertools.product(*trainer_lists)
        ] or [TrainerConfig()]

        payload_names = sorted(per_payload_candidates)
        payload_lists = [per_payload_candidates[name] for name in payload_names]
        configs = []
        for payload_combo in itertools.product(*payload_lists):
            payload_map = dict(zip(payload_names, payload_combo))
            for trainer in trainer_candidates:
                configs.append(ModelConfig(payloads=dict(payload_map), trainer=trainer))
        return configs

    def size(self) -> int:
        """Number of candidates ``expand()`` would produce."""
        total = 1
        for options in self.payload_options.values():
            for values in options.values():
                total *= max(len(values), 1)
        for values in self.trainer_options.values():
            total *= max(len(values), 1)
        return total

    def fingerprint(self) -> str:
        """Stable short hash identifying this search space.

        Stamped on coverage reports so a report is traceable to the exact
        space it describes.  Deliberately *not* part of the trial-cache
        key: trial outcomes depend on (application, data, config), not on
        which space proposed the config, and widening a space must keep
        its old candidates' cache entries valid.
        """
        return hashlib.sha256(self.to_json(indent=None).encode()).hexdigest()[:16]
