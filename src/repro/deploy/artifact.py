"""Deployable model artifacts.

"Overton was built to construct a deployable production model" (§2.4).  An
artifact is a self-contained directory: weights, schema, tuning config,
vocabularies, serving signature, and training metrics.  Loading an artifact
requires nothing else — in particular no embedding registry and no training
data — which is what keeps serving code independent of modeling changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.schema_def import Schema
from repro.core.signature import ServingSignature
from repro.core.tuning_spec import ModelConfig
from repro.data.vocab import Vocab
from repro.errors import DeploymentError
from repro.model.compiler import compile_model
from repro.model.embeddings_registry import EmbeddingProduct, EmbeddingRegistry
from repro.model.multitask import MultitaskModel

_WEIGHTS = "weights.npz"
_SCHEMA = "schema.json"
_SIGNATURE = "signature.json"
_CONFIG = "config.json"
_VOCABS = "vocabs.json"
_META = "metadata.json"


@dataclass
class ModelArtifact:
    """A serialized, servable model."""

    schema: Schema
    config: ModelConfig
    signature: ServingSignature
    vocabs: dict[str, Vocab]
    state: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction from a trained model
    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        model: MultitaskModel,
        vocabs: dict[str, Vocab],
        metrics: dict | None = None,
        extra_metadata: dict | None = None,
    ) -> "ModelArtifact":
        embedding_dims = {}
        for name, encoder in model.encoders.items():
            embedding = getattr(encoder, "embedding", None) or getattr(
                encoder, "member_embedding", None
            )
            if embedding is not None:
                embedding_dims[name] = embedding.dim
        metadata = {
            "embedding_dims": embedding_dims,
            "slices": list(model.slice_names),
            "num_parameters": model.num_parameters(),
            "dtype": getattr(model, "dtype", np.dtype("float64")).name,
            "metrics": metrics or {},
        }
        metadata.update(extra_metadata or {})
        return cls(
            schema=model.schema,
            config=model.config,
            signature=ServingSignature.from_schema(model.schema),
            vocabs=dict(vocabs),
            state=model.state_dict(),
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # Model reconstruction
    # ------------------------------------------------------------------
    def build_model(self) -> MultitaskModel:
        """Recompile the model and load the stored weights.

        Pretrained embedding products named in the config are reconstructed
        as empty placeholders of the recorded dimension — the stored weights
        overwrite the tables anyway.
        """
        registry = EmbeddingRegistry()
        embedding_dims = self.metadata.get("embedding_dims", {})
        for payload_name, p_config in self.config.payloads.items():
            if p_config.embedding != "learned" and p_config.embedding not in registry:
                dim = embedding_dims.get(payload_name)
                if dim is None:
                    raise DeploymentError(
                        f"artifact metadata missing embedding dim for payload "
                        f"{payload_name!r}"
                    )
                registry.register(
                    EmbeddingProduct(name=p_config.embedding, dim=dim, vectors={})
                )
        model = compile_model(
            self.schema,
            self.config,
            self.vocabs,
            slice_names=self.metadata.get("slices", []),
            registry=registry,
        )
        model.load_state_dict(self.state)
        model.eval()
        return model

    # ------------------------------------------------------------------
    # Disk format
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.savez(directory / _WEIGHTS, **self.state)
        (directory / _SCHEMA).write_text(self.schema.to_json())
        (directory / _SIGNATURE).write_text(self.signature.to_json())
        (directory / _CONFIG).write_text(self.config.to_json())
        (directory / _VOCABS).write_text(
            json.dumps({name: v.to_dict() for name, v in self.vocabs.items()})
        )
        (directory / _META).write_text(json.dumps(self.metadata, indent=2))
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "ModelArtifact":
        directory = Path(directory)
        for required in (_WEIGHTS, _SCHEMA, _SIGNATURE, _CONFIG, _VOCABS, _META):
            if not (directory / required).exists():
                raise DeploymentError(f"artifact missing {required}: {directory}")
        with np.load(directory / _WEIGHTS) as data:
            state = {key: data[key] for key in data.files}
        schema = Schema.from_json((directory / _SCHEMA).read_text())
        signature = ServingSignature.from_file(directory / _SIGNATURE)
        if signature.schema_fingerprint != schema.fingerprint():
            raise DeploymentError(
                "artifact corrupt: signature fingerprint does not match schema"
            )
        config = ModelConfig.from_file(directory / _CONFIG)
        vocabs = {
            name: Vocab.from_dict(spec)
            for name, spec in json.loads((directory / _VOCABS).read_text()).items()
        }
        metadata = json.loads((directory / _META).read_text())
        return cls(
            schema=schema,
            config=config,
            signature=signature,
            vocabs=vocabs,
            state=state,
            metadata=metadata,
        )
