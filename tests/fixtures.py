"""Shared fixtures: the paper's Fig. 2a factoid schema, sample records,
generated datasets, and a model compiled straight from a dataset.

``mini_dataset`` builds from a small parametric synth spec
(:mod:`repro.workloads.synth`), so the fixture corpus exercises the same
generator the benches and soak tests use.
"""

from __future__ import annotations

from repro.core import ModelConfig, Schema
from repro.data import Dataset, Record
from repro.model import compile_model
from repro.workloads import FactoidGenerator, WorkloadConfig

POS_CLASSES = ["NOUN", "VERB", "ADJ", "ADV", "DET", "ADP", "PRON", "PUNCT"]
ENTITY_TYPE_CLASSES = ["person", "location", "country", "title", "food"]
INTENT_CLASSES = ["height", "age", "population", "capital", "nutrition"]


def factoid_schema() -> Schema:
    """The running-example schema from Fig. 2a, with explicit label spaces."""
    return Schema.from_dict(
        {
            "payloads": {
                "tokens": {"type": "sequence", "max_length": 12},
                "query": {"type": "singleton", "base": ["tokens"]},
                "entities": {"type": "set", "range": "tokens", "max_members": 4},
            },
            "tasks": {
                "POS": {
                    "payload": "tokens",
                    "type": "multiclass",
                    "classes": POS_CLASSES,
                },
                "EntityType": {
                    "payload": "tokens",
                    "type": "bitvector",
                    "classes": ENTITY_TYPE_CLASSES,
                },
                "Intent": {
                    "payload": "query",
                    "type": "multiclass",
                    "classes": INTENT_CLASSES,
                },
                "IntentArg": {"payload": "entities", "type": "select"},
            },
        }
    )


def mini_spec(n: int = 60, seed: int = 0, weak_noise: float = 0.2):
    """The synth WorkloadSpec behind :func:`mini_dataset`."""
    from repro.workloads.synth import WorkloadSpec

    return WorkloadSpec(
        name="mini",
        n=n,
        seed=seed,
        intents=len(INTENT_CLASSES),
        entity_types=len(ENTITY_TYPE_CLASSES),
        roles=len(POS_CLASSES),
        intent_names=tuple(INTENT_CLASSES),
        role_names=tuple(POS_CLASSES),
        type_names=tuple(ENTITY_TYPE_CLASSES),
        vocab_size=40,
        min_length=4,
        max_length=7,
        label_noise=weak_noise * 0.75,
        slice_rarity=0.0,
        slice_skew=0.0,
        ambiguity=0.0,
        keyword_dropout=0.0,
        sources=("weak_a", "weak_b", "lf_keyword", "crowd"),
        train_fraction=0.6,
        dev_fraction=0.2,
    )


def mini_dataset(n: int = 60, seed: int = 0, weak_noise: float = 0.2):
    """A small learnable dataset conforming to the factoid schema.

    Intent is determined by a keyword; entities are single-token spans; gold
    labels exist on every record (used for dev/test evaluation only), plus
    two noisy weak sources for training.  Built from :func:`mini_spec`.
    """
    from repro.data import Dataset
    from repro.workloads.synth import SynthGenerator

    generator = SynthGenerator(mini_spec(n, seed, weak_noise))
    return Dataset(factoid_schema(), list(generator.iter_records(n)))


def sample_record() -> Record:
    """A record shaped like the paper's pretty-printed example."""
    return Record.from_dict(
        {
            "payloads": {
                "tokens": ["how", "tall", "is", "the", "president", "of", "the", "us"],
                "query": "how tall is the president of the us",
                "entities": [
                    {"id": "President_(title)", "range": [4, 5]},
                    {"id": "United_States", "range": [7, 8]},
                ],
            },
            "tasks": {
                "POS": {
                    "spacy": ["ADV", "ADJ", "VERB", "DET", "NOUN", "ADP", "DET", "NOUN"]
                },
                "EntityType": {
                    "eproj": [[], [], [], [], ["title"], [], [], ["location", "country"]]
                },
                "Intent": {"weak1": "height", "weak2": "age", "crowd": "height"},
                "IntentArg": {"weak1": 0, "weak2": 1, "crowd": 0},
            },
            "tags": ["train"],
        }
    )


def compile_from_dataset(
    dataset: Dataset,
    config: ModelConfig,
    slice_names: list[str] | None = None,
    seed: int = 0,
):
    """Build vocabs from ``dataset``, then compile: ``(model, vocabs)``."""
    vocabs = dataset.build_vocabs()
    model = compile_model(dataset.schema, config, vocabs, slice_names, seed=seed)
    return model, vocabs


def generate_dataset(n: int = 1000, seed: int = 0, **kwargs) -> Dataset:
    """A generated factoid dataset of ``n`` records."""
    return FactoidGenerator(WorkloadConfig(n=n, seed=seed, **kwargs)).generate()
