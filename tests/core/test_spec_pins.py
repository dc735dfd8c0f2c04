"""Byte-level pins on spec serialization that hashes and caches depend on.

A workload's fingerprint names its dataset, ``ModelConfig.to_json`` feeds
the model store's content hash (a loaded artifact must re-hash to its
directory name), and ``ModelConfig.to_dict`` keys every tuning trial.  A
serializer change that moves one byte of this output orphans stored
artifacts and cached trials, so the exact bytes are pinned here.
"""

import hashlib
import json

from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.deploy import ModelArtifact, ModelStore
from repro.model import compile_from_dataset
from repro.workloads import SYNTH_PRESETS

from tests.fixtures import mini_dataset

PRESET_FINGERPRINTS = {
    "synth-easy": "f9d4c62a67ffdf1c",
    "synth-medium": "7ee56ebf43055462",
    "synth-hard": "9d307d6213ffd754",
    "synth-drift-storm": "138ec684d1105e1e",
    "synth-drift-calm": "7f2f1505ae4a4d4b",
}
DEFAULT_CONFIG_JSON = "14161b01c127d7451eb1138dccd05bd39444492ccc23cde025f424ec5535b84e"
CUSTOM_CONFIG_JSON = "93838f9c12fcbdd226922b0f736f1c8ea77d0ba8947113c2c518d53dd80e8cd2"
CUSTOM_CONFIG_DICT = "1d2c92d24157e3c9dbb29b51282a7f52165396d8a7d224e887d3ea9744412a38"
STORE_VERSION = "65caa36437386979"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def custom_config() -> ModelConfig:
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(
                encoder="lstm", size=64, aggregation="attention", dropout=0.1
            ),
            "query": PayloadConfig(embedding="corpus-32"),
        },
        trainer=TrainerConfig(lr=0.003, epochs=3, patience=2),
        dtype="float32",
    )


def test_every_preset_fingerprint_is_pinned():
    assert {name: spec.fingerprint() for name, spec in SYNTH_PRESETS.items()} == (
        PRESET_FINGERPRINTS
    )


def test_default_config_json_is_pinned():
    assert sha256(ModelConfig().to_json()) == DEFAULT_CONFIG_JSON


def test_custom_config_json_is_pinned():
    assert sha256(custom_config().to_json()) == CUSTOM_CONFIG_JSON


def test_custom_config_dict_keeps_declaration_order():
    # Unsorted on purpose: this pins the key order of ``to_dict`` too.
    assert sha256(json.dumps(custom_config().to_dict())) == CUSTOM_CONFIG_DICT


def test_store_version_of_a_fixed_artifact_is_pinned(tmp_path):
    dataset = mini_dataset(n=20, seed=0)
    config = ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=8),
            "query": PayloadConfig(size=8),
            "entities": PayloadConfig(size=8),
        },
        trainer=TrainerConfig(epochs=1, batch_size=8),
    )
    model, vocabs = compile_from_dataset(dataset, config, seed=0)
    store = ModelStore(tmp_path / "store")
    record = store.push("pinned", ModelArtifact.from_model(model, vocabs))
    assert record.version == STORE_VERSION
    # A fetched artifact re-hashes to the name it is stored under.
    assert store.fetch("pinned", record.version).config == config
