"""Tests for the tuning spec: validation, expansion, sizes."""

import pytest

from repro.core import ModelConfig, PayloadConfig, TrainerConfig, TuningSpec
from repro.errors import TuningError


class TestValidation:
    def test_unknown_payload_key(self):
        with pytest.raises(TuningError):
            TuningSpec(payload_options={"tokens": {"hidden": [1]}})

    def test_unknown_encoder(self):
        with pytest.raises(TuningError):
            TuningSpec(payload_options={"tokens": {"encoder": ["transformerXL"]}})

    def test_unknown_aggregation(self):
        with pytest.raises(TuningError):
            TuningSpec(payload_options={"query": {"aggregation": ["sum"]}})

    def test_unknown_trainer_key(self):
        with pytest.raises(TuningError):
            TuningSpec(trainer_options={"temperature": [1.0]})

    def test_from_dict_unknown_top_level(self):
        with pytest.raises(TuningError):
            TuningSpec.from_dict({"model": {}})


class TestExpansion:
    def test_empty_spec_yields_default(self):
        configs = TuningSpec().expand()
        assert len(configs) == 1
        assert configs[0].trainer == TrainerConfig()

    def test_grid_size(self):
        spec = TuningSpec(
            payload_options={
                "tokens": {"encoder": ["bow", "lstm"], "size": [16, 32]},
            },
            trainer_options={"lr": [0.01, 0.001]},
        )
        assert spec.size() == 8
        assert len(spec.expand()) == 8

    def test_multi_payload_cross_product(self):
        spec = TuningSpec(
            payload_options={
                "tokens": {"encoder": ["bow", "cnn"]},
                "query": {"aggregation": ["mean", "max"]},
            }
        )
        configs = spec.expand()
        assert len(configs) == 4
        combos = {
            (c.for_payload("tokens").encoder, c.for_payload("query").aggregation)
            for c in configs
        }
        assert combos == {
            ("bow", "mean"),
            ("bow", "max"),
            ("cnn", "mean"),
            ("cnn", "max"),
        }

    def test_for_payload_default(self):
        config = ModelConfig()
        assert config.for_payload("anything") == PayloadConfig()

    def test_expand_applies_trainer_options(self):
        spec = TuningSpec(trainer_options={"epochs": [3], "lr": [0.5]})
        (config,) = spec.expand()
        assert config.trainer.epochs == 3
        assert config.trainer.lr == 0.5


class TestSerialization:
    def test_model_config_roundtrip(self):
        config = ModelConfig(
            payloads={"tokens": PayloadConfig(encoder="lstm", size=64)},
            trainer=TrainerConfig(lr=0.02, epochs=5),
        )
        again = ModelConfig.from_dict(config.to_dict())
        assert again == config

    def test_tuning_spec_roundtrip(self):
        spec = TuningSpec(
            payload_options={"tokens": {"encoder": ["bow"]}},
            trainer_options={"lr": [0.1]},
        )
        again = TuningSpec.from_dict(spec.to_dict())
        assert again.payload_options == spec.payload_options
        assert again.trainer_options == spec.trainer_options

    def test_unknown_model_config_keys_are_rejected(self):
        with pytest.raises(TuningError, match=r"unknown ModelConfig keys \['trainr'\]"):
            ModelConfig.from_dict({"trainr": {"epochs": 1}})
        with pytest.raises(TuningError, match=r"ModelConfig.trainer.*\['epoch'\]"):
            ModelConfig.from_dict({"trainer": {"epoch": 1}})

    @pytest.mark.parametrize("text", [None, "{not json", "[]"])
    def test_from_file_errors_are_tuning_errors(self, tmp_path, text):
        path = tmp_path / "tuning.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(TuningError, match="TuningSpec"):
            TuningSpec.from_file(path)

    def test_from_file(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text('{"payloads": {"tokens": {"size": [8]}}, "trainer": {}}')
        spec = TuningSpec.from_file(path)
        assert spec.payload_options["tokens"]["size"] == [8]
