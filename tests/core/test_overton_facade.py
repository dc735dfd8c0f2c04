"""End-to-end tests for the Figure 1 loop through ``Application``."""

import numpy as np
import pytest

from repro import (
    Application,
    Endpoint,
    ModelConfig,
    ModelStore,
    PayloadConfig,
    SliceSet,
    SliceSpec,
    TrainerConfig,
    TuningSpec,
)
from repro.errors import TrainingError

from tests.fixtures import factoid_schema, mini_dataset


def fast_config(**kwargs) -> ModelConfig:
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=16),
            "query": PayloadConfig(size=16),
            "entities": PayloadConfig(size=16),
        },
        trainer=TrainerConfig(epochs=4, batch_size=16, lr=0.05, **kwargs),
    )


class TestTrainEvaluate:
    def test_full_loop(self):
        ds = mini_dataset(n=80, seed=0)
        app = Application(factoid_schema())
        trained = app.fit(ds, fast_config()).trained
        evals = app.evaluate(trained, ds, tag="test")
        assert evals["Intent"].metrics["accuracy"] > 0.8
        # Supervision metadata is surfaced for monitoring.
        assert "weak_a" in trained.supervision["Intent"].source_accuracies

    def test_gold_excluded_from_training(self):
        ds = mini_dataset(n=40, seed=1)
        app = Application(factoid_schema())
        targets, combined = app.combine(ds.records)
        # Intent has weak sources; gold must not appear among them.
        assert "gold" not in combined["Intent"].source_accuracies

    def test_gold_only_task_still_trains(self):
        # POS/EntityType/IntentArg in mini_dataset have only gold labels;
        # combine() falls back to using them rather than failing.
        ds = mini_dataset(n=20, seed=2)
        app = Application(factoid_schema())
        targets, _ = app.combine(ds.records)
        assert targets["POS"].weights.sum() > 0

    def test_no_train_tag_rejected(self):
        ds = mini_dataset(n=10, seed=3)
        for r in ds.records:
            r.tags = ["test"]
        app = Application(factoid_schema())
        with pytest.raises(TrainingError, match="train"):
            app.fit(ds, fast_config())

    def test_report_includes_slices(self):
        ds = mini_dataset(n=40, seed=4)
        slices = SliceSet(
            [SliceSpec(name="short", predicate=lambda r: len(r.payloads["tokens"]) <= 5)]
        )
        app = Application(factoid_schema(), slices=slices)
        trained = app.fit(ds, fast_config()).trained
        report = app.report(trained, ds)
        tags = {r.tag for r in report.rows}
        assert "slice:short" in tags

    def test_majority_method(self):
        ds = mini_dataset(n=30, seed=5)
        app = Application(factoid_schema())
        trained = app.fit(ds, fast_config(), method="majority").trained
        assert trained.supervision["Intent"].method == "majority"


class TestTune:
    def test_grid_search_over_encoders(self):
        ds = mini_dataset(n=40, seed=6)
        app = Application(factoid_schema())
        spec = TuningSpec(
            payload_options={"tokens": {"encoder": ["bow"], "size": [8, 16]}},
            trainer_options={"epochs": [2], "lr": [0.05]},
        )
        run = app.tune(ds, spec, strategy="grid")
        result = run.search
        assert result.num_trials == 2
        assert run.trained.model is not None
        assert result.best_score >= max(
            t.score for t in result.trials
        ) - 1e-12

    def test_random_strategy(self):
        ds = mini_dataset(n=30, seed=7)
        app = Application(factoid_schema())
        spec = TuningSpec(
            payload_options={"tokens": {"size": [8, 16, 32]}},
            trainer_options={"epochs": [1]},
        )
        result = app.tune(ds, spec, strategy="random", num_trials=2).search
        assert result.num_trials == 2

    def test_unknown_strategy(self):
        ds = mini_dataset(n=20, seed=8)
        app = Application(factoid_schema())
        with pytest.raises(TrainingError):
            app.tune(ds, TuningSpec(), strategy="bayesian")

    def test_tune_requires_dev(self):
        ds = mini_dataset(n=20, seed=9)
        for r in ds.records:
            r.tags = ["train"]
        app = Application(factoid_schema())
        with pytest.raises(TrainingError, match="dev"):
            app.tune(ds, TuningSpec())


class TestDeploy:
    def test_train_deploy_serve(self, tmp_path):
        ds = mini_dataset(n=60, seed=10)
        app = Application(factoid_schema())
        trained = app.fit(ds, fast_config()).trained
        store = ModelStore(tmp_path / "store")
        version = app.deploy(trained, store, "factoid-qa", metrics={"acc": 0.9})
        assert version.metadata["metrics"]["acc"] == 0.9
        assert version.metadata["data_fingerprint"] == trained.train_fingerprint

        # Serving uses only the artifact — the model-independence contract.
        endpoint = Endpoint(store.fetch("factoid-qa"))
        response = endpoint.predict_one(
            {
                "tokens": ["kw_00_0", "kw_00_1", "ent00", "w0001"],
                "entities": [{"id": "ent00", "range": [2, 3]}],
            }
        )
        assert response["Intent"]["label"] == "height"

    def test_artifact_metadata_has_fingerprint(self):
        ds = mini_dataset(n=20, seed=11)
        app = Application(factoid_schema())
        trained = app.fit(ds, fast_config()).trained
        artifact = app.build_artifact(trained)
        assert artifact.metadata["data_fingerprint"] == trained.train_fingerprint
