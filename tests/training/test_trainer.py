"""Tests for the trainer: learning, early stopping, and reports."""

import numpy as np
import pytest

from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.errors import TrainingError
from repro.model import TaskTargets
from repro.supervision import combine_supervision
from repro.training import (
    Trainer,
    evaluate,
    mean_primary,
    quality_report,
)

from tests.fixtures import compile_from_dataset, mini_dataset
from tests.helpers import obs_activated


def small_config(epochs=6, **kwargs) -> ModelConfig:
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=16),
            "query": PayloadConfig(size=16),
            "entities": PayloadConfig(size=16),
        },
        trainer=TrainerConfig(epochs=epochs, batch_size=16, lr=0.05, **kwargs),
    )


def build_targets(ds, records):
    targets = {}
    for task in ("Intent", "POS", "EntityType", "IntentArg"):
        combined = combine_supervision(
            records, ds.schema, task, exclude_sources=["gold"]
        ) if task == "Intent" else combine_supervision(records, ds.schema, task)
        targets[task] = TaskTargets(probs=combined.probs, weights=combined.weights)
    return targets


class TestTrainerLearning:
    def test_learns_intent_from_weak_labels(self):
        ds = mini_dataset(n=80, seed=0)
        train = ds.split("train")
        test = ds.split("test")
        model, vocabs = compile_from_dataset(ds, small_config())
        trainer = Trainer(model, model.config.trainer)
        history = trainer.fit(train.records, vocabs, build_targets(ds, train.records))
        assert len(history.epochs) == 6
        # Loss decreases.
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss
        evals = evaluate(model, test.records, ds.schema, vocabs, "gold")
        assert evals["Intent"].metrics["accuracy"] > 0.8
        assert evals["IntentArg"].metrics["accuracy"] == 1.0  # single candidate

    def test_dev_tracking_and_best_restore(self):
        ds = mini_dataset(n=60, seed=1)
        train, dev = ds.split("train"), ds.split("dev")
        model, vocabs = compile_from_dataset(ds, small_config(epochs=4))
        trainer = Trainer(model, model.config.trainer)
        history = trainer.fit(
            train.records, vocabs, build_targets(ds, train.records), dev.records
        )
        assert history.best_epoch >= 0
        assert history.best_dev_score > 0
        assert all(e.dev_score is not None for e in history.epochs)

    def test_early_stopping(self):
        ds = mini_dataset(n=40, seed=2)
        train, dev = ds.split("train"), ds.split("dev")
        model, vocabs = compile_from_dataset(ds, small_config(epochs=50, patience=2))
        trainer = Trainer(model, model.config.trainer)
        history = trainer.fit(
            train.records, vocabs, build_targets(ds, train.records), dev.records
        )
        assert history.stopped_early
        assert len(history.epochs) < 50

    def test_callback_invoked(self):
        ds = mini_dataset(n=30, seed=3)
        train = ds.split("train")
        model, vocabs = compile_from_dataset(ds, small_config(epochs=2))
        trainer = Trainer(model, model.config.trainer)
        seen = []
        trainer.fit(
            train.records,
            vocabs,
            build_targets(ds, train.records),
            callback=lambda stats: seen.append(stats.epoch),
        )
        assert seen == [0, 1]

    def test_empty_dataset_rejected(self):
        ds = mini_dataset(n=20, seed=4)
        model, vocabs = compile_from_dataset(ds, small_config())
        trainer = Trainer(model, model.config.trainer)
        with pytest.raises(TrainingError):
            trainer.fit([], vocabs, {})

    def test_misaligned_targets_rejected(self):
        ds = mini_dataset(n=20, seed=5)
        train = ds.split("train")
        model, vocabs = compile_from_dataset(ds, small_config())
        trainer = Trainer(model, model.config.trainer)
        bad = build_targets(ds, train.records)
        bad["Intent"] = TaskTargets(
            probs=bad["Intent"].probs[:2], weights=bad["Intent"].weights[:2]
        )
        with pytest.raises(TrainingError, match="rows"):
            trainer.fit(train.records, vocabs, bad)

    def test_unknown_optimizer(self):
        ds = mini_dataset(n=20, seed=6)
        model, _ = compile_from_dataset(ds, small_config())
        with pytest.raises(TrainingError):
            Trainer(model, TrainerConfig(optimizer="lbfgs"))

    @pytest.mark.parametrize("optimizer", ["adam", "adamw", "sgd"])
    def test_all_optimizers_run(self, optimizer):
        ds = mini_dataset(n=20, seed=7)
        train = ds.split("train")
        config = small_config(epochs=1)
        model, vocabs = compile_from_dataset(ds, config)
        trainer = Trainer(model, TrainerConfig(optimizer=optimizer, epochs=1, lr=0.01))
        history = trainer.fit(train.records, vocabs, build_targets(ds, train.records))
        assert np.isfinite(history.final_loss)


class TestEvaluation:
    def test_mean_primary(self):
        ds = mini_dataset(n=30, seed=8)
        model, vocabs = compile_from_dataset(ds, small_config())
        evals = evaluate(model, ds.records, ds.schema, vocabs, "gold")
        score = mean_primary(evals)
        assert 0.0 <= score <= 1.0
        assert mean_primary({}) == 0.0

    def test_empty_records(self):
        ds = mini_dataset(n=10, seed=9)
        model, vocabs = compile_from_dataset(ds, small_config())
        evals = evaluate(model, [], ds.schema, vocabs, "gold")
        assert all(e.n == 0 for e in evals.values())

    def test_all_tasks_covered(self):
        ds = mini_dataset(n=20, seed=10)
        model, vocabs = compile_from_dataset(ds, small_config())
        evals = evaluate(model, ds.records, ds.schema, vocabs, "gold")
        assert set(evals) == {"POS", "EntityType", "Intent", "IntentArg"}
        assert "f1" in evals["POS"].metrics
        assert "exact_match" in evals["EntityType"].metrics


class TestQualityReport:
    def test_per_tag_rows(self):
        ds = mini_dataset(n=30, seed=11)
        model, vocabs = compile_from_dataset(ds, small_config())
        report = quality_report(model, ds.records, ds.schema, vocabs, "gold")
        tags = {r.tag for r in report.rows}
        assert {"overall", "train", "dev", "test"} <= tags

    def test_metric_lookup_and_columns(self):
        ds = mini_dataset(n=30, seed=12)
        model, vocabs = compile_from_dataset(ds, small_config())
        report = quality_report(
            model, ds.records, ds.schema, vocabs, "gold", tags=["train"]
        )
        value = report.metric("train", "Intent", "accuracy")
        assert 0.0 <= value <= 1.0
        assert np.isnan(report.metric("ghost", "Intent", "accuracy"))
        cols = report.to_columns()
        assert len(cols["tag"]) == len(report.rows)

    def test_empty_tag_rows_zero_n(self):
        ds = mini_dataset(n=10, seed=13)
        model, vocabs = compile_from_dataset(ds, small_config())
        report = quality_report(
            model, ds.records, ds.schema, vocabs, "gold",
            tags=["nonexistent"], include_overall=False,
        )
        assert all(r.n == 0 for r in report.rows)

    def test_for_tag_for_task(self):
        ds = mini_dataset(n=20, seed=14)
        model, vocabs = compile_from_dataset(ds, small_config())
        report = quality_report(model, ds.records, ds.schema, vocabs, "gold", tags=["train"])
        assert len(report.for_tag("train")) == 4  # one per task
        assert {r.tag for r in report.for_task("Intent")} == {"overall", "train"}


class TestNaNGuard:
    def test_nonfinite_loss_raises_helpful_error(self):
        ds = mini_dataset(n=20, seed=30)
        train = ds.split("train")
        model, vocabs = compile_from_dataset(ds, small_config())
        # Poison one weight so the forward pass produces NaN.
        model.encoders["tokens"].embedding.weight.data[2] = np.nan
        trainer = Trainer(model, TrainerConfig(epochs=1, lr=0.05))
        with pytest.raises(TrainingError, match="non-finite"):
            trainer.fit(train.records, vocabs, build_targets(ds, train.records))


class TestEpochTracing:
    def _fit(self, epochs=2):
        ds = mini_dataset(n=40, seed=0)
        train = ds.split("train")
        model, vocabs = compile_from_dataset(ds, small_config(epochs=epochs))
        trainer = Trainer(model, model.config.trainer)
        return trainer.fit(train.records, vocabs, build_targets(ds, train.records))

    def test_epochs_are_traced_when_enabled(self):
        import repro.obs as obs

        with obs_activated():
            self._fit(epochs=2)
            epochs = [
                s for s in obs.get_tracer().ring.spans()
                if s.name == "train.epoch"
            ]
            assert [s.attrs["epoch"] for s in epochs] == [0, 1]
