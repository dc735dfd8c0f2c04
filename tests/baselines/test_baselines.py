"""Tests for the heuristic pipeline and single-task baselines."""

import pytest

from repro.baselines import (
    HeuristicPipeline,
    evaluate_pipeline,
    single_task_schema,
    train_single_task_system,
)
from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.data.tags import slice_tag
from repro.workloads import (
    HARD_DISAMBIGUATION_SLICE,
    apply_standard_weak_supervision,
)

from tests.fixtures import factoid_schema as small_schema, generate_dataset


class TestHeuristicPipeline:
    def test_reasonable_aggregate_quality(self):
        ds = generate_dataset(n=300, seed=0)
        metrics = evaluate_pipeline(HeuristicPipeline(), ds.records)
        # Heuristics are decent in aggregate...
        assert metrics["Intent"] > 0.7
        assert metrics["POS"] > 0.7
        assert metrics["IntentArg"] > 0.6

    def test_fails_on_hard_slice(self):
        ds = generate_dataset(n=600, seed=1)
        hard = ds.with_tag(slice_tag(HARD_DISAMBIGUATION_SLICE))
        overall = evaluate_pipeline(HeuristicPipeline(), ds.records)
        on_hard = evaluate_pipeline(HeuristicPipeline(), hard.records)
        # ...but collapse on the rare disambiguation slice (the paper's
        # motivating failure mode).
        assert on_hard["IntentArg"] < overall["IntentArg"] - 0.2

    def test_degradation_reduces_quality(self):
        ds = generate_dataset(n=300, seed=2)
        clean = evaluate_pipeline(HeuristicPipeline(degradation=0.0), ds.records)
        degraded = evaluate_pipeline(
            HeuristicPipeline(degradation=0.3, seed=1), ds.records
        )
        assert degraded["Intent"] < clean["Intent"]

    def test_error_compounding(self):
        """Pipeline IntentArg errors include cases where typing was right
        but the intent stage failed — the compounding the paper describes."""
        ds = generate_dataset(n=400, seed=3)
        pipeline = HeuristicPipeline(degradation=0.2, seed=5)
        compounded = 0
        for r in ds.records:
            pred = pipeline.predict(r)
            if (
                pred.intent != r.label_from("Intent", "gold")
                and pred.intent_arg != r.label_from("IntentArg", "gold")
            ):
                compounded += 1
        assert compounded > 0

    def test_empty_record(self):
        from repro.data import Record

        pred = HeuristicPipeline().predict(Record(payloads={"tokens": []}))
        assert pred.intent_arg is None


class TestSingleTaskSchema:
    def test_keeps_needed_payloads_only(self):
        schema = small_schema()
        reduced = single_task_schema(schema, "Intent")
        assert reduced.task_names == ["Intent"]
        assert set(reduced.payload_names) == {"tokens", "query"}

    def test_set_task_keeps_range(self):
        schema = small_schema()
        reduced = single_task_schema(schema, "IntentArg")
        assert set(reduced.payload_names) == {"tokens", "entities"}


class TestSingleTaskSystem:
    def test_trains_and_evaluates(self):
        ds = generate_dataset(n=150, seed=4)
        apply_standard_weak_supervision(ds.records, seed=0)
        config = ModelConfig(
            payloads={
                "tokens": PayloadConfig(encoder="bow", size=8),
                "query": PayloadConfig(size=8),
                "entities": PayloadConfig(size=8),
            },
            trainer=TrainerConfig(epochs=2, batch_size=32, lr=0.05),
        )
        system = train_single_task_system(ds, config)
        assert set(system.models) == {"POS", "EntityType", "Intent", "IntentArg"}
        evals = system.evaluate(ds.split("test").records)
        assert 0.0 <= evals["Intent"].metrics["accuracy"] <= 1.0

    def test_requires_train_tag(self):
        from repro.errors import TrainingError

        ds = generate_dataset(n=20, seed=5)
        for r in ds.records:
            r.tags = ["test"]
        with pytest.raises(TrainingError):
            train_single_task_system(ds)
