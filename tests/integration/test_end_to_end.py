"""Integration tests: full system loops across subsystems."""

import numpy as np
import pytest

from repro import (
    Application,
    Dataset,
    Endpoint,
    ModelConfig,
    ModelStore,
    PayloadConfig,
    SliceSet,
    SliceSpec,
    TrainerConfig,
)
from repro.api import check_pair
from repro.deploy import VersionLog, push_pair
from repro.monitoring import compare_reports
from repro.supervision import LFApplier, labeling_function
from repro.workloads import (
    FactoidGenerator,
    HARD_DISAMBIGUATION_SLICE,
    WorkloadConfig,
    apply_standard_weak_supervision,
    compatibility_intent_arg_source,
)


def fast_config(size=16, epochs=5) -> ModelConfig:
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=size),
            "query": PayloadConfig(size=size),
            "entities": PayloadConfig(size=size),
        },
        trainer=TrainerConfig(epochs=epochs, batch_size=32, lr=0.05),
    )


@pytest.fixture(scope="module")
def workload():
    dataset = FactoidGenerator(WorkloadConfig(n=400, seed=21)).generate()
    apply_standard_weak_supervision(dataset.records, seed=21)
    return dataset


class TestTrainDeployServe:
    def test_full_loop_through_store(self, workload, tmp_path):
        app = Application(workload.schema)
        trained = app.fit(workload, fast_config()).trained
        store = ModelStore(tmp_path / "store")
        app.deploy(trained, store, "qa")

        endpoint = Endpoint(store.fetch("qa"), strict=False, micro_batch_size=None)
        test_records = workload.split("test").records[:20]
        correct = 0
        for record in test_records:
            response = endpoint.predict_one(
                {
                    "tokens": record.payloads["tokens"],
                    "entities": record.payloads["entities"],
                }
            )
            correct += int(
                response["Intent"]["label"] == record.label_from("Intent", "gold")
            )
        assert correct / len(test_records) > 0.7

    def test_served_predictions_match_trained_model(self, workload, tmp_path):
        """Serialize -> store -> fetch -> serve must be prediction-identical."""
        from repro.data import encode_inputs

        app = Application(workload.schema)
        trained = app.fit(workload, fast_config()).trained
        store = ModelStore(tmp_path / "store")
        app.deploy(trained, store, "qa")
        endpoint = Endpoint(store.fetch("qa"), strict=False, micro_batch_size=None)

        records = workload.split("test").records[:10]
        batch = encode_inputs(records, workload.schema, trained.vocabs)
        direct = trained.model.predict(batch)["Intent"].predictions
        served = [
            endpoint.predict_one(
                {"tokens": r.payloads["tokens"], "entities": r.payloads["entities"]}
            )["Intent"]["label"]
            for r in records
        ]
        classes = workload.schema.task("Intent").classes
        np.testing.assert_array_equal(direct, [classes.index(s) for s in served])


class TestEngineerLoop:
    def test_slice_fix_improves_and_passes_gate(self, tmp_path):
        dataset = FactoidGenerator(
            WorkloadConfig(n=500, seed=22, hard_fraction=0.25)
        ).generate()
        apply_standard_weak_supervision(dataset.records, seed=22)
        for record in dataset.records:
            record.tasks.get("IntentArg", {}).pop("lf_compatible", None)

        slices = SliceSet([SliceSpec(name=HARD_DISAMBIGUATION_SLICE)])
        app = Application(dataset.schema, slices=slices)
        tag = f"slice:{HARD_DISAMBIGUATION_SLICE}"

        before_model = app.fit(dataset, fast_config(epochs=6)).trained
        before = app.report(before_model, dataset, tags=["test", tag])

        compatibility_intent_arg_source(dataset.records)
        after_model = app.fit(dataset, fast_config(epochs=6)).trained
        after = app.report(after_model, dataset, tags=["test", tag])

        improvement = after.metric(tag, "IntentArg", "accuracy") - before.metric(
            tag, "IntentArg", "accuracy"
        )
        assert improvement > 0.4

        gate = compare_reports(before, after, threshold=0.05, metrics=("accuracy",))
        assert not gate.blocking

    def test_labeling_functions_feed_label_model(self, workload):
        @labeling_function(task="Intent", name="lf_integration", kind="heuristic")
        def lf(record):
            tokens = record.payloads.get("tokens") or []
            return "capital" if "capital" in tokens else None

        LFApplier([lf]).apply(workload.records)
        app = Application(workload.schema)
        targets, combined = app.combine(workload.records)
        assert "lf_integration" in combined["Intent"].source_accuracies
        # A precise keyword heuristic should be rated highly.
        assert combined["Intent"].source_accuracies["lf_integration"] > 0.8


class TestSchemaSharing:
    def test_same_schema_two_locales(self):
        """§2.1: 'the same schema is shared in multiple locales and
        applications, only the supervision differs.'  Two datasets with
        disjoint vocabularies compile and train against one schema."""
        schema = FactoidGenerator(WorkloadConfig(n=1)).schema

        def localized(seed: int, suffix: str) -> Dataset:
            ds = FactoidGenerator(WorkloadConfig(n=200, seed=seed)).generate()
            apply_standard_weak_supervision(ds.records, seed=seed)
            for record in ds.records:
                record.payloads["tokens"] = [
                    f"{t}_{suffix}" for t in record.payloads["tokens"]
                ]
                if "query" in record.payloads:
                    record.payloads["query"] = " ".join(record.payloads["tokens"])
            return Dataset(schema, ds.records, validate=False)

        for seed, locale in ((31, "en"), (32, "fr")):
            dataset = localized(seed, locale)
            app = Application(schema)
            trained = app.fit(dataset, fast_config(epochs=4)).trained
            evals = app.evaluate(trained, dataset, tag="test")
            assert evals["Intent"].metrics["accuracy"] > 0.5, locale


class TestSyncAndVersioning:
    def test_pair_lifecycle(self, workload, tmp_path):
        app = Application(workload.schema)
        large = app.fit(workload, fast_config(size=32, epochs=4)).trained
        small = app.fit(workload, fast_config(size=8, epochs=4)).trained
        store = ModelStore(tmp_path / "store")
        pushed = push_pair(
            store,
            "qa",
            app.build_artifact(large),
            app.build_artifact(small),
        )
        check = check_pair(store, "qa")
        assert check.in_sync

        log = VersionLog(store, "qa/small")
        v1 = log.record(pushed.small.version)
        log.release(v1.semver)
        assert store.latest_version("qa/small") == pushed.small.version
