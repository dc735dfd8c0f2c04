"""Tests for artifacts, the model store, and permissive endpoint serving."""

import numpy as np
import pytest

from repro.api import Endpoint
from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.data import encode_inputs
from repro.deploy import ModelArtifact, ModelStore
from repro.errors import DeploymentError, StoreError

from tests.fixtures import compile_from_dataset, mini_dataset


def small_config():
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=8),
            "query": PayloadConfig(size=8),
            "entities": PayloadConfig(size=8),
        },
        trainer=TrainerConfig(epochs=1, batch_size=8),
    )


def make_artifact(seed=0, metrics=None):
    ds = mini_dataset(n=20, seed=seed)
    model, vocabs = compile_from_dataset(ds, small_config(), seed=seed)
    return ModelArtifact.from_model(model, vocabs, metrics=metrics), ds, model, vocabs


class TestArtifact:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        artifact, ds, model, vocabs = make_artifact()
        artifact.save(tmp_path / "artifact")
        loaded = ModelArtifact.load(tmp_path / "artifact")
        rebuilt = loaded.build_model()
        batch = encode_inputs(ds.records[:4], ds.schema, vocabs)
        np.testing.assert_allclose(
            model.predict(batch)["Intent"].probs,
            rebuilt.predict(batch)["Intent"].probs,
        )

    def test_missing_file_rejected(self, tmp_path):
        artifact, *_ = make_artifact()
        artifact.save(tmp_path / "artifact")
        (tmp_path / "artifact" / "weights.npz").unlink()
        with pytest.raises(DeploymentError, match="weights"):
            ModelArtifact.load(tmp_path / "artifact")

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        artifact, *_ = make_artifact()
        artifact.save(tmp_path / "artifact")
        # Corrupt the schema file.
        schema_path = tmp_path / "artifact" / "schema.json"
        text = schema_path.read_text().replace('"max_length": 12', '"max_length": 11')
        schema_path.write_text(text)
        with pytest.raises(DeploymentError, match="fingerprint"):
            ModelArtifact.load(tmp_path / "artifact")

    def test_metadata_recorded(self):
        artifact, *_ = make_artifact(metrics={"Intent_accuracy": 0.9})
        assert artifact.metadata["metrics"]["Intent_accuracy"] == 0.9
        assert artifact.metadata["num_parameters"] > 0

    def test_slices_preserved(self, tmp_path):
        ds = mini_dataset(n=10)
        model, vocabs = compile_from_dataset(
            ds, small_config(), slice_names=["rare"]
        )
        artifact = ModelArtifact.from_model(model, vocabs)
        artifact.save(tmp_path / "a")
        rebuilt = ModelArtifact.load(tmp_path / "a").build_model()
        assert rebuilt.slice_names == ["rare"]


class TestModelStore:
    def test_push_fetch_roundtrip(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        artifact, *_ = make_artifact()
        version = store.push("qa", artifact)
        fetched = store.fetch("qa")
        assert fetched.schema == artifact.schema
        assert store.latest_version("qa") == version.version

    def test_push_idempotent(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        artifact, *_ = make_artifact()
        v1 = store.push("qa", artifact)
        v2 = store.push("qa", artifact)
        assert v1.version == v2.version
        assert len(store.versions("qa")) == 1

    def test_multiple_versions_and_latest(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        a1, *_ = make_artifact(seed=1)
        a2, *_ = make_artifact(seed=2)
        v1 = store.push("qa", a1)
        v2 = store.push("qa", a2)
        assert store.latest_version("qa") == v2.version
        assert len(store.versions("qa")) == 2
        # Fetch an explicit older version.
        old = store.fetch("qa", v1.version)
        assert old.metadata == a1.metadata

    def test_set_latest_rollback(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        v1 = store.push("qa", make_artifact(seed=1)[0])
        store.push("qa", make_artifact(seed=2)[0])
        store.set_latest("qa", v1.version)
        assert store.latest_version("qa") == v1.version

    def test_set_latest_unknown_version(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        store.push("qa", make_artifact()[0])
        with pytest.raises(StoreError):
            store.set_latest("qa", "deadbeef")

    def test_fetch_missing(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.fetch("ghost")

    def test_models_listing(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        store.push("b_model", make_artifact(seed=1)[0])
        store.push("a_model", make_artifact(seed=2)[0])
        assert store.models() == ["a_model", "b_model"]

    def test_delete_guards_latest(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        v1 = store.push("qa", make_artifact(seed=1)[0])
        v2 = store.push("qa", make_artifact(seed=2)[0])
        with pytest.raises(StoreError):
            store.delete("qa", v2.version)
        store.delete("qa", v1.version)
        assert len(store.versions("qa")) == 1

    def test_integrity_check_on_fetch(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        version = store.push("qa", make_artifact()[0])
        # Tamper with stored weights.
        weights_path = tmp_path / "store" / "qa" / version.version / "weights.npz"
        artifact = ModelArtifact.load(weights_path.parent)
        key = sorted(artifact.state)[0]
        artifact.state[key] = artifact.state[key] + 1.0
        np.savez(weights_path, **artifact.state)
        with pytest.raises(StoreError, match="integrity"):
            store.fetch("qa", version.version)


class TestAtomicIndex:
    def test_no_staging_files_left_behind(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        version = store.push("qa", make_artifact()[0])
        store.set_latest("qa", version.version)
        leftovers = {p.name for p in (tmp_path / "store" / "qa").iterdir()}
        assert leftovers == {"index.json", version.version}

    def test_failed_replace_preserves_old_index(self, tmp_path, monkeypatch):
        import os

        store = ModelStore(tmp_path / "store")
        v1 = store.push("qa", make_artifact(seed=1)[0])
        store.push("qa", make_artifact(seed=2)[0])

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.set_latest("qa", v1.version)
        monkeypatch.undo()
        # The index is still the intact pre-crash document, not a torn file.
        assert store.latest_version("qa") != v1.version
        assert len(store.versions("qa")) == 2
        assert not list((tmp_path / "store" / "qa").glob("*.tmp"))

    def test_concurrent_reader_never_sees_torn_index(self, tmp_path):
        """The canary-gateway race: latest_version polled during writes."""
        import threading

        store = ModelStore(tmp_path / "store")
        v1 = store.push("qa", make_artifact(seed=1)[0])
        v2 = store.push("qa", make_artifact(seed=2)[0])
        valid = {v1.version, v2.version}
        errors = []
        stop = threading.Event()

        def writer():
            for i in range(150):
                store.set_latest("qa", v1.version if i % 2 else v2.version)
            stop.set()

        def reader():
            while not stop.is_set():
                try:
                    assert store.latest_version("qa") in valid
                except Exception as exc:  # torn read -> JSONDecodeError etc.
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []

    def test_concurrent_writers_lose_no_versions(self, tmp_path):
        """push racing set_latest (trainer vs gateway promotion) must not
        drop version records from the index."""
        import threading

        store = ModelStore(tmp_path / "store")
        v1 = store.push("qa", make_artifact(seed=1)[0])
        artifacts = [make_artifact(seed=s)[0] for s in range(2, 6)]

        def pusher():
            for artifact in artifacts:
                store.push("qa", artifact, set_latest=False)

        def promoter():
            for _ in range(40):
                store.set_latest("qa", v1.version)

        threads = [threading.Thread(target=pusher), threading.Thread(target=promoter)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(store.versions("qa")) == 1 + len(artifacts)
        assert store.latest_version("qa") == v1.version

    def test_push_without_set_latest_stages_version(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        v1 = store.push("qa", make_artifact(seed=1)[0])
        staged = store.push("qa", make_artifact(seed=2)[0], set_latest=False)
        assert store.latest_version("qa") == v1.version
        assert {v.version for v in store.versions("qa")} == {
            v1.version,
            staged.version,
        }
        # The staged version is fetchable and promotable.
        store.fetch("qa", staged.version)
        store.set_latest("qa", staged.version)
        assert store.latest_version("qa") == staged.version

    def test_first_push_sets_latest_even_when_staging(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        v1 = store.push("qa", make_artifact()[0], set_latest=False)
        assert store.latest_version("qa") == v1.version


def permissive(artifact) -> Endpoint:
    """Missing signature inputs allowed; each ``predict()`` is one batch."""
    return Endpoint(artifact, strict=False, micro_batch_size=None)


class TestPredictor:
    def test_serves_typed_responses(self):
        artifact, ds, *_ = make_artifact()
        endpoint = permissive(artifact)
        response = endpoint.predict_one(
            {
                "tokens": ["how", "tall", "is", "paris"],
                "entities": [{"id": "paris", "range": [3, 4]}],
            }
        )
        assert set(response) == {"POS", "EntityType", "Intent", "IntentArg"}
        assert response["Intent"]["label"] in ds.schema.task("Intent").classes
        assert len(response["POS"]["labels"]) == 4
        assert response["IntentArg"]["index"] == 0
        assert abs(sum(response["Intent"]["scores"].values()) - 1.0) < 1e-6

    def test_unknown_payload_rejected(self):
        artifact, *_ = make_artifact()
        endpoint = permissive(artifact)
        with pytest.raises(DeploymentError, match="unknown payloads"):
            endpoint.predict_one({"bogus": [1]})

    def test_empty_batch(self):
        artifact, *_ = make_artifact()
        assert permissive(artifact).predict([]) == []

    def test_from_directory(self, tmp_path):
        artifact, *_ = make_artifact()
        artifact.save(tmp_path / "artifact")
        endpoint = Endpoint.from_directory(
            tmp_path / "artifact", strict=False, micro_batch_size=None
        )
        response = endpoint.predict_one({"tokens": ["how", "old", "is", "obama"]})
        assert "Intent" in response

    def test_bitvector_response_shape(self):
        artifact, *_ = make_artifact()
        response = permissive(artifact).predict_one({"tokens": ["paris"]})
        assert isinstance(response["EntityType"]["labels"], list)
        assert len(response["EntityType"]["labels"]) == 1  # one token
