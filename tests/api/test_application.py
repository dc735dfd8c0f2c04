"""Tests for the repro.api lifecycle layer: Application / Run / Endpoint."""

import json

import pytest

from repro.api import Application, Endpoint, Run, SupervisionPolicy
from repro.core import ModelConfig, PayloadConfig, TrainerConfig, TuningSpec
from repro.deploy import ModelStore
from repro.errors import DeploymentError, SchemaError
from repro.slicing import SliceSet, SliceSpec

from tests.fixtures import factoid_schema, mini_dataset
from tests.helpers import python_calls


def fast_config(size: int = 16, epochs: int = 4) -> ModelConfig:
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=size),
            "query": PayloadConfig(size=size),
            "entities": PayloadConfig(size=size),
        },
        trainer=TrainerConfig(epochs=epochs, batch_size=16, lr=0.05),
    )


def assert_responses_close(a: dict, b: dict) -> None:
    """Hard outputs must match exactly; scores up to float reduction order."""
    assert set(a) == set(b)
    for task in a:
        ra, rb = a[task], b[task]
        assert set(ra) == set(rb)
        for key in ("label", "labels", "index"):
            if key in ra:
                assert ra[key] == rb[key], task
        if "scores" in ra:
            assert ra["scores"] == pytest.approx(rb["scores"], abs=1e-9)


def app_spec() -> dict:
    return {
        "name": "factoid-qa",
        "schema": factoid_schema().to_dict(),
        "slices": ["nutrition", {"name": "hard", "description": "hard readings"}],
        "supervision": {"gold_source": "gold", "method": "label_model"},
        "seed": 3,
    }


@pytest.fixture(scope="module")
def fitted():
    """One trained run shared by the read-only tests in this module."""
    ds = mini_dataset(n=80, seed=0)
    app = Application(factoid_schema(), name="factoid-qa")
    return app, ds, app.fit(ds, fast_config())


class TestApplicationSpec:
    def test_from_spec_dict(self):
        app = Application.from_spec(app_spec())
        assert app.name == "factoid-qa"
        assert app.schema.fingerprint() == factoid_schema().fingerprint()
        assert app.slices.names == ["nutrition", "hard"]
        assert app.slices.get("hard").description == "hard readings"
        assert app.supervision == SupervisionPolicy(
            gold_source="gold", method="label_model", rebalance=True
        )
        assert app.seed == 3

    def test_to_spec_roundtrip(self):
        app = Application.from_spec(app_spec())
        clone = Application.from_spec(app.to_spec())
        assert clone.to_spec() == app.to_spec()
        assert clone.schema.fingerprint() == app.schema.fingerprint()
        assert clone.slices.names == app.slices.names
        assert clone.supervision == app.supervision

    def test_from_spec_file_with_schema_path(self, tmp_path):
        factoid_schema().save(tmp_path / "schema.json")
        spec = {**app_spec(), "schema": "schema.json"}
        (tmp_path / "app.json").write_text(json.dumps(spec))
        app = Application.from_spec(tmp_path / "app.json")
        assert app.schema.fingerprint() == factoid_schema().fingerprint()

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError, match="unknown application spec keys"):
            Application.from_spec({**app_spec(), "modle": {}})
        with pytest.raises(SchemaError, match=r"unknown SupervisionPolicy keys \[.gold.\]"):
            Application.from_spec(
                {**app_spec(), "supervision": {"gold": "gold"}}
            )
        with pytest.raises(SchemaError, match="unknown slice spec keys"):
            Application.from_spec({**app_spec(), "slices": [{"nam": "x"}]})

    def test_schema_required(self):
        with pytest.raises(SchemaError, match="'schema'"):
            Application.from_spec({"name": "x"})


class TestFitAndRun:
    def test_fit_returns_run_driving_full_loop(self, fitted, tmp_path):
        app, ds, run = fitted
        assert isinstance(run, Run)
        evals = run.evaluate(ds, tag="test")
        assert evals["Intent"].metrics["accuracy"] > 0.8
        # The run owns history and the supervision summary.
        assert len(run.history.epochs) == 4
        assert "weak_a" in run.supervision_summary["Intent"]
        # report() is remembered on the run.
        report = run.report(ds, tags=["test"])
        assert run.quality is report
        assert report.metric("test", "Intent", "accuracy") > 0.8
        # fit -> report -> save -> Endpoint.predict, all through the api.
        run.save(tmp_path / "run")
        endpoint = Run.load(tmp_path / "run").endpoint()
        response = endpoint.predict(
            {
                "tokens": ["how", "tall", "is", "paris"],
                "entities": [{"id": "paris", "range": [3, 4]}],
            }
        )
        assert response["Intent"]["label"] in ds.schema.task("Intent").classes

    def test_run_save_load_roundtrip(self, fitted, tmp_path):
        app, ds, run = fitted
        run.report(ds, tags=["test"])
        run.save(tmp_path / "run")
        loaded = Run.load(tmp_path / "run")
        # Application spec, history, fingerprint, and report survive.
        assert loaded.application.to_spec() == app.to_spec()
        assert loaded.train_fingerprint == run.train_fingerprint
        assert [e.train_loss for e in loaded.history.epochs] == pytest.approx(
            [e.train_loss for e in run.history.epochs]
        )
        assert loaded.supervision_summary == run.supervision_summary
        assert loaded.quality is not None
        assert loaded.quality.metric("test", "Intent", "accuracy") == pytest.approx(
            run.quality.metric("test", "Intent", "accuracy")
        )
        # The reloaded model predicts identically.
        payloads = [
            {"tokens": r.payloads["tokens"], "entities": r.payloads["entities"]}
            for r in ds.split("test").records[:8]
        ]
        assert run.endpoint().predict(payloads) == loaded.endpoint().predict(payloads)

    def test_load_rejects_non_run_directory(self, tmp_path):
        with pytest.raises(DeploymentError, match="run.json"):
            Run.load(tmp_path)

    def test_tune_returns_best_trial_robustly(self):
        ds = mini_dataset(n=60, seed=1)
        app = Application(factoid_schema())
        spec = TuningSpec(
            payload_options={"tokens": {"size": [8, 16]}},
            trainer_options={"epochs": [2], "lr": [0.05]},
        )
        run = app.tune(ds, spec, strategy="grid")
        assert run.search is not None
        assert run.search.num_trials == 2
        # The returned model is the best trial's model: configs match.
        assert run.config == run.search.best_config
        best_trial_scores = [t.score for t in run.search.trials]
        assert run.search.best_score == max(best_trial_scores)


class TestEndpoint:
    def test_batch_vs_single_request_parity(self, fitted):
        app, ds, run = fitted
        endpoint = run.endpoint(micro_batch_size=3)
        payloads = [
            {"tokens": r.payloads["tokens"], "entities": r.payloads["entities"]}
            for r in ds.split("test").records[:10]
        ]
        batched = endpoint.predict(payloads)
        assert len(batched) == len(payloads)
        singles = [endpoint.predict(p) for p in payloads]
        for b, s in zip(batched, singles):
            assert_responses_close(b, s)
        # Micro-batching actually happened and counters track it.
        assert endpoint.batches_run >= len(payloads) + 4
        assert endpoint.requests_served == 2 * len(payloads)

    def test_missing_payload_named_in_error(self, fitted):
        app, ds, run = fitted
        endpoint = run.endpoint()
        with pytest.raises(DeploymentError, match=r"missing payloads \['entities'\]"):
            endpoint.predict({"tokens": ["how", "tall", "is", "paris"]})

    def test_unknown_payload_named_in_error(self, fitted):
        app, ds, run = fitted
        endpoint = run.endpoint()
        with pytest.raises(DeploymentError, match=r"unknown payloads \['bogus'\]"):
            endpoint.predict(
                {
                    "tokens": ["hi"],
                    "entities": [],
                    "bogus": 1,
                }
            )

    def test_validation_happens_before_any_model_work(self, fitted):
        app, ds, run = fitted
        endpoint = run.endpoint()
        good = {
            "tokens": ["how", "tall", "is", "paris"],
            "entities": [{"id": "paris", "range": [3, 4]}],
        }
        with pytest.raises(DeploymentError, match="request 1"):
            endpoint.predict([good, {"bogus": 1}])
        assert endpoint.requests_served == 0

    @pytest.mark.parametrize(
        "payload, index, message",
        [
            (
                {"tokens": ["hi"], "entities": [], "bogus": 1, "alpha": 2},
                0,
                "request 0 has unknown payloads ['alpha', 'bogus']; "
                "signature inputs: ['entities', 'tokens']",
            ),
            (
                {"tokens": ["hi"]},
                None,
                "request is missing payloads ['entities']; "
                "signature inputs: ['entities', 'tokens']",
            ),
            (
                {},
                3,
                "request 3 is missing payloads ['entities', 'tokens']; "
                "signature inputs: ['entities', 'tokens']",
            ),
        ],
    )
    def test_validation_messages_are_exact(self, fitted, payload, index, message):
        app, ds, run = fitted
        with pytest.raises(DeploymentError) as caught:
            run.endpoint().admit_payload(payload, index=index)
        assert str(caught.value) == message

    def test_admitting_a_payload_is_per_signature_work(self, fitted):
        """The input names and value rules are built once per signature:
        admitting a valid payload makes the check's own call and one call
        per input's rule, and no Python call per token or member."""
        app, ds, run = fitted
        endpoint = run.endpoint()
        schema = app.schema
        longest = schema.payload("tokens").max_length
        most = schema.payload("entities").max_members
        short = {"tokens": ["hi"], "entities": [{"id": "paris", "range": [0, 1]}]}
        full = {
            "tokens": ["hi"] * longest,
            "entities": [{"id": "paris", "range": [0, 1]}] * most,
        }
        inputs = len(endpoint.signature.inputs)
        assert python_calls(endpoint.admit_payload, short) == 1 + inputs
        assert python_calls(endpoint.admit_payload, full) == 1 + inputs

    def test_version_pinning_against_store(self, fitted, tmp_path):
        app, ds, run = fitted
        store = ModelStore(tmp_path / "store")
        v1 = run.deploy(store)
        follower = Endpoint.from_store(store, app.name)
        pinned = Endpoint.from_store(store, app.name, version=v1.version)
        assert follower.version == v1.version and not follower.pinned
        assert pinned.version == v1.version and pinned.pinned

        # A second (different) model arrives.
        run2 = app.fit(ds, fast_config(size=8, epochs=2))
        v2 = run2.deploy(store)
        assert v2.version != v1.version
        assert follower.refresh() is True
        assert follower.version == v2.version
        assert pinned.refresh() is False
        assert pinned.version == v1.version

    def test_refresh_skips_fetch_when_unchanged(self, fitted, tmp_path):
        """The gateway polls refresh(); an unchanged latest must be cheap —
        a version-hash comparison, never a re-deserialization."""
        app, ds, run = fitted
        store = ModelStore(tmp_path / "store")
        run.deploy(store)
        follower = Endpoint.from_store(store, app.name)
        fetches = []
        original_fetch = store.fetch
        store.fetch = lambda *a, **kw: (fetches.append(a), original_fetch(*a, **kw))[1]
        assert follower.refresh() is False
        assert follower.refresh() is False
        assert fetches == []  # unchanged latest: no artifact work at all

    def test_store_free_endpoint_cannot_refresh(self, fitted):
        app, ds, run = fitted
        with pytest.raises(DeploymentError, match="not backed by a model store"):
            run.endpoint().refresh()


class TestLegacyAliases:
    def test_legacy_names_are_gone(self):
        import repro
        import repro.api

        for name in ("Overton", "Predictor", "TrainedModel"):
            with pytest.raises(AttributeError):
                getattr(repro, name)
        assert repro.api.TrainedModel is not None
