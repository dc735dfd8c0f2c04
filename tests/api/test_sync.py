"""Tests for the large/small pair check (:mod:`repro.api.sync`)."""

import pytest

from repro.api import SyncCheck, check_pair, predictions_match
from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.deploy import ModelArtifact, ModelStore, data_fingerprint, push_pair
from repro.errors import DeploymentError

from tests.fixtures import compile_from_dataset, mini_dataset


def _artifact(size: int, data: str, seed: int = 0) -> ModelArtifact:
    ds = mini_dataset(n=20, seed=seed)
    config = ModelConfig(
        payloads={
            name: PayloadConfig(size=size) for name in ("tokens", "query", "entities")
        },
        trainer=TrainerConfig(epochs=1),
    )
    model, vocabs = compile_from_dataset(ds, config, seed=seed)
    return ModelArtifact.from_model(
        model, vocabs, extra_metadata={"data_fingerprint": data}
    )


def _probes(n: int = 4) -> list[dict]:
    return [
        {"tokens": r.payloads["tokens"], "entities": r.payloads["entities"]}
        for r in mini_dataset(n=20, seed=0).records[:n]
    ]


class TestPredictionsMatch:
    def test_counts_agreeing_labels(self):
        a = [{"Intent": {"label": "age"}}, {"Intent": {"label": "height"}}]
        b = [{"Intent": {"label": "age"}}, {"Intent": {"label": "capital"}}]
        assert predictions_match(a, b, ["Intent"]) == 0.5

    def test_reads_select_indices(self):
        a = [{"Arg": {"index": 1, "scores": [0.1, 0.9]}}]
        b = [{"Arg": {"index": 1, "scores": [0.4, 0.6]}}]
        assert predictions_match(a, b, ["Arg"]) == 1.0

    def test_reads_label_lists(self):
        a = [{"POS": {"labels": ["NOUN", "VERB"]}}]
        b = [{"POS": {"labels": ["NOUN", "ADJ"]}}]
        assert predictions_match(a, b, ["POS"]) == 0.0

    def test_averages_over_every_task_and_request(self):
        a = [{"T": {"label": "x"}, "U": {"index": 0}}] * 2
        b = [{"T": {"label": "x"}, "U": {"index": 1}}] * 2
        assert predictions_match(a, b, ["T", "U"]) == 0.5

    def test_empty_lists_agree(self):
        assert predictions_match([], [], ["Intent"]) == 1.0

    def test_lists_of_different_length_are_rejected(self):
        with pytest.raises(DeploymentError, match="differ in length"):
            predictions_match([{}], [], ["Intent"])


class TestCheckPair:
    def test_a_pair_of_one_model_agrees_fully(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        twin = _artifact(8, "d0")
        push_pair(store, "qa", twin, twin)
        check = check_pair(store, "qa", probe_payloads=_probes(), min_agreement=1.0)
        assert check == SyncCheck(in_sync=True, agreement=1.0, problems=[])

    def test_differing_data_is_reported(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        store.push("qa/large", _artifact(16, "d0"))
        store.push("qa/small", _artifact(8, "d1"))
        check = check_pair(store, "qa")
        assert not check.in_sync
        assert check.problems == ["data fingerprints differ"]

    def test_differing_schemas_are_reported(self, tmp_path):
        from repro.workloads import FactoidGenerator, WorkloadConfig

        store = ModelStore(tmp_path / "store")
        other = FactoidGenerator(WorkloadConfig(n=20, seed=0)).generate()
        model, vocabs = compile_from_dataset(
            other,
            ModelConfig(
                payloads={
                    name: PayloadConfig(size=4) for name in ("tokens", "query", "entities")
                }
            ),
        )
        store.push("qa/large", _artifact(16, "d0"))
        store.push(
            "qa/small",
            ModelArtifact.from_model(model, vocabs, extra_metadata={"data_fingerprint": "d0"}),
        )
        assert check_pair(store, "qa").problems == ["schema fingerprints differ"]

    def test_a_large_half_smaller_than_the_small_is_reported(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        push_pair(store, "qa", _artifact(8, "d0"), _artifact(32, "d0"))
        check = check_pair(store, "qa")
        assert check.problems == ["'large' model has fewer parameters than 'small'"]

    def test_agreement_below_the_floor_is_reported(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        twin = _artifact(8, "d0")
        push_pair(store, "qa", twin, twin)
        check = check_pair(store, "qa", probe_payloads=_probes(), min_agreement=1.5)
        assert not check.in_sync
        assert check.problems == ["prediction agreement 1.00 below 1.50"]

    def test_without_probes_agreement_is_not_measured(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        push_pair(store, "qa", _artifact(16, "d0"), _artifact(8, "d0"))
        assert check_pair(store, "qa").agreement is None

    def test_a_missing_pair_names_the_problem(self, tmp_path):
        check = check_pair(ModelStore(tmp_path / "store"), "qa")
        assert check.in_sync is False and check.agreement is None
        assert len(check.problems) == 1 and "qa/large" in check.problems[0]


def test_data_fingerprint_is_recorded_as_pushed(tmp_path):
    store = ModelStore(tmp_path / "store")
    fp = data_fingerprint(mini_dataset(n=20, seed=0).records)
    push_pair(store, "qa", _artifact(16, fp), _artifact(8, fp))
    assert check_pair(store, "qa").in_sync
