"""``retrain_candidate``: both branches go through restore-or-refit.

A heal that re-elects a config on a retrain set the trial cache has
already seen must return without training or combining supervision, and
say so in the stats the supervisor journals under ``retrain_finished``.
"""

import pytest

from repro.api import Application
from repro.autopilot import RetrainPlan, retrain_candidate
from repro.core import ModelConfig, PayloadConfig, TrainerConfig, TuningSpec
from repro.training import Trainer

from tests.exec.test_data_plane import assert_same_trained
from tests.fixtures import mini_dataset
from tests.helpers import python_calls

INCUMBENT = ModelConfig(
    payloads={"tokens": PayloadConfig(encoder="bow", size=8)},
    trainer=TrainerConfig(epochs=2),
)
SPEC = TuningSpec(
    payload_options={"tokens": {"encoder": ["bow", "cnn"]}},
    trainer_options={"epochs": [2]},
)


@pytest.fixture(scope="module")
def dataset():
    return mini_dataset(n=40, seed=0)


@pytest.mark.parametrize("spec", [None, SPEC], ids=["incumbent", "search"])
def test_second_heal_on_an_unchanged_set_restores(dataset, tmp_path, spec):
    app = Application(dataset.schema, name="heal-test")
    plan = RetrainPlan(spec=spec, cache_dir=str(tmp_path))
    heals = []

    def heal():
        heals.append(retrain_candidate(app, dataset, plan, INCUMBENT))

    assert python_calls(heal, of=Application.combine) == 1
    ((first, stats),) = heals
    assert stats["candidate"] == "retrained" and stats["restored"] == 0
    assert stats["executed"] > 0

    # Restored heals train nothing and combine nothing.
    assert python_calls(heal, of=Trainer.fit) == 0
    assert python_calls(heal, of=Application.combine) == 0
    for second, stats in heals[1:]:
        assert stats["candidate"] == "restored" and stats["restored"] == 1
        assert stats["executed"] == 0 and stats["cache_hits"] > 0
        assert second.application is app
        assert_same_trained(second.trained, first.trained)
    if spec is None:
        assert stats["candidates"] == 1 and stats["best_score"] is not None
        assert second.config == INCUMBENT
    else:
        assert second.search is not None


def test_without_a_cache_every_heal_retrains(dataset):
    app = Application(dataset.schema, name="heal-test")
    for _ in range(2):
        _, stats = retrain_candidate(app, dataset, RetrainPlan(), INCUMBENT)
        assert stats["candidate"] == "retrained"
