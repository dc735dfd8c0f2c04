"""Tests for learned augmentation policy search."""

import pytest

from repro.data import Dataset
from repro.errors import SupervisionError
from repro.supervision import (
    apply_selected_policies,
    search_augmentation_policies,
    synonym_swap,
    token_dropout,
)

from tests.fixtures import mini_dataset


def scoring_stub(scores):
    """A train_and_score stub replaying canned scores per call."""
    calls = iter(scores)

    def fn(dataset):
        return next(calls)

    return fn


class TestPolicySearch:
    def test_selects_only_helpful_policies(self):
        ds = mini_dataset(n=30, seed=0)
        policies = [token_dropout(rate=0.2), synonym_swap({"tall": ["high"]})]
        # baseline 0.7; dropout helps (0.8), synonym hurts (0.6).
        result = search_augmentation_policies(
            ds, policies, scoring_stub([0.7, 0.8, 0.6])
        )
        assert result.baseline_score == 0.7
        assert [p.name for p, _ in result.selected] == ["token_dropout"]
        assert result.best_gain == pytest.approx(0.1)

    def test_copies_options_expand_trials(self):
        ds = mini_dataset(n=30, seed=1)
        result = search_augmentation_policies(
            ds,
            [token_dropout(rate=0.2)],
            scoring_stub([0.5, 0.6, 0.7]),
            copies_options=(1, 2),
        )
        assert len(result.trials) == 2
        # Best setting (copies=2) is selected.
        assert result.selected[0][1] == 2

    def test_min_gain_threshold(self):
        ds = mini_dataset(n=30, seed=2)
        result = search_augmentation_policies(
            ds,
            [token_dropout(rate=0.2)],
            scoring_stub([0.70, 0.705]),
            min_gain=0.01,
        )
        assert result.selected == []

    def test_requires_policies(self):
        ds = mini_dataset(n=10, seed=3)
        with pytest.raises(SupervisionError):
            search_augmentation_policies(ds, [], lambda d: 0.0)

    def test_trials_record_added_counts(self):
        ds = mini_dataset(n=30, seed=4)
        result = search_augmentation_policies(
            ds, [token_dropout(rate=0.3)], scoring_stub([0.5, 0.9])
        )
        assert result.trials[0].records_added > 0

    def test_apply_selected_policies_grows_dataset(self):
        ds = mini_dataset(n=30, seed=5)
        result = search_augmentation_policies(
            ds, [token_dropout(rate=0.3)], scoring_stub([0.5, 0.9])
        )
        augmented = apply_selected_policies(ds, result)
        assert isinstance(augmented, Dataset)
        assert len(augmented) > len(ds)

    def test_apply_with_nothing_selected_is_identity(self):
        ds = mini_dataset(n=20, seed=6)
        result = search_augmentation_policies(
            ds, [token_dropout(rate=0.3)], scoring_stub([0.9, 0.1])
        )
        augmented = apply_selected_policies(ds, result)
        assert len(augmented) == len(ds)

    def test_end_to_end_with_real_training(self):
        """Smoke: the search composes with the real training path."""
        from repro.api import Application
        from repro.core import ModelConfig, PayloadConfig, TrainerConfig
        from repro.training import mean_primary

        ds = mini_dataset(n=60, seed=7)
        app = Application(ds.schema)
        config = ModelConfig(
            payloads={
                "tokens": PayloadConfig(encoder="bow", size=8),
                "query": PayloadConfig(size=8),
                "entities": PayloadConfig(size=8),
            },
            trainer=TrainerConfig(epochs=2, batch_size=16, lr=0.05),
        )

        def train_and_score(dataset):
            trained = app.fit(dataset, config).trained
            return mean_primary(app.evaluate(trained, dataset, tag="dev"))

        result = search_augmentation_policies(
            ds, [token_dropout(rate=0.2)], train_and_score
        )
        assert len(result.trials) == 1
        assert 0.0 <= result.trials[0].dev_score <= 1.0
