"""Tests for grid/random/successive-halving search."""

import pytest

from repro.core import ModelConfig, PayloadConfig, TuningSpec
from repro.errors import TuningError
from repro.tuning import grid_search, random_search, successive_halving

from tests.helpers import scoring_executor


def spec_2x2() -> TuningSpec:
    return TuningSpec(
        payload_options={"tokens": {"encoder": ["bow", "lstm"], "size": [8, 16]}}
    )


def score_fn(config: ModelConfig) -> float:
    """Deterministic: prefers lstm and larger size."""
    p = config.for_payload("tokens")
    return (1.0 if p.encoder == "lstm" else 0.0) + p.size / 100.0


class TestGridSearch:
    def test_finds_best(self):
        result = grid_search(spec_2x2(), scoring_executor(score_fn))
        assert result.num_trials == 4
        assert result.best_config.for_payload("tokens").encoder == "lstm"
        assert result.best_config.for_payload("tokens").size == 16

    def test_trial_log_complete(self):
        result = grid_search(spec_2x2(), scoring_executor(score_fn))
        scores = sorted(t.score for t in result.trials)
        assert scores == sorted([0.08, 0.16, 1.08, 1.16])

    def test_empty_spec_single_trial(self):
        result = grid_search(TuningSpec(), scoring_executor(lambda c: 1.0))
        assert result.num_trials == 1


class TestRandomSearch:
    def test_subsamples(self):
        result = random_search(
            spec_2x2(), scoring_executor(score_fn), num_trials=2, seed=0
        )
        assert result.num_trials == 2

    def test_more_trials_than_grid_evaluates_all(self):
        result = random_search(spec_2x2(), scoring_executor(score_fn), num_trials=100)
        assert result.num_trials == 4

    def test_invalid_trials(self):
        with pytest.raises(TuningError):
            random_search(spec_2x2(), scoring_executor(score_fn), num_trials=0)

    def test_seeded_deterministic(self):
        r1 = random_search(spec_2x2(), scoring_executor(score_fn), num_trials=2, seed=7)
        r2 = random_search(spec_2x2(), scoring_executor(score_fn), num_trials=2, seed=7)
        assert [t.score for t in r1.trials] == [t.score for t in r2.trials]


class TestSuccessiveHalving:
    def test_promotes_best(self):
        calls = []

        def trial(config):
            calls.append((config.for_payload("tokens").encoder, config.trainer.epochs))
            return score_fn(config)

        result = successive_halving(
            spec_2x2(), scoring_executor(trial), min_epochs=1, max_epochs=4, reduction=2
        )
        assert result.best_config.for_payload("tokens").encoder == "lstm"
        # Rung structure: 4 trials at budget 1, then 2 at 2, then 1 at 4.
        budgets = [e for _, e in calls]
        assert budgets.count(1) == 4
        assert budgets.count(2) == 2
        assert budgets.count(4) == 1

    def test_epochs_injected_into_config(self):
        seen_epochs = []

        def trial(config):
            seen_epochs.append(config.trainer.epochs)
            return 0.0

        successive_halving(
            spec_2x2(), scoring_executor(trial), min_epochs=3, max_epochs=3
        )
        assert all(e == 3 for e in seen_epochs)

    def test_invalid_reduction(self):
        with pytest.raises(TuningError):
            successive_halving(
                spec_2x2(), scoring_executor(lambda c: 0.0), reduction=1
            )

    def test_rungs_recorded(self):
        result = successive_halving(
            spec_2x2(), scoring_executor(score_fn), min_epochs=1, max_epochs=4
        )
        rungs = {t.rung for t in result.trials}
        assert rungs == {0, 1, 2}

    def test_spec_epochs_axis_does_not_duplicate_candidates(self):
        """Halving owns the epochs axis; declared epoch values must not
        multiply the candidate pool with configs that only differ there."""
        spec = TuningSpec(
            payload_options={"tokens": {"encoder": ["bow", "lstm"]}},
            trainer_options={"epochs": [2, 4, 8]},
        )
        result = successive_halving(
            spec, scoring_executor(score_fn), min_epochs=1, max_epochs=4
        )
        rung0 = [t for t in result.trials if t.rung == 0]
        assert len(rung0) == 2  # one per encoder, not 6
        assert len({t.config.to_json() for t in rung0}) == 2
