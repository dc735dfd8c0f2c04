"""End-to-end executor tests against the real tuning path.

The contract under test: every search — any worker count, cached or not
— produces the same trials, the same scores, and the same best model,
because training is deterministic given (config, data).
"""

import hashlib

import numpy as np
import pytest

from repro.api import Application
from repro.core import TuningSpec
from repro.slicing import SliceSet, SliceSpec
from repro.tuning import successive_halving

from tests.fixtures import mini_dataset


@pytest.fixture(scope="module")
def dataset():
    return mini_dataset(n=40, seed=0)


def small_spec() -> TuningSpec:
    return TuningSpec(
        payload_options={"tokens": {"encoder": ["bow", "cnn"]}},
        trainer_options={"epochs": [2]},
    )


def app_for(dataset) -> Application:
    return Application(dataset.schema, name="tune-test")


def search_signature(result):
    return (
        [round(t.score, 12) for t in result.trials],
        [t.config.to_json() for t in result.trials],
        result.best_config.to_json(),
        round(result.best_score, 12),
    )


# ``search_digest`` of ``sliced_app(...).tune(mini_dataset(n=40, seed=0),
# parity_spec(), strategy=..., num_trials=3)``: reference values, so a
# change that moves one changed what a search computes.  They hash float64
# bit patterns of training and hold for the numpy/BLAS build they were
# pinned under (numpy 2.4.6, scipy-openblas 0.3.31).
PINNED_DIGESTS = {
    "grid": "382039dd99b307ce3aa2543a91aa6a56ccaa527dddd0d5604c05ed146e7b5cb4",
    "random": "614a77ec07cf164fbb688600f1d66d1bd54d7523b2e90f889f4bd6fbb0f15e7b",
    "halving": "7c039d2ddc38cda31c82e0850751a11ce155e83c3bf73edeb1318f44d0647737",
}
PINNED_NAMESPACE = "a4c0dc6bf4db9d21f35ff8080eb8ed55"


def parity_spec() -> TuningSpec:
    return TuningSpec(
        payload_options={"tokens": {"encoder": ["bow", "cnn"], "size": [8, 12]}},
        trainer_options={"epochs": [2]},
    )


def sliced_app(dataset) -> Application:
    """An application with a lambda slice predicate: not picklable."""
    short = SliceSpec(
        "short", predicate=lambda r: len(r.payloads.get("tokens", [])) <= 3
    )
    return Application(dataset.schema, name="tune-test", slices=SliceSet([short]))


def search_digest(run) -> str:
    """Trial configs, hex scores and rungs, the winner, its parameters."""
    digest = hashlib.sha256()
    for t in run.search.trials:
        digest.update(f"{t.config.to_json()}|{t.score.hex()}|{t.rung}\n".encode())
    best = run.search
    digest.update(f"{best.best_config.to_json()}|{best.best_score.hex()}\n".encode())
    for name, array in run.trained.model.state_dict().items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestSerialParity:
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("strategy", ["grid", "random", "halving"])
    def test_inline_search_matches_the_pinned_digest(self, tmp_path, strategy, cached):
        fresh = mini_dataset(n=40, seed=0)  # materializing tags its records
        run = sliced_app(fresh).tune(
            fresh,
            parity_spec(),
            strategy=strategy,
            num_trials=3,
            cache_dir=tmp_path if cached else None,
        )
        assert search_digest(run) == PINNED_DIGESTS[strategy]

    def test_namespace_does_not_depend_on_the_worker_count(self):
        fresh = mini_dataset(n=40, seed=0)
        app = sliced_app(fresh)
        for workers in (1, 2):
            with app.tuning_executor(fresh, workers=workers) as executor:
                assert executor.namespace == PINNED_NAMESPACE

    def test_parallel_workers_match_serial_scores(self, dataset):
        app = app_for(dataset)
        legacy = app.tune(dataset, small_spec())
        parallel = app.tune(dataset, small_spec(), workers=2)
        assert search_signature(parallel.search) == search_signature(legacy.search)


class TestResumeFromCache:
    def test_second_run_is_all_hits(self, dataset, tmp_path):
        app = app_for(dataset)
        first = app.tuning_executor(dataset, workers=1, cache_dir=tmp_path)
        run_a = app.tune(dataset, small_spec(), executor=first)
        assert first.stats.cache_hits == 0
        assert first.stats.executed == run_a.search.num_trials

        second = app.tuning_executor(dataset, workers=1, cache_dir=tmp_path)
        run_b = app.tune(dataset, small_spec(), executor=second)
        assert second.stats.cache_hits == run_b.search.num_trials
        assert second.stats.executed == 0
        assert search_signature(run_b.search) == search_signature(run_a.search)

    def test_different_method_does_not_share_entries(self, dataset, tmp_path):
        """The supervision method changes trial outcomes, so it keys the cache."""
        app = app_for(dataset)
        first = app.tuning_executor(
            dataset, workers=1, cache_dir=tmp_path, method="label_model"
        )
        app.tune(dataset, small_spec(), executor=first, method="label_model")

        other = app.tuning_executor(
            dataset, workers=1, cache_dir=tmp_path, method="majority"
        )
        app.tune(dataset, small_spec(), executor=other, method="majority")
        assert other.stats.cache_hits == 0

    def test_inline_trials_leave_ambient_rng_untouched(self, dataset, tmp_path):
        """workers=1 trials run in-process and must not reseed np.random."""
        np.random.seed(12345)
        expected = np.random.RandomState(12345).random(4)  # what the stream holds
        app = app_for(dataset)
        executor = app.tuning_executor(dataset, workers=1, cache_dir=tmp_path)
        app.tune(dataset, small_spec(), executor=executor)
        assert np.allclose(np.random.random(4), expected)

    def test_different_dataset_does_not_share_entries(self, dataset, tmp_path):
        app = app_for(dataset)
        executor = app.tuning_executor(dataset, workers=1, cache_dir=tmp_path)
        app.tune(dataset, small_spec(), executor=executor)

        other = mini_dataset(n=44, seed=3)
        other_app = app_for(other)
        fresh = other_app.tuning_executor(other, workers=1, cache_dir=tmp_path)
        other_app.tune(other, small_spec(), executor=fresh)
        assert fresh.stats.cache_hits == 0


class TestHalvingUnderParallelism:
    def test_rung_ordering_matches_serial(self, dataset):
        app = app_for(dataset)
        serial = app.tune(dataset, small_spec(), strategy="halving")
        parallel = app.tune(dataset, small_spec(), strategy="halving", workers=2)
        assert [t.rung for t in parallel.search.trials] == [
            t.rung for t in serial.search.trials
        ]
        assert search_signature(parallel.search) == search_signature(serial.search)
        # Rungs are recorded in nondecreasing order: a rung is a barrier.
        rungs = [t.rung for t in parallel.search.trials]
        assert rungs == sorted(rungs)

    def test_rung_population_shrinks_by_reduction(self):
        spec = TuningSpec(
            payload_options={"tokens": {"encoder": ["bow", "lstm"], "size": [8, 16]}}
        )
        from tests.exec.test_executor import score_trial
        from repro.exec import TrialExecutor

        executor = TrialExecutor(score_trial, workers=2)
        result = successive_halving(
            spec, min_epochs=1, max_epochs=4, reduction=2, executor=executor
        )
        budgets = [t.config.trainer.epochs for t in result.trials]
        assert budgets.count(1) == 4
        assert budgets.count(2) == 2
        assert budgets.count(4) == 1
        assert result.best_config.for_payload("tokens").encoder == "lstm"


class TestHalvingBestModel:
    def test_serial_halving_trained_matches_best_config(self, dataset):
        """run.trained must be the recorded winner, not a luckier early rung."""
        app = app_for(dataset)
        run = app.tune(dataset, small_spec(), strategy="halving")
        refit = app.fit(dataset, run.search.best_config).trained
        for ours, theirs in zip(
            run.trained.model.parameters(), refit.model.parameters()
        ):
            assert np.array_equal(ours.data, theirs.data)
        assert run.trained.config == run.search.best_config


class TestSlicePredicates:
    def test_lambda_predicates_survive_the_fanout(self, dataset):
        """Unpicklable predicates are fine: membership ships as tags."""
        from repro.slicing import SliceSet, SliceSpec

        def build(ds):
            return Application(
                ds.schema,
                name="sliced",
                slices=SliceSet(
                    [
                        SliceSpec(
                            name="short",
                            predicate=lambda r: len(r.payloads.get("tokens", [])) <= 3,
                        )
                    ]
                ),
            )

        serial = build(dataset).tune(dataset, small_spec())
        parallel = build(dataset).tune(dataset, small_spec(), workers=2)
        assert search_signature(parallel.search) == search_signature(serial.search)


class TestValidation:
    def test_workers_below_1_rejected(self, dataset):
        app = app_for(dataset)
        from repro.errors import TrainingError

        with pytest.raises(TrainingError):
            app.tune(dataset, small_spec(), workers=0)

    def test_unknown_strategy_rejected_on_executor_path(self, dataset):
        app = app_for(dataset)
        from repro.errors import TrainingError

        with pytest.raises(TrainingError):
            app.tune(dataset, small_spec(), strategy="annealing", workers=2)

    def test_explicit_executor_rejects_conflicting_workers(self, dataset, tmp_path):
        app = app_for(dataset)
        from repro.errors import TrainingError

        executor = app.tuning_executor(dataset, workers=1, cache_dir=tmp_path)
        with pytest.raises(TrainingError, match="not both"):
            app.tune(dataset, small_spec(), workers=2, executor=executor)
        with pytest.raises(TrainingError, match="not both"):
            app.tune(
                dataset, small_spec(), cache_dir=tmp_path, executor=executor
            )

    def test_explicit_executor_rejects_a_different_dataset(self, dataset, tmp_path):
        """Scores from one dataset must never describe a refit on another."""
        app = app_for(dataset)
        from repro.errors import TrainingError

        executor = app.tuning_executor(dataset, workers=1, cache_dir=tmp_path)
        other = mini_dataset(n=44, seed=3)
        with pytest.raises(TrainingError, match="different dataset"):
            app.tune(other, small_spec(), executor=executor)

    def test_explicit_executor_rejects_conflicting_method(self, dataset, tmp_path):
        """The refit must train under the same supervision the trials scored."""
        app = app_for(dataset)
        from repro.errors import TrainingError

        executor = app.tuning_executor(
            dataset, workers=1, cache_dir=tmp_path, method="label_model"
        )
        with pytest.raises(TrainingError, match="conflicts"):
            app.tune(dataset, small_spec(), method="majority", executor=executor)

    def test_explicit_executor_rejects_different_supervision_policy(
        self, dataset, tmp_path
    ):
        from repro.api import SupervisionPolicy
        from repro.errors import TrainingError

        builder = Application(dataset.schema, name="tune-test")
        executor = builder.tuning_executor(dataset, workers=1, cache_dir=tmp_path)
        other = Application(
            dataset.schema,
            name="tune-test",
            supervision=SupervisionPolicy(gold_source="expert"),
        )
        with pytest.raises(TrainingError, match="supervision policy"):
            other.tune(dataset, small_spec(), executor=executor)
