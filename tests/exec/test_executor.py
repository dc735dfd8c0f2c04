"""Tests for the parallel trial executor: ordering, seeds, failures."""

import os
import time

import pytest

from repro.core import ModelConfig, PayloadConfig, TuningSpec
from repro.errors import TuningError
from repro.exec import TrialExecutor, trial_seed
from repro.tuning import grid_search

from tests.helpers import process_running


def spec_4() -> TuningSpec:
    return TuningSpec(
        payload_options={"tokens": {"encoder": ["bow", "lstm"], "size": [8, 16]}}
    )


# Module-level so the pool can import them in worker processes.
def score_trial(context, config, seed, budget):
    """Deterministic: prefers lstm and larger size."""
    p = config.for_payload("tokens")
    return (1.0 if p.encoder == "lstm" else 0.0) + p.size / 100.0


def slow_first_trial(context, config, seed, budget):
    """First candidates sleep longest: finish order inverts dispatch order."""
    p = config.for_payload("tokens")
    time.sleep(0.05 if p.encoder == "bow" else 0.0)
    return score_trial(context, config, seed, budget)


def failing_trial(context, config, seed, budget):
    if config.for_payload("tokens").encoder == "lstm":
        raise ValueError("lstm exploded")
    return 0.5


def die_once_trial(marker, config, seed, budget):
    """The first worker to get here dies on the spot; every later call scores."""
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return score_trial(None, config, seed, budget)
    os._exit(7)


def die_on_lstm_16_trial(context, config, seed, budget):
    p = config.for_payload("tokens")
    if (p.encoder, p.size) == ("lstm", 16):
        os._exit(7)
    return score_trial(context, config, seed, budget)


def echo_seed(context, config, seed, budget):
    return float(seed)


class TestOrdering:
    def test_results_in_dispatch_order_despite_finish_order(self):
        executor = TrialExecutor(slow_first_trial, workers=2)
        configs = spec_4().expand()
        outcomes = executor.evaluate(configs)
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.config for o in outcomes] == configs
        expected = [score_trial(None, c, 0, None) for c in configs]
        assert [o.score for o in outcomes] == expected

    def test_serial_and_parallel_agree(self):
        configs = spec_4().expand()
        serial = TrialExecutor(score_trial, workers=1).evaluate(configs)
        parallel = TrialExecutor(score_trial, workers=3).evaluate(configs)
        assert [o.score for o in serial] == [o.score for o in parallel]

    def test_grid_search_inline_matches_pooled(self):
        direct = grid_search(spec_4(), executor=TrialExecutor(score_trial, workers=1))
        pooled = grid_search(spec_4(), executor=TrialExecutor(score_trial, workers=2))
        assert [t.score for t in direct.trials] == [t.score for t in pooled.trials]
        assert direct.best_config == pooled.best_config


class TestSeeds:
    def test_trial_seed_is_stable_content_hash(self):
        configs = spec_4().expand()
        assert trial_seed(0, configs[0]) == trial_seed(0, configs[0])
        assert trial_seed(0, configs[0]) != trial_seed(0, configs[1])
        assert trial_seed(0, configs[0]) != trial_seed(1, configs[0])
        assert trial_seed(0, configs[0], budget=2) != trial_seed(
            0, configs[0], budget=4
        )

    def test_outcomes_carry_deterministic_seeds(self):
        configs = spec_4().expand()
        first = TrialExecutor(echo_seed, workers=1, base_seed=7).evaluate(configs)
        second = TrialExecutor(echo_seed, workers=2, base_seed=7).evaluate(configs)
        assert [o.seed for o in first] == [o.seed for o in second]
        # The worker really received the seed the outcome reports.
        assert [o.score for o in first] == [float(o.seed) for o in first]

    def test_same_config_always_gets_the_same_seed(self):
        """Seeds are content-derived, so cached scores match their seeds."""
        executor = TrialExecutor(echo_seed, workers=1)
        configs = spec_4().expand()[:2]
        first = executor.evaluate(configs)
        second = executor.evaluate(configs)
        assert [o.seed for o in first] == [o.seed for o in second]
        # Re-dispatching at a different position changes nothing either.
        shuffled = executor.evaluate(list(reversed(configs)))
        assert [o.seed for o in shuffled] == [o.seed for o in reversed(second)]


class TestFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_trial_surfaces_tuning_error_with_config(self, workers):
        executor = TrialExecutor(failing_trial, workers=workers)
        with pytest.raises(TuningError) as excinfo:
            grid_search(spec_4(), executor=executor)
        message = str(excinfo.value)
        assert "lstm exploded" in message
        assert '"lstm"' in message  # the failing config is named


class TestWorkerDeath:
    """A worker that dies mid-trial is a failed trial, never a hung fan-out."""

    def test_dead_worker_is_retried_on_a_fresh_one(self, tmp_path):
        executor = TrialExecutor(
            die_once_trial, context=str(tmp_path / "died"), workers=2,
            retries=1, retry_backoff_s=0.0,
        )
        configs = spec_4().expand()
        with executor:
            outcomes = executor.evaluate(configs)
            assert [o.score for o in outcomes] == [
                score_trial(None, c, 0, None) for c in configs
            ]
            assert executor.stats.retries == 1 and executor.stats.errors == 0
            assert len(executor.worker_pids()) == 2  # the dead slot was refilled

    def test_dead_worker_without_retries_skips_only_its_trial(self):
        executor = TrialExecutor(die_on_lstm_16_trial, workers=2, on_error="skip")
        configs = spec_4().expand()
        with executor:
            outcomes = executor.evaluate(configs)
        dead = [o for o in outcomes if o.skipped]
        assert [(o.index, o.score) for o in dead] == [(3, float("-inf"))]
        assert "WorkerCrashError" in dead[0].error
        assert [o.score for o in outcomes[:3]] == [
            score_trial(None, c, 0, None) for c in configs[:3]
        ]

    def test_dead_worker_raises_by_default_naming_the_config(self):
        with TrialExecutor(die_on_lstm_16_trial, workers=2) as executor:
            with pytest.raises(TuningError, match="WorkerCrashError") as excinfo:
                executor.evaluate(spec_4().expand())
        assert '"lstm"' in str(excinfo.value)

    def test_injected_crash_in_a_worker_process_is_retried_away(self):
        from repro.faults import FaultPlan, FaultRule, injected

        storm = FaultPlan(
            name="crash-trial-0",
            rules=(
                FaultRule(
                    point="exec.trial", kind="crash", match=(("trial", "0"),),
                    max_fires=1,
                ),
            ),
        )
        configs = spec_4().expand()
        # Armed before the fork: each worker inherits the plan with its own
        # fire count, so trial 0 can crash once per worker it lands on.
        with injected(storm):
            with TrialExecutor(
                score_trial, workers=2, retries=2, retry_backoff_s=0.0
            ) as executor:
                outcomes = executor.evaluate(configs)
        assert [o.score for o in outcomes] == [
            score_trial(None, c, 0, None) for c in configs
        ]
        assert executor.stats.retries in (1, 2) and executor.stats.errors == 0


class TestExecutorBasics:
    def test_invalid_workers(self):
        with pytest.raises(TuningError):
            TrialExecutor(score_trial, workers=0)

    def test_workers_1_supports_closures(self):
        calls = []

        def closure_trial(context, config, seed, budget):
            calls.append(config)
            return 1.0

        executor = TrialExecutor(closure_trial, workers=1)
        outcomes = executor.evaluate(spec_4().expand())
        assert len(calls) == 4
        assert all(o.score == 1.0 for o in outcomes)

    def test_stats_track_work(self):
        executor = TrialExecutor(score_trial, workers=1)
        executor.evaluate(spec_4().expand())
        assert executor.stats.dispatched == 4
        assert executor.stats.executed == 4
        assert executor.stats.cache_hits == 0

    def test_pool_is_reused_across_evaluate_calls(self):
        executor = TrialExecutor(score_trial, workers=2)
        configs = spec_4().expand()
        assert executor.worker_pids() == []  # nothing forks until there is work
        executor.evaluate(configs)
        pids = executor.worker_pids()
        assert len(pids) == 2 and all(map(process_running, pids))
        executor.evaluate(configs, budget=2)  # e.g. the next halving rung
        assert executor.worker_pids() == pids
        executor.close()
        assert executor.worker_pids() == []
        assert not any(map(process_running, pids))

    def test_close_is_idempotent_and_context_manager_closes(self):
        with TrialExecutor(score_trial, workers=2) as executor:
            executor.evaluate(spec_4().expand())
            pids = executor.worker_pids()
            assert len(pids) == 2
        assert not any(map(process_running, pids))
        executor.close()  # no-op
        # A closed executor starts fresh workers on its next use.
        assert [o.score for o in executor.evaluate(spec_4().expand())] == [
            score_trial(None, c, 0, None) for c in spec_4().expand()
        ]
        assert set(executor.worker_pids()).isdisjoint(pids)
        executor.close()

    def test_empty_candidates_raise(self):
        from repro.tuning.search import _evaluate_all

        with pytest.raises(TuningError):
            _evaluate_all([], TrialExecutor(score_trial, workers=1))


class TestObservability:
    def test_counters_mirror_executor_stats(self, tmp_path):
        import repro.obs as obs
        from repro.exec import TrialCache

        configs = spec_4().expand()
        with obs.activated():
            registry = obs.get_registry()
            cache = TrialCache(tmp_path / "cache")
            executor = TrialExecutor(score_trial, workers=1, cache=cache)
            executor.evaluate(configs)
            assert registry.get("repro_trials_started_total").value() == 4.0
            assert registry.get("repro_trials_cached_total").value() == 0.0
            # A second pass answers everything from the cache.
            executor.evaluate(configs)
            assert registry.get("repro_trials_started_total").value() == 8.0
            assert registry.get("repro_trials_cached_total").value() == 4.0
            assert executor.stats.cache_hits == 4
            util = registry.get("repro_exec_worker_utilization").value()
            assert 0.0 <= util <= 1.0
            executor.close()

    def test_failed_trials_are_counted(self):
        import repro.obs as obs

        with obs.activated():
            executor = TrialExecutor(failing_trial, workers=1)
            with pytest.raises(TuningError):
                executor.evaluate(spec_4().expand())
            assert obs.get_registry().get(
                "repro_trials_failed_total"
            ).value() >= 1.0
            executor.close()

    def test_evaluate_is_traced(self):
        import repro.obs as obs

        with obs.activated():
            executor = TrialExecutor(score_trial, workers=1)
            executor.evaluate(spec_4().expand())
            (span,) = [
                s for s in obs.get_tracer().ring.spans()
                if s.name == "exec.evaluate"
            ]
            assert span.attrs == {"trials": 4, "misses": 4}
            executor.close()
