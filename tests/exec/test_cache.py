"""Tests for the disk-backed trial cache and its stable keys."""

import json

import pytest

from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.exec import TrialCache, TrialExecutor, trial_key


def config(encoder: str = "bow", size: int = 8) -> ModelConfig:
    return ModelConfig(payloads={"tokens": PayloadConfig(encoder=encoder, size=size)})


class TestTrialKey:
    def test_stable_across_processes_and_runs(self):
        # Pure content hash: same inputs, same key, every time.
        assert trial_key("ns", config()) == trial_key("ns", config())

    def test_sensitive_to_config(self):
        assert trial_key("ns", config("bow")) != trial_key("ns", config("cnn"))
        assert trial_key("ns", config(size=8)) != trial_key("ns", config(size=16))

    def test_sensitive_to_namespace_and_budget(self):
        assert trial_key("a", config()) != trial_key("b", config())
        assert trial_key("ns", config(), budget=2) != trial_key("ns", config(), budget=4)
        assert trial_key("ns", config(), budget=None) != trial_key("ns", config(), budget=2)

    def test_trainer_options_participate(self):
        small = ModelConfig(trainer=TrainerConfig(lr=0.01))
        large = ModelConfig(trainer=TrainerConfig(lr=0.1))
        assert trial_key("ns", small) != trial_key("ns", large)


class TestTrialCache:
    def test_round_trip(self, tmp_path):
        cache = TrialCache(tmp_path / "cache")
        key = trial_key("ns", config())
        cache.put(key, 0.75, seed=42, duration_s=1.5)
        entry = cache.get(key)
        assert entry is not None
        assert entry.score == 0.75
        assert entry.seed == 42
        assert key in cache
        assert len(cache) == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.misses == 1

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[]", '{"score": 1.0}', '{"key": "KEY", "score": "high"}'],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, text):
        cache = TrialCache(tmp_path)
        key = trial_key("ns", config())
        (tmp_path / f"{key}.json").write_text(text.replace("KEY", key))
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_entry_with_wrong_key_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = trial_key("ns", config())
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"key": "other", "score": 1.0})
        )
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = TrialCache(tmp_path)
        cache.put("k1", 1.0)
        cache.put("k2", 2.0)
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCacheShortCircuit:
    def test_hit_skips_trial_fn_entirely(self, tmp_path):
        calls = []

        def counting_trial(context, cfg, seed, budget):
            calls.append(cfg)
            return cfg.for_payload("tokens").size / 10.0

        configs = [config(size=8), config(size=16)]
        cache = TrialCache(tmp_path)
        first = TrialExecutor(
            counting_trial, workers=1, cache=cache, namespace="ns"
        ).evaluate(configs)
        assert len(calls) == 2
        assert not any(o.cached for o in first)

        second_executor = TrialExecutor(
            counting_trial, workers=1, cache=cache, namespace="ns"
        )
        second = second_executor.evaluate(configs)
        assert len(calls) == 2  # trial_fn was never called again
        assert all(o.cached for o in second)
        assert [o.score for o in second] == [o.score for o in first]
        assert second_executor.stats.cache_hits == 2
        assert second_executor.stats.executed == 0

    def test_different_base_seed_does_not_share_entries(self, tmp_path):
        """A seed-sensitive trial's score must only serve its own seed."""

        def seeded_trial(context, cfg, seed, budget):
            return float(seed)

        configs = [config()]
        cache = TrialCache(tmp_path)
        first = TrialExecutor(
            seeded_trial, workers=1, cache=cache, namespace="ns", base_seed=0
        ).evaluate(configs)
        second_executor = TrialExecutor(
            seeded_trial, workers=1, cache=cache, namespace="ns", base_seed=1
        )
        second = second_executor.evaluate(configs)
        assert second_executor.stats.cache_hits == 0
        assert second[0].score == float(second[0].seed)
        assert first[0].seed != second[0].seed

    def test_different_namespace_misses(self, tmp_path):
        calls = []

        def counting_trial(context, cfg, seed, budget):
            calls.append(cfg)
            return 1.0

        configs = [config()]
        cache = TrialCache(tmp_path)
        TrialExecutor(counting_trial, workers=1, cache=cache, namespace="a").evaluate(
            configs
        )
        TrialExecutor(counting_trial, workers=1, cache=cache, namespace="b").evaluate(
            configs
        )
        assert len(calls) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_completed_trials_survive_a_partial_failure(self, tmp_path, workers):
        """One failing trial must not discard its siblings' cache entries."""
        from tests.exec.test_executor import failing_trial, spec_4
        from repro.errors import TuningError

        configs = spec_4().expand()  # bow/lstm x sizes; lstm trials raise
        cache = TrialCache(tmp_path)
        with pytest.raises(TuningError):
            TrialExecutor(
                failing_trial, workers=workers, cache=cache, namespace="ns"
            ).evaluate(configs)
        assert len(cache) == 2  # both bow trials were persisted

        calls = []

        def counting_trial(context, cfg, seed, budget):
            calls.append(cfg)
            return 0.5

        resumed = TrialExecutor(
            counting_trial, workers=1, cache=cache, namespace="ns"
        )
        outcomes = resumed.evaluate(configs)
        assert len(calls) == 2  # only the failed trials re-ran
        assert resumed.stats.cache_hits == 2
        assert [o.cached for o in outcomes] == [
            c.for_payload("tokens").encoder == "bow" for c in configs
        ]

    def test_budget_separates_entries(self, tmp_path):
        calls = []

        def counting_trial(context, cfg, seed, budget):
            calls.append(budget)
            return float(budget or 0)

        configs = [config()]
        cache = TrialCache(tmp_path)
        executor = TrialExecutor(
            counting_trial, workers=1, cache=cache, namespace="ns"
        )
        executor.evaluate(configs, budget=2)
        executor.evaluate(configs, budget=4)
        executor.evaluate(configs, budget=2)  # cached
        assert calls == [2, 4]
