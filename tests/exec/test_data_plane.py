"""One training data plane per search: combine once, restore the winner.

Three contracts:

* whatever path produced it — a plain ``fit``, a cold search's refit, a
  warm search's restore, at any worker count and for every strategy —
  ``run.trained`` for one (application, dataset, config) is the same
  object field for field;
* a stored state that cannot be trusted (truncated, wrong shape, wrong
  score) is a counted corrupt miss: the search refits, rewrites the
  entry, and the next search restores again;
* the counts repeat exactly on the inline ``workers=1, cache_dir=...``
  path: ``Application.combine`` runs once per cold search however many
  trials it has and never in a warm one, a warm search runs no
  ``Trainer.fit`` at all, and a search encodes each record once to
  fingerprint it — across processes too, where the parent combines
  before the fork and no worker combines again;
* the supervision a warm search never computed is still there for a
  caller that reads it, equal to a plain ``fit``'s.
"""

import logging
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from repro.api import Application, Run
from repro.core import ModelConfig, PayloadConfig, TrainerConfig, TuningSpec
from repro.data.record import Record
from repro.exec import TrialCache, trial_key
from repro.tensor import Tensor
from repro.training import Trainer
from repro.workloads import resolve_workload

from tests.fixtures import mini_dataset
from tests.helpers import child_pids, obs_activated, process_running, python_calls


@pytest.fixture(scope="module")
def dataset():
    return mini_dataset(n=40, seed=0)


def small_spec() -> TuningSpec:
    return TuningSpec(
        payload_options={"tokens": {"encoder": ["bow", "cnn"]}},
        trainer_options={"epochs": [2]},
    )


def app_for(dataset) -> Application:
    return Application(dataset.schema, name="plane-test")


def assert_same_trained(ours, theirs) -> None:
    """``TrainedModel`` equality, field for field, arrays bit for bit."""
    state, expected = ours.model.state_dict(), theirs.model.state_dict()
    assert list(state) == list(expected)
    for name in state:
        assert state[name].dtype == expected[name].dtype
        assert np.array_equal(state[name], expected[name]), name
    assert ours.model.training == theirs.model.training
    assert ours.history == theirs.history
    assert ours.config == theirs.config
    assert ours.train_fingerprint == theirs.train_fingerprint
    assert list(ours.vocabs) == list(theirs.vocabs)
    for name, vocab in ours.vocabs.items():
        assert vocab.to_dict() == theirs.vocabs[name].to_dict()
    assert list(ours.supervision) == list(theirs.supervision)
    for task, combined in ours.supervision.items():
        other = theirs.supervision[task]
        assert np.array_equal(combined.probs, other.probs)
        assert np.array_equal(combined.weights, other.weights)
        assert combined.source_accuracies == other.source_accuracies


def outcome(search) -> list:
    return [(t.score.hex(), t.config.to_json(), t.rung) for t in search.trials] + [
        search.best_config.to_json(),
        search.best_score.hex(),
    ]


class TestColdWarmPlainEquality:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("strategy", ["grid", "random", "halving"])
    def test_cold_warm_and_plain_fit_agree(self, dataset, tmp_path, strategy, workers):
        app = app_for(dataset)
        kwargs = dict(strategy=strategy, num_trials=2)

        cold_executor = app.tuning_executor(dataset, workers=workers, cache_dir=tmp_path)
        with cold_executor:
            cold = app.tune(dataset, small_spec(), executor=cold_executor, **kwargs)
        assert cold_executor.stats.restored == 0

        warm_executor = app.tuning_executor(dataset, workers=workers, cache_dir=tmp_path)
        with warm_executor:
            warm = app.tune(dataset, small_spec(), executor=warm_executor, **kwargs)
        assert warm_executor.stats.executed == 0
        assert warm_executor.stats.cache_hits == warm.search.num_trials
        assert warm_executor.stats.restored == 1
        assert warm_executor.cache.corrupt == 0

        assert outcome(warm.search) == outcome(cold.search)
        plain = app.fit(dataset, cold.search.best_config)
        assert_same_trained(cold.trained, plain.trained)
        assert_same_trained(warm.trained, plain.trained)
        # ... and the uncached search, which keeps its trial's own model.
        serial = app.tune(dataset, small_spec(), **kwargs)
        assert outcome(serial.search) == outcome(cold.search)
        assert_same_trained(serial.trained, plain.trained)

    def test_restored_model_predicts_like_the_refit(self, dataset, tmp_path):
        app = app_for(dataset)
        cold = app.tune(dataset, small_spec(), cache_dir=tmp_path)
        warm = app.tune(dataset, small_spec(), cache_dir=tmp_path)
        served, reference = warm.endpoint(), cold.endpoint()
        inputs = {i.name for i in reference.signature.inputs}
        payloads = [
            {name: value for name, value in r.payloads.items() if name in inputs}
            for r in dataset.split("test").records
        ]
        assert served.predict(payloads) == reference.predict(payloads)
        rows = lambda run: [  # noqa: E731
            (r.tag, r.task, r.n, r.metrics) for r in run.report(dataset).rows
        ]
        assert rows(warm) == rows(cold)

    def test_no_cache_means_nothing_is_written_or_restored(self, dataset, tmp_path):
        app = app_for(dataset)
        with app.tuning_executor(dataset, workers=1) as executor:
            run = app.tune(dataset, small_spec(), executor=executor)
        assert executor.stats.restored == 0 and executor.cache is None
        assert_same_trained(
            run.trained, app.fit(dataset, run.search.best_config).trained
        )


class TestLazySupervision:
    """What a warm search never combined is there, unchanged, for a reader."""

    def test_a_warm_run_reads_the_supervision_of_a_plain_fit(self, dataset, tmp_path):
        app = app_for(dataset)
        app.tune(dataset, small_spec(), cache_dir=tmp_path / "cache")
        warm = app.tune(dataset, small_spec(), cache_dir=tmp_path / "cache")
        plain = app.fit(dataset, warm.search.best_config)
        # Nothing was combined until now: this first read pays for it.
        read = lambda: warm.supervision_summary  # noqa: E731
        assert python_calls(read, of=Application.combine) == 1
        assert warm.supervision_summary == plain.supervision_summary
        assert_same_trained(warm.trained, plain.trained)
        loaded = Run.load(warm.save(tmp_path / "run"))
        assert loaded.supervision_summary == plain.supervision_summary
        assert loaded.trained.supervision == {}

    def test_an_explicit_summary_is_kept(self, dataset):
        plain = app_for(dataset).fit(dataset)
        summary = {"Intent": {"weak": 0.5}}
        run = Run(application=plain.application, trained=plain.trained,
                  supervision_summary=summary)
        assert run.supervision_summary == summary
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            run.nope  # noqa: B018

    def test_training_data_pickles_before_and_after_its_first_read(self, dataset):
        data = app_for(dataset).prepare(dataset)
        before = pickle.loads(pickle.dumps(data))
        targets, supervision = data.combined
        after = pickle.loads(pickle.dumps(data))
        for copy in (before, after):
            assert copy.train_fingerprint == data.train_fingerprint
            assert list(copy.targets) == list(targets)
            for task, combined in supervision.items():
                assert np.array_equal(copy.targets[task].probs, targets[task].probs)
                assert np.array_equal(copy.supervision[task].weights, combined.weights)
                assert (
                    copy.supervision[task].source_accuracies
                    == combined.source_accuracies
                )

    def test_a_search_context_pickles_with_predicate_slices(self):
        from repro.slicing import SliceSet, SliceSpec

        fresh = mini_dataset(n=40, seed=0)  # materializing tags its records
        short = SliceSpec("short", predicate=lambda r: len(r.payloads["tokens"]) < 6)
        app = Application(fresh.schema, name="plane-test", slices=SliceSet([short]))
        with app.tuning_executor(fresh, workers=2) as executor:
            shipped = pickle.loads(pickle.dumps(executor.context))
        assert shipped.data.application.slices.names == ["short"]
        expected = app.prepare(fresh).targets
        assert 0 < expected["Intent"].membership.sum() < 40
        for task, target in shipped.data.targets.items():
            assert np.array_equal(target.membership, expected[task].membership)
            assert np.array_equal(target.probs, expected[task].probs)

    def test_cache_keys_are_pinned(self):
        """Either hash changing silently would orphan every trial cache."""
        fresh = mini_dataset(n=40, seed=0)
        with app_for(fresh).tuning_executor(fresh) as executor:
            assert executor.namespace == "26c09e389c6ec45d60a3e7d55b905988"
            assert executor.context.data.train_fingerprint == "843f838eeb111f83"


class TestCombineAcrossProcesses:
    def test_only_the_parent_combines_and_only_when_cold(
        self, dataset, tmp_path, monkeypatch
    ):
        """Forked workers inherit the patched method and the log path."""
        log = tmp_path / "combines.log"
        combine = Application.combine

        def logged(self, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return combine(self, *args, **kwargs)

        monkeypatch.setattr(Application, "combine", logged)
        app = app_for(dataset)
        for pids, executed in (([str(os.getpid())], 2), ([], 0)):  # cold, warm
            log.write_text("")
            with app.tuning_executor(
                dataset, workers=2, cache_dir=tmp_path / "cache"
            ) as executor:
                app.tune(dataset, small_spec(), executor=executor)
            assert executor.stats.executed == executed
            assert log.read_text().split() == pids


class TestUntrustedState:
    """Every way a stored state can be wrong ends in a refit and a rewrite."""

    def _cold(self, app, dataset, cache_dir):
        with app.tuning_executor(dataset, workers=1, cache_dir=cache_dir) as executor:
            run = app.tune(dataset, small_spec(), executor=executor)
        key = trial_key(executor.namespace, run.search.best_config)
        return run, executor.cache._state_path(key)

    def _warm(self, app, dataset, cache_dir):
        executor = app.tuning_executor(dataset, workers=1, cache_dir=cache_dir)
        with executor:
            run = app.tune(dataset, small_spec(), executor=executor)
        return run, executor

    def _damage(self, kind, path, cache: TrialCache, key: str) -> None:
        arrays, meta = cache.get_state(key)
        if kind == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif kind == "garbage":
            path.write_bytes(b"not an npz archive")
        elif kind == "wrong_shape":
            name = next(iter(arrays))
            arrays[name] = np.zeros(arrays[name].shape + (2,))
            cache.put_state(key, arrays, meta)
        elif kind == "missing_parameter":
            arrays.pop(next(iter(arrays)))
            cache.put_state(key, arrays, meta)
        elif kind == "wrong_score":
            # Loads cleanly, but it is not the model the search elected.
            cache.put_state(key, {k: v * 0.0 for k, v in arrays.items()}, meta)
        elif kind == "no_history":
            cache.put_state(key, arrays, {})
        else:
            raise AssertionError(kind)

    @pytest.mark.parametrize(
        "kind",
        ["truncated", "garbage", "wrong_shape", "missing_parameter", "wrong_score",
         "no_history"],
    )
    def test_bad_state_refits_and_rewrites(self, dataset, tmp_path, caplog, kind):
        import repro.obs as obs

        app = app_for(dataset)
        cold, path = self._cold(app, dataset, tmp_path)
        key = path.name.removesuffix(".state.npz")
        self._damage(kind, path, TrialCache(tmp_path), key)

        with obs_activated(), caplog.at_level(logging.WARNING, "repro.exec.cache"):
            healed, executor = self._warm(app, dataset, tmp_path)
            counted = obs.get_registry().get("repro_trial_cache_corrupt_total").value()
        assert executor.stats.restored == 0
        assert executor.stats.executed == 0  # the scores were still good
        assert executor.cache.corrupt == 1 and counted == 1.0
        warnings = [r for r in caplog.records if str(path) in r.getMessage()]
        assert len(warnings) == 1
        assert_same_trained(healed.trained, cold.trained)

        # The refit rewrote the entry: the next search restores it.
        again, executor = self._warm(app, dataset, tmp_path)
        assert executor.stats.restored == 1 and executor.cache.corrupt == 0
        assert_same_trained(again.trained, cold.trained)

    def test_entry_from_before_states_existed_is_a_plain_miss(self, dataset, tmp_path):
        app = app_for(dataset)
        cold, path = self._cold(app, dataset, tmp_path)
        path.unlink()  # scores only: what every earlier version wrote
        healed, executor = self._warm(app, dataset, tmp_path)
        assert executor.stats.restored == 0 and executor.cache.corrupt == 0
        assert executor.stats.cache_hits == healed.search.num_trials
        assert path.exists()
        assert_same_trained(healed.trained, cold.trained)

    def test_a_different_dataset_never_restores_this_state(self, dataset, tmp_path):
        app = app_for(dataset)
        self._cold(app, dataset, tmp_path)
        other = mini_dataset(n=44, seed=3)
        _, executor = self._warm(app_for(other), other, tmp_path)
        assert executor.stats.restored == 0 and executor.stats.cache_hits == 0


class TestCacheBookkeeping:
    def test_len_counts_trials_and_clear_removes_states(self, tmp_path):
        cache = TrialCache(tmp_path)
        cache.put("k1", 1.0)
        cache.put("k2", 2.0)
        cache.put_state("k1", {"w": np.arange(3.0)}, {"note": "x"})
        assert len(cache) == 2
        arrays, meta = cache.get_state("k1")
        assert np.array_equal(arrays["w"], np.arange(3.0)) and meta == {"note": "x"}
        assert cache.clear() == 2
        assert len(cache) == 0 and cache.get_state("k1") is None
        assert list(tmp_path.iterdir()) == []

    def test_missing_state_is_a_miss_not_corruption(self, tmp_path):
        cache = TrialCache(tmp_path)
        cache.put("k1", 1.0)
        assert cache.get_state("k1") is None
        assert (cache.misses, cache.corrupt) == (1, 0)

    def test_corrupt_state_warns_once_per_path(self, tmp_path, caplog):
        cache = TrialCache(tmp_path)
        cache._state_path("k1").write_bytes(b"PK\x03\x04 torn")
        with caplog.at_level(logging.WARNING, "repro.exec.cache"):
            assert cache.get_state("k1") is None
            assert cache.get_state("k1") is None
        assert cache.corrupt == 2
        assert len(caplog.records) == 1

    def test_a_failed_state_write_leaves_no_temp_file(self, tmp_path):
        cache = TrialCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put_state("k1", {"w": np.arange(3.0)}, {"bad": object()})
        assert list(tmp_path.iterdir()) == []

    def test_clear_removes_a_killed_writers_temp_file(self, tmp_path):
        cache = TrialCache(tmp_path)
        cache.put("k1", 1.0)
        fd, _ = tempfile.mkstemp(dir=tmp_path, suffix=".tmp")  # no rename came
        os.close(fd)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []


class TestRepeatableCounts:
    """Exact call counts on the inline path: same code, no fork."""

    SPEC = TuningSpec(
        payload_options={
            "tokens": {"encoder": ["bow", "cnn", "gru", "lstm"], "size": [8, 12]}
        },
        trainer_options={"epochs": [1]},
    )
    COUNTED = (Application.combine, Trainer.fit, Record.to_json)

    def _counts(self, app, dataset, cache_dirs) -> tuple[int, ...]:
        """(combines, fits, record encodings), each from one ``tune``."""

        def tune():
            app.tune(dataset, self.SPEC, workers=1, cache_dir=next(cache_dirs))

        return tuple(python_calls(tune, of=fn) for fn in self.COUNTED)

    def test_combine_runs_once_per_search_and_warm_trains_nothing(
        self, dataset, tmp_path
    ):
        """A warm search combines nothing either.  Before supervision was
        combined on first use, it combined once, and every search encoded
        the train records twice: ``records + train`` encodings.  A cold
        search trains each trial once and keeps the winner's model: it
        made 9 fits when the winner was trained again."""
        app = app_for(dataset)
        assert self.SPEC.size() == 8
        records = len(dataset.records)
        cold = iter(tmp_path / f"cold-{n}" for n in range(3))
        assert self._counts(app, dataset, cold) == (1, 8, records)
        warm = iter([tmp_path / "cold-0"] * 6)
        assert self._counts(app, dataset, warm) == (0, 0, records)
        assert self._counts(app, dataset, warm) == (0, 0, records)

    def test_fit_encodes_train_records_only(self, dataset):
        app = app_for(dataset)
        config = ModelConfig(
            payloads={"tokens": PayloadConfig(encoder="bow", size=8)},
            trainer=TrainerConfig(epochs=1),
        )
        fit = lambda: app.fit(dataset, config)  # noqa: E731
        assert python_calls(fit, of=Record.to_json) == len(dataset.split("train"))

    @pytest.mark.parametrize(
        "strategy, fits", [("grid", 4), ("random", 3), ("halving", 7)]
    )
    def test_an_inline_search_trains_each_trial_once(self, strategy, fits):
        """Halving's winner is its last rung's trial, kept and not trained
        again (8 fits when it was); ``workers=1`` pickles nothing, so it
        never builds a picklable clone, even with a lambda predicate."""
        from repro.slicing import SliceSet, SliceSpec

        fresh = mini_dataset(n=40, seed=0)
        short = SliceSpec("short", predicate=lambda r: len(r.payloads["tokens"]) < 6)
        app = Application(fresh.schema, name="plane-test", slices=SliceSet([short]))
        spec = TuningSpec(
            payload_options={"tokens": {"encoder": ["bow", "cnn"], "size": [8, 12]}},
            trainer_options={"epochs": [1]},
        )

        def tune():
            app.tune(fresh, spec, strategy=strategy, num_trials=3)

        assert python_calls(tune, of=Application.fit_prepared) == fits
        assert python_calls(tune, of=Application._picklable_clone) == 0

    def test_serial_search_combines_once_too(self, dataset):
        app = app_for(dataset)
        combines = python_calls(
            lambda: app.tune(dataset, self.SPEC), of=Application.combine
        )
        assert combines == 1

    @staticmethod
    def _tape_nodes_per_fit(encoder: str, size: int) -> int:
        """synth-medium@800, 3 epochs (45 steps): the `fit` workload's ops."""
        built = resolve_workload("synth-medium", scale=800, seed=1)
        config = ModelConfig(
            payloads={"tokens": PayloadConfig(encoder=encoder, size=size)},
            trainer=TrainerConfig(epochs=3, lr=0.05),
        )
        fit = lambda: built.application.fit(built.dataset, config)  # noqa: E731
        nodes = python_calls(fit, of=Tensor._make)
        assert nodes == python_calls(fit, of=Tensor._make), "the count must repeat"
        return nodes

    def test_tape_nodes_per_fit_are_pinned(self):
        """bow-24, the short op: 62 a step.  12 018 before the two head
        forwards that only read ``.data`` ran under ``no_grad``; 10 578 (235
        a step, 179 of them the two slice-aware heads and their losses)
        before each head became one forward node, one view and one loss
        node."""
        assert self._tape_nodes_per_fit("bow", 24) == 2_790

    def test_a_recurrent_layer_is_one_tape_node(self):
        """LSTM-64, the long op: 63 a step.  19 623 (436 a step, 201 of them
        the recurrence) before the layer became one node; 10 623 (236 a
        step) before the slice-aware heads did."""
        assert self._tape_nodes_per_fit("lstm", 64) == 2_835


class TestParentDeath:
    def test_no_worker_outlives_a_sigkilled_repro_tune(self, tmp_path):
        """SIGKILL runs no teardown, and a worker mid-trial reads no pipe."""
        built = resolve_workload("synth-medium", scale=600, seed=3)
        built.dataset.schema.save(tmp_path / "schema.json")
        built.dataset.save(tmp_path / "data.jsonl")
        (tmp_path / "app.json").write_text(
            '{"name": "killed", "schema": "schema.json"}'
        )
        (tmp_path / "spec.json").write_text(
            '{"payloads": {"tokens": {"encoder": ["lstm", "gru"], "size": [64, 96]}},'
            ' "trainer": {"epochs": [30]}}'
        )
        parent = subprocess.Popen(
            [sys.executable, "-m", "repro", "tune", "--app", str(tmp_path / "app.json"),
             "--data", str(tmp_path / "data.jsonl"), "--spec", str(tmp_path / "spec.json"),
             "--workers", "2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and len(workers) < 2:
                assert parent.poll() is None, "repro tune exited before it fanned out"
                time.sleep(0.05)
                workers = child_pids({parent.pid})
            assert len(workers) == 2
            time.sleep(0.3)  # let both get into a trial
            assert all(map(process_running, workers))
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline and any(map(process_running, workers)):
                time.sleep(0.02)
            assert [pid for pid in workers if process_running(pid)] == []
        finally:
            parent.kill()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
