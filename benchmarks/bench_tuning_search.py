"""§2.4 / §4: coarse block-level architecture search, serial and parallel.

"Overton searches over relatively limited large blocks, e.g., should we use
an LSTM or CNN, not at a fine-grained level of connections ... In
preliminary experiments, NAS methods seemed to have diminishing returns."
And: "first versions of all Overton systems are tuned using standard
approaches" (grid / random).

Three experiments:

1. *Coarse search shape* — the real search path over encoder blocks x
   hidden sizes: the block choice matters, and half-budget random search
   lands near the full grid (the paper's argument against expensive NAS).
2. *Parallel executor speedup* — the same grid driven through
   ``repro.exec.TrialExecutor`` at 1 vs 4 workers over a latency-bound
   trial (a fixed simulated I/O wait per trial, the regime the executor
   targets: real Overton trials spend much of their wall-clock waiting on
   data/embedding fetches, and bench machines may expose a single core).
   Asserts >= 2x wall-clock at 4 workers, plus a warm re-run against the
   trial cache that must skip every trial.
3. *Inline fidelity* — ``app.tune`` at ``workers=1`` (trials inline, in
   the calling process) must reproduce the ``workers=2`` ``SearchResult``
   exactly: same trials, same scores, same best.

When ``BENCH_TUNE_JSON`` is set (``tools/run_benchmarks.py`` does), the
executor metrics land there as the between-PR perf trajectory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.api import Application
from repro.core.tuning_spec import TuningSpec
from repro.exec import TrialCache, TrialExecutor
from benchmarks.conftest import bench_workload, print_table

SIMULATED_TRIAL_IO_S = 0.25
PARALLEL_WORKERS = 4


def _dataset(seed: int = 0, n: int = 300):
    return bench_workload("factoid", scale=n, seed=seed).dataset


def _spec() -> TuningSpec:
    return TuningSpec(
        payload_options={
            "tokens": {"encoder": ["bow", "cnn", "gru"], "size": [8, 24]},
        },
        trainer_options={"epochs": [4], "lr": [0.05]},
    )


def _wide_spec() -> TuningSpec:
    return TuningSpec(
        payload_options={
            "tokens": {"encoder": ["bow", "cnn", "gru", "lstm"], "size": [8, 24]},
        },
        trainer_options={"epochs": [2], "lr": [0.05]},
    )


def _latency_bound_trial(context, config, seed, budget) -> float:
    """One latency-bound trial: fixed I/O wait + a deterministic score."""
    time.sleep(SIMULATED_TRIAL_IO_S)
    p = config.for_payload("tokens")
    bonus = {"bow": 0.0, "cnn": 0.2, "gru": 0.4, "lstm": 0.6}[p.encoder]
    return bonus + p.size / 100.0


def run_search(seed: int = 0) -> dict[str, list]:
    dataset = _dataset(seed)
    app = Application(dataset.schema)

    grid_result = app.tune(dataset, _spec(), strategy="grid").search
    random_result = app.tune(
        dataset, _spec(), strategy="random", num_trials=3
    ).search

    rows: dict[str, list] = {
        "encoder": [],
        "size": [],
        "dev_score": [],
    }
    for trial in grid_result.trials:
        p = trial.config.for_payload("tokens")
        rows["encoder"].append(p.encoder)
        rows["size"].append(p.size)
        rows["dev_score"].append(round(trial.score, 4))

    summary = {
        "strategy": ["grid (6 trials)", "random (3 trials)"],
        "best_dev_score": [
            round(grid_result.best_score, 4),
            round(random_result.best_score, 4),
        ],
        "best_encoder": [
            grid_result.best_config.for_payload("tokens").encoder,
            random_result.best_config.for_payload("tokens").encoder,
        ],
    }
    return {"trials": rows, "summary": summary}


def run_parallel_speedup(tmp_dir: Path) -> dict:
    spec = _wide_spec()
    candidates = spec.expand()

    serial = TrialExecutor(_latency_bound_trial, workers=1)
    start = time.perf_counter()
    serial_outcomes = serial.evaluate(candidates)
    serial_s = time.perf_counter() - start
    serial.close()

    # Each executor is closed before the next phase is timed, so leaked
    # worker pools never compete with the measurement that follows.
    with TrialExecutor(
        _latency_bound_trial, workers=PARALLEL_WORKERS
    ) as parallel:
        start = time.perf_counter()
        parallel_outcomes = parallel.evaluate(candidates)
        parallel_s = time.perf_counter() - start

    cache = TrialCache(tmp_dir / "trial-cache")
    with TrialExecutor(
        _latency_bound_trial, workers=PARALLEL_WORKERS, cache=cache, namespace="bench"
    ) as cold:
        cold.evaluate(candidates)
    warm = TrialExecutor(
        _latency_bound_trial, workers=PARALLEL_WORKERS, cache=cache, namespace="bench"
    )
    start = time.perf_counter()
    warm.evaluate(candidates)
    warm_s = time.perf_counter() - start
    warm.close()

    return {
        "trials": len(candidates),
        "workers": PARALLEL_WORKERS,
        "trial_io_s": SIMULATED_TRIAL_IO_S,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "warm_cache_s": warm_s,
        "warm_cache_hits": warm.stats.cache_hits,
        "scores_match": [o.score for o in serial_outcomes]
        == [o.score for o in parallel_outcomes],
    }


def run_serial_fidelity() -> dict:
    dataset = _dataset(seed=1, n=160)
    spec = TuningSpec(
        payload_options={"tokens": {"encoder": ["bow", "cnn"]}},
        trainer_options={"epochs": [2], "lr": [0.05]},
    )
    app = Application(dataset.schema, name="bench-tune")
    inline = app.tune(dataset, spec, workers=1).search
    pooled = app.tune(dataset, spec, workers=2).search
    return {
        "inline_scores": [t.score for t in inline.trials],
        "pooled_scores": [t.score for t in pooled.trials],
        "inline_configs": [t.config.to_json() for t in inline.trials],
        "pooled_configs": [t.config.to_json() for t in pooled.trials],
        "inline_best": inline.best_config.to_json(),
        "pooled_best": pooled.best_config.to_json(),
        "inline_best_score": inline.best_score,
        "pooled_best_score": pooled.best_score,
    }


def test_coarse_architecture_search(benchmark):
    out = benchmark.pedantic(run_search, rounds=1, iterations=1)
    print_table("Coarse search: per-candidate dev scores", out["trials"])
    print_table("Coarse search: strategies", out["summary"])

    scores = out["trials"]["dev_score"]
    best, worst = max(scores), min(scores)
    # Shape 1: block choice matters — spread across candidates is real.
    assert best - worst > 0.01, scores
    # Shape 2: the search returns the argmax of its trials.
    assert out["summary"]["best_dev_score"][0] == best
    # Shape 3: half-budget random search lands near the full grid (coarse
    # spaces need no expensive NAS).
    grid_best, random_best = out["summary"]["best_dev_score"]
    assert random_best >= grid_best - 0.05, out["summary"]


def test_parallel_executor_speedup(benchmark, tmp_path):
    out = benchmark.pedantic(
        run_parallel_speedup, args=(tmp_path,), rounds=1, iterations=1
    )
    print_table(
        "Parallel executor: 8 latency-bound trials",
        {
            "path": [
                "serial (1 worker)",
                f"parallel ({out['workers']} workers)",
                "warm cache",
            ],
            "wall_s": [
                round(out["serial_s"], 2),
                round(out["parallel_s"], 2),
                round(out["warm_cache_s"], 2),
            ],
            "speedup": [
                1.0,
                round(out["speedup"], 2),
                round(out["serial_s"] / max(out["warm_cache_s"], 1e-9), 1),
            ],
        },
    )

    # Same trials, same scores, same order — parallelism changes nothing.
    assert out["scores_match"]
    # The tentpole target: >= 2x wall-clock at 4 workers.
    assert out["speedup"] >= 2.0, out
    # A resumed search must re-run nothing.
    assert out["warm_cache_hits"] == out["trials"]
    assert out["warm_cache_s"] < out["serial_s"] / 2

    bench_json = os.environ.get("BENCH_TUNE_JSON")
    if bench_json:
        payload = {k: v for k, v in out.items()}
        Path(bench_json).write_text(json.dumps(payload, indent=2))


def test_tune_workers_1_matches_workers_2(benchmark):
    out = benchmark.pedantic(run_serial_fidelity, rounds=1, iterations=1)
    assert out["inline_scores"] == out["pooled_scores"]
    assert out["inline_configs"] == out["pooled_configs"]
    assert out["inline_best"] == out["pooled_best"]
    assert out["inline_best_score"] == out["pooled_best_score"]
    print(
        f"\nworkers=1 == workers=2: "
        f"{len(out['inline_scores'])} trials, best "
        f"{out['inline_best_score']:.4f}"
    )
