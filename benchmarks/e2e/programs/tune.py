"""The ``tune`` workload's program: ``Application.tune`` through the public API.

Each repeat runs a grid search on one fresh cache directory, cold and
then warm: the long operation is the cold run (worker processes fan out,
every trial trains, the cache is written), the short one the warm re-run
(every trial is a cache read; only the winner's refit trains).  The warm
run must return the cold run's trial scores and best config.

``--trace`` times the pieces ``Application.tune`` is made of —
``tuning_executor``, ``grid_search(spec, executor=...)``,
``executor.close`` and the refit — separately, under spans.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness.spans import Tracer  # noqa: E402
from programs.fit import emit, peak_rss_kb  # noqa: E402

from repro.core import TuningSpec  # noqa: E402
from repro.tuning import grid_search  # noqa: E402
from repro.workloads import resolve_workload  # noqa: E402

MIN_REPEATS = 3
WORKERS = 2
# A warm re-run is a sixth of a cold one and as noisy: sample it twice.
WARM_PER_COLD = 2


def search_outcome(search) -> list:
    """Trial scores in order plus the winner: what warm must reproduce."""
    return [t.score.hex() for t in search.trials] + [search.best_config.to_json()]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--encoders", required=True)
    parser.add_argument("--sizes", required=True)
    parser.add_argument("--cache-root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    built = resolve_workload("synth-medium", scale=args.scale, seed=args.seed)
    app, dataset = built.application, built.dataset
    emit(event="ready")
    if args.setup_only:
        return 0

    spec = TuningSpec(
        payload_options={
            "tokens": {
                "encoder": args.encoders.split(","),
                "size": [int(s) for s in args.sizes.split(",")],
            }
        },
        trainer_options={"epochs": [args.epochs], "lr": [0.05]},
    )
    trials = spec.size()
    cache_root = Path(args.cache_root)
    caches = iter(cache_root / f"cache-{n}" for n in range(10_000))

    def timed_tune(cache_dir) -> tuple[float, list]:
        begin = time.perf_counter()
        run = app.tune(dataset, spec, workers=WORKERS, cache_dir=cache_dir)
        return time.perf_counter() - begin, search_outcome(run.search)

    def cache_hits(cache_dir) -> int:
        """Warm trials answered from the cache, by the executor's count."""
        with app.tuning_executor(dataset, workers=WORKERS, cache_dir=cache_dir) as ex:
            grid_search(spec, executor=ex)
            return ex.stats.cache_hits

    cache_dir = next(caches)
    timed_tune(cache_dir)  # untimed warm-up: pool start-up paths, imports
    timed_tune(cache_dir)

    if args.trace:
        cache_dir = next(caches)
        untraced_s, _ = timed_tune(cache_dir)
        tracer = Tracer()
        meta = {"untraced_cold_s": untraced_s, "workers": WORKERS}
        cache_dir = next(caches)
        for phase in ("cold", "warm"):  # warm re-runs on the cache cold wrote
            with tracer.span(f"tune.{phase}"):
                with tracer.span("executor.build", phase=phase):
                    executor = app.tuning_executor(
                        dataset, workers=WORKERS, cache_dir=cache_dir
                    )
                with tracer.span("executor.evaluate", phase=phase):
                    search = grid_search(spec, executor=executor)
                with tracer.span("executor.close", phase=phase):
                    executor.close()
                with tracer.span("application.refit", phase=phase):
                    app.fit(dataset, search.best_config)
            meta[f"{phase}_stats"] = executor.stats.to_dict()
        tracer.dump(args.spans_out, **meta)
        emit(event="traced")
        shutil.rmtree(cache_root, ignore_errors=True)
        return 0

    spent, repeats = 0.0, 0
    while spent < args.seconds or repeats < MIN_REPEATS:
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir = next(caches)
        cold_s, cold = timed_tune(cache_dir)
        spent += cold_s
        repeats += 1
        emit(event="op", op="long", s=cold_s, items=trials, ok=True)
        for _ in range(WARM_PER_COLD):
            warm_s, warm = timed_tune(cache_dir)
            spent += warm_s
            emit(event="op", op="short", s=warm_s, items=trials, ok=warm == cold)
    hits = cache_hits(cache_dir)
    emit(event="cache", hits=hits, trials=trials)
    emit(event="done", peak_rss_kb=peak_rss_kb())
    shutil.rmtree(cache_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
