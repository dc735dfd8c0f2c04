"""Parallel tuning: fan a coarse architecture search across worker processes.

The paper's promise is that engineers never hand-tune models — Overton
runs the search over "relatively limited large blocks" (§4).  This example
drives that search through the :mod:`repro.exec` parallel experiment
executor:

1. declare a tuning spec — encoder blocks x learning rates — next to the
   application spec;
2. ``app.tune(dataset, spec, workers=4)`` trains candidates in a process
   pool; trial order, scores, and the winning model are identical to
   ``workers=1`` because every trial is deterministic;
3. the coverage report shows exactly which block values the search
   exercised and which value won each block;
4. re-running the same search against a trial cache directory skips every
   completed trial — resume-from-cache is just "run it again".

Run:  python examples/parallel_tuning.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import TuningSpec
from repro.api import Application
from repro.exec import coverage_report
from repro.workloads import (
    FactoidGenerator,
    WorkloadConfig,
    apply_standard_weak_supervision,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. An application plus the search space its engineers declared.
    # ------------------------------------------------------------------
    dataset = FactoidGenerator(WorkloadConfig(n=120, seed=0)).generate()
    apply_standard_weak_supervision(dataset.records, seed=0)
    app = Application(dataset.schema, name="factoid-qa")
    spec = TuningSpec(
        payload_options={"tokens": {"encoder": ["bow", "cnn"], "size": [8, 16]}},
        trainer_options={"epochs": [2], "lr": [0.05]},
    )
    print(f"search space: {spec.size()} candidate configs")

    # ------------------------------------------------------------------
    # 2. The parallel search: trials run in worker processes, the trial
    #    log comes back in deterministic candidate order.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "trial-cache"
        executor = app.tuning_executor(dataset, workers=4, cache_dir=cache_dir)
        start = time.perf_counter()
        try:
            run = app.tune(dataset, spec, executor=executor)
        finally:
            executor.close()  # release the worker pool promptly
        elapsed = time.perf_counter() - start
        search = run.search
        print(
            f"tuned in {elapsed:.1f}s with 4 workers: "
            f"{executor.stats.executed} trials trained, "
            f"{executor.stats.cache_hits} cache hits"
        )
        best = search.best_config.for_payload("tokens")
        print(
            f"best: encoder={best.encoder} size={best.size} "
            f"dev score {search.best_score:.4f}"
        )

        # --------------------------------------------------------------
        # 3. Coverage: which blocks did the search actually exercise?
        # --------------------------------------------------------------
        print()
        print(coverage_report(spec, search.trials).render())

        # --------------------------------------------------------------
        # 4. Resume-from-cache: the same search again costs nothing —
        #    every trial short-circuits to its recorded score.
        # --------------------------------------------------------------
        resumed = app.tuning_executor(dataset, workers=4, cache_dir=cache_dir)
        start = time.perf_counter()
        try:
            rerun = app.tune(dataset, spec, executor=resumed)
        finally:
            resumed.close()
        elapsed = time.perf_counter() - start
        print(
            f"\nresumed search in {elapsed:.1f}s: "
            f"{resumed.stats.cache_hits}/{rerun.search.num_trials} trials "
            f"from cache, {resumed.stats.executed} re-trained"
        )
        assert resumed.stats.executed == 0
        assert rerun.search.best_config == search.best_config
        print("resume reproduced the same winner without re-training a trial")


if __name__ == "__main__":
    main()
