#!/usr/bin/env python3
"""The repo benchmark's single entry point.

    python3 benchmarks/e2e/run.py --workload serve_light --seed 0 \\
        --seconds 20 --trace 0      # one workload, end-to-end metrics
    python3 benchmarks/e2e/run.py --workload fit --seed 0 --seconds 20 \\
        --trace 1                   # the same workload's per-layer ledger
    python3 benchmarks/e2e/run.py   # all four workloads, both runs, one table
    python3 benchmarks/e2e/run.py --sets 10   # noise calibration
    python3 benchmarks/e2e/run.py --quick     # a seconds-long smoke

With ``--workload`` the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import env, metrics  # noqa: E402

DEFAULT_SECONDS = 20.0
QUICK_SECONDS = 2.0


def _workloads(quick: bool) -> dict:
    """``name -> (untraced, traced, sizes)``; imported late, after pinning."""
    from harness import serve_workload as serve
    from harness import train_workloads as train

    table = {
        "serve_light": (serve.run_untraced, serve.run_traced, serve.SERVE_LIGHT),
        "serve_heavy_pool": (serve.run_untraced, serve.run_traced, serve.SERVE_HEAVY_POOL),
        "fit": (train.run_fit, train.run_fit_traced, train.FitSizes()),
        "tune": (train.run_tune, train.run_tune_traced, train.TuneSizes()),
    }
    if quick:
        table = {k: (u, t, sizes.quick()) for k, (u, t, sizes) in table.items()}
    return table


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One run of one workload; returns the result with its host stamp."""
    untraced, traced, sizes = _workloads(quick)[name]
    work = env.WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = (traced if trace else untraced)(sizes, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    build = metrics.per_layer_result if trace else metrics.end_to_end_result
    result["metrics"] = build(result.pop("values"))
    for name_, entry in result["metrics"].items():
        if not math.isfinite(entry["value"]):
            raise RuntimeError(f"metric {name_} is not a finite number")
    result["correct"] = result["failed"] == 0
    result["stamp"] = env.host_stamp(
        seed, {"workload": name, "seconds": seconds, "trace": int(trace), "sizes": repr(sizes)}
    )
    return result


def print_result(result: dict) -> None:
    print("# " + json.dumps(result["stamp"]))
    for name, entry in result["metrics"].items():
        print(f"{name:45s} {entry['value']:.6g} {entry['unit']}")
    print("# notes " + json.dumps(result["notes"], default=repr))
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")


def final_line(result: dict) -> str:
    return json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def run_all(seed: int, seconds: float, quick: bool) -> int:
    """Every workload, untraced then traced; every metric by name and unit."""
    failed = 0
    for name in _workloads(quick):
        for trace in (False, True):
            print(f"\n== {name} ({'traced: per-layer' if trace else 'untraced: end-to-end'}) ==")
            result = run_one(name, seed, seconds, trace, quick)
            print_result(result)
            failed += result["failed"]
    return 1 if failed else 0


MAX_BOUND = 0.25  # the driver's contract allows none larger


def derived_bound(spread: float) -> float:
    """max(0.10, 3 x spread), rounded up to 0.05; not capped.

    The issue's rule is 2 x spread; the driver's contract wants a spread
    under a third of the bound, which is stricter.  A result above
    ``MAX_BOUND`` means the metric cannot hold any bound the contract
    allows on this host: the table marks it.
    """
    return max(0.10, math.ceil(3 * spread / 0.05 - 1e-9) * 0.05)


def calibrate(sets: int, seed: int, seconds: float, quick: bool) -> int:
    """``sets`` full sets of untraced runs, each set on another seed.

    Every run is a fresh process of this entry point, as the driver makes
    it.  Prints median, quartiles, range and the driver's spread (quartile
    distance over median) per end-to-end metric, the bound the spread
    would justify (``!`` where that is more than the contract allows, ``>``
    where the spread alone is) and every run's value.
    """
    names = list(_workloads(quick))
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for n in range(sets):
        for name in names:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed + n),
                    "--seconds", str(seconds), "--trace", "0"] + ["--quick"] * quick
            done = subprocess.run(argv, cwd=env.ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                raise RuntimeError(f"{name} seed {seed + n} failed:\n{done.stdout}\n{done.stderr}")
            runs[name].append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"# set {n} {name} done", file=sys.stderr, flush=True)
    print("| workload | metric | unit | median | q1 | q3 | (max-min)/median | spread "
          "| derived bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name in names:
        for metric, unit in metrics.END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = metrics.spread(values)
            bound = derived_bound(spread)
            mark = ">" if spread > MAX_BOUND else "!" if bound > MAX_BOUND + 1e-9 else ""
            print(
                f"| {name} | {metric} | {unit} | {mid:.5g} | {q1:.5g} | {q3:.5g} "
                f"| {(max(values) - min(values)) / mid:.3f} | {spread:.3f} "
                f"| {bound:.2f}{mark} |"
            )
            print("# runs: " + " ".join(f"{v:.5g}" for v in values))
    return 1 if any(r["failed"] for rs in runs.values() for r in rs) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["serve_light", "serve_heavy_pool", "fit", "tune"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--sets", type=int, default=0)
    args = parser.parse_args()
    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)

    env.require_program()
    env.pin_blas()
    # The "build": byte-compile the program once so set-up times a warm import.
    compileall.compile_dir(str(env.SRC), quiet=2)
    env.WORK.mkdir(exist_ok=True)

    if args.sets:
        return calibrate(args.sets, args.seed, seconds, args.quick)
    if args.workload is None:
        return run_all(args.seed, seconds, args.quick)
    result = run_one(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    print_result(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
