#!/usr/bin/env python
"""Paired parent-vs-change runs of the repo benchmark, with a verdict.

    python tools/bench_pairs.py <parent-checkout> <change-checkout> \\
        --workload serve_light --pairs 10 --seed 1000

``--workload`` also takes a comma-separated list, or ``all`` for every
workload ``BENCHMARK.json`` declares: the workloads run one after another,
each with its own pairs, and each prints its own verdict table.

This host drifts 15-30% between a fast and a slow regime over minutes, so
two medians taken apart prove nothing.  This tool runs
``benchmarks/e2e/run.py`` in each checkout back to back, pair by pair,
alternating which side goes first, each pair on a fresh seed, and prints
for every metric: each side's median and quartiles, the pairs each side
won, whether the change's median stays within the benchmark's regression
bound, and the verdict of the choosing-metrics rule — a side is *better*
only if it wins at least nine tenths of the pairs (ties count for
neither) **and** the medians differ by more than the distance between the
parent's own quartiles; anything else is *unresolved*.

It exits 1 when the change fails the acceptance rule on any workload: a
median outside a metric's bound, a *worse* verdict, or a larger share of
failed operations (failed over attempted, summed over the runs).

It only invokes the benchmark (each checkout's own copy, on its own
``BENCHMARK.json``); every run's values are printed as they finish, so a
report can quote all of them.  ``--trace 1`` compares the per-layer
ledger the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # choosing-metrics section 8


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``; its final JSON line."""
    argv = [
        sys.executable, "benchmarks/e2e/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's row: medians, quartiles, pairs won, bound, verdict."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    p_q1, p_mid, p_q3 = quartiles(parent)
    c_q1, c_mid, c_q3 = quartiles(change)
    gain = (p_mid - c_mid) if lower else (c_mid - p_mid)  # > 0: change better
    resolved = abs(gain) > (p_q3 - p_q1)
    needed = WIN_SHARE * len(parent)
    if resolved and gain > 0 and wins >= needed:
        verdict = "better"
    elif resolved and gain < 0 and losses >= needed:
        verdict = "worse"
    else:
        verdict = "unresolved"
    bound = metric.get("bound")  # layer metrics hold none
    within = None
    if bound is not None and p_mid:
        within = -gain / abs(p_mid) <= bound
    return {
        "name": metric["name"], "unit": metric["unit"], "better": metric["better"],
        "parent": (p_q1, p_mid, p_q3), "change": (c_q1, c_mid, c_q3),
        "wins": wins, "losses": losses, "pairs": len(parent),
        "shift": (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0,
        "within_bound": within, "verdict": verdict,
    }


def render(rows: list[dict]) -> str:
    lines = [
        "| metric | unit | better | parent median (q1-q3) | change median (q1-q3) "
        "| median shift | pairs won/lost | within bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        p_q1, p_mid, p_q3 = row["parent"]
        c_q1, c_mid, c_q3 = row["change"]
        within = {None: "-", True: "yes", False: "NO"}[row["within_bound"]]
        lines.append(
            f"| {row['name']} | {row['unit']} | {row['better']} "
            f"| {p_mid:.5g} ({p_q1:.5g}-{p_q3:.5g}) "
            f"| {c_mid:.5g} ({c_q1:.5g}-{c_q3:.5g}) "
            f"| {row['shift']:+.1%} "
            f"| {row['wins']}/{row['losses']} of {row['pairs']} "
            f"| {within} | {row['verdict']} |"
        )
    return "\n".join(lines)


def parse_workloads(arg: str, spec: dict) -> list[str]:
    """``a,b`` or ``all`` as workload names, each checked against the spec."""
    declared = [w["name"] for w in spec["workloads"]]
    names = declared if arg == "all" else [n.strip() for n in arg.split(",") if n.strip()]
    unknown = [n for n in names if n not in declared]
    if unknown or not names:
        raise SystemExit(f"unknown workload(s) {unknown}; BENCHMARK.json declares {declared}")
    return names


def run_pairs(
    sides: dict[str, Path], workload: str, metrics: list[dict],
    pairs: int, first_seed: int, seconds: float, trace: int,
) -> tuple[list[dict], dict[str, list[int]]]:
    """One workload's alternating pairs: its verdict rows and, per side,
    the operations failed and attempted over all runs."""
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    ops = {side: [0, 0] for side in sides}
    for pair in range(pairs):
        seed = first_seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], workload, seed, seconds, trace)
            ops[side][0] += result["failed"]
            ops[side][1] += result["attempted"]
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            shown = "  ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                for m in metrics
            )
            print(
                f"# {workload} pair {pair} seed {seed} {side:6s} "
                f"failed={result['failed']} {shown}",
                flush=True,
            )
    rows = [
        compare(m, values["parent"][m["name"]], values["change"][m["name"]])
        for m in metrics
    ]
    return rows, ops


def failed_share(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else float(failed > 0)


def regressed(rows: list[dict], ops: dict[str, list[int]]) -> bool:
    """Whether the change fails the acceptance rule on this workload."""
    return (
        any(row["within_bound"] is False or row["verdict"] == "worse" for row in rows)
        or failed_share(*ops["change"]) > failed_share(*ops["parent"])
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        help="one name, a comma-separated list, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="first pair's seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or float(spec["run_seconds"])
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    worse = False
    for workload in parse_workloads(args.workload, spec):
        rows, ops = run_pairs(
            sides, workload, metrics, args.pairs, args.seed, seconds, args.trace
        )
        print(f"\n## {workload}: {args.pairs} alternating pairs, seeds "
              f"{args.seed}-{args.seed + args.pairs - 1}, {seconds:g} s, trace {args.trace}")
        print(render(rows))
        shares = ", ".join(
            f"{side} {ops[side][0]}/{ops[side][1]} ({failed_share(*ops[side]):.3%})"
            for side in ("parent", "change")
        )
        print(f"# failed operations: {shares}\n", flush=True)
        worse = regressed(rows, ops) or worse
    if args.pairs < 10:
        print("# fewer than ten pairs: the rule asks for ten, read the verdicts as a hint")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
