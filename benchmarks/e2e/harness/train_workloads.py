"""The ``fit`` and ``tune`` workloads: the public ``Application`` calls.

The training-side partners of the serve workloads.  ``fit`` is where the
taped ``tensor``/``nn`` path, ``EncodedDataset``, per-epoch evaluation and
``supervision.combine`` spend an engineer's time, so a tape-free forward
gain that slows the taped path shows here.  ``tune`` is process fan-out,
context shipping and cache keying (``exec.executor`` / ``exec.cache`` /
``tuning.search``): cold writes the cache, warm only reads it.

The program runs in a child (``programs/fit.py`` / ``programs/tune.py``)
so that set-up and peak memory are a whole process's, measured
from outside like the server's.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

from harness import env, procs, spans
from harness.metrics import median, tail


@dataclass(frozen=True)
class FitSizes:
    """``synth-medium`` at 60/20/20 train/dev/test; bow-24 and LSTM-64."""

    scale: int = 800
    epochs: int = 3
    short_size: int = 24
    long_size: int = 64
    # synth-medium at these sizes scores 0.84-0.95 on dev; a fit that lands
    # below the floor trained something else.
    dev_floor: float = 0.7
    starts: int = 15  # every start is a set-up sample

    def quick(self) -> "FitSizes":
        # Two epochs on 180 records reach 0.45-0.7.
        return FitSizes(scale=300, epochs=2, short_size=16, long_size=16,
                        dev_floor=0.3, starts=2)

    def argv(self) -> list[str]:
        return [
            "--scale", str(self.scale),
            "--epochs", str(self.epochs),
            "--short-size", str(self.short_size),
            "--long-size", str(self.long_size),
        ]


@dataclass(frozen=True)
class TuneSizes:
    """A grid of ``encoders`` x ``sizes`` on ``synth-medium``, 2 workers."""

    scale: int = 400
    epochs: int = 3
    encoders: str = "bow,cnn,gru,lstm"
    sizes: str = "16,32"
    starts: int = 15

    def quick(self) -> "TuneSizes":
        return TuneSizes(scale=200, epochs=1, encoders="bow,cnn", sizes="16", starts=2)

    def argv(self) -> list[str]:
        return [
            "--scale", str(self.scale),
            "--epochs", str(self.epochs),
            "--encoders", self.encoders,
            "--sizes", self.sizes,
        ]


def _launch(script: str, argv: list[str]) -> tuple[procs.Child, float]:
    """Start a program; returns it with spawn-to-``ready`` seconds."""
    child = procs.Child([sys.executable, str(env.PROGRAMS / script), *argv])
    try:
        event = child.next_json(timeout=120)
        if event.get("event") != "ready":
            raise RuntimeError(f"{script} said {event} before it was ready")
    except BaseException:
        child.kill_group()
        raise
    return child, time.perf_counter() - child.spawned_at


def _run(script: str, argv: list[str], starts: int, seconds: float) -> dict:
    """Set-up probes, then the measured child; returns its events and times."""
    setups = []
    for _ in range(starts - 1):
        probe, setup_s = _launch(script, argv + ["--setup-only"])
        setups.append(setup_s)
        if not probe.wait_exit(60):
            probe.kill_group()
            raise RuntimeError(f"{script} --setup-only did not exit")
    child, setup_s = _launch(script, argv + ["--seconds", str(seconds)])
    setups.append(setup_s)
    events = []
    try:
        while True:
            event = child.next_json(timeout=170)
            events.append(event)
            if event["event"] == "done":
                break
        exited = child.wait_exit(procs.STOP_TIMEOUT_S)
    finally:
        if child.exited_at is None:
            child.kill_group()
    problems = []
    if not exited:
        problems.append(f"{script} still alive {procs.STOP_TIMEOUT_S}s after its last result")
    elif child.proc.returncode != 0:
        problems.append(f"{script} exited with {child.proc.returncode}")
    if child.group_pids():
        problems.append(f"{script} left processes behind: {child.group_pids()}")
        child.kill_group()
    return {
        "events": events,
        "setup_s": median(setups),
        "setup_samples_s": setups,
        "problems": problems,
    }


def _values(ran: dict, bad_ops: int, extra_checks: int = 0) -> dict:
    ops = [e for e in ran["events"] if e["event"] == "op"]
    short = [e["s"] * 1e3 for e in ops if e["op"] == "short"]
    long_ops = [e for e in ops if e["op"] == "long"]
    (done,) = [e for e in ran["events"] if e["event"] == "done"]
    return {
        "attempted": len(ops) + extra_checks + 1,
        "failed": bad_ops + len(ran["problems"]),
        "values": {
            "short_p50_ms": median(short),
            "long_items_per_s": sum(e["items"] for e in long_ops)
            / sum(e["s"] for e in long_ops),
            "long_tail_ms": tail([e["s"] * 1e3 for e in long_ops]),
            "setup_s": ran["setup_s"],
            "peak_rss_mb": done["peak_rss_kb"] / 1024.0,
        },
        "notes": {
            "repeats": len(long_ops),
            "setup_samples_s": ran["setup_samples_s"],
            "short_s": [e["s"] for e in ops if e["op"] == "short"],
            "long_s": [e["s"] for e in long_ops],
            "problems": ran["problems"],
        },
    }


def run_fit(sizes: FitSizes, seed: int, seconds: float, work) -> dict:
    ran = _run("fit.py", ["--seed", str(seed), *sizes.argv()], sizes.starts, seconds)
    # Every repeat of a kind must be bit-identical to the first (the
    # untimed warm-up included) and score above the floor on dev.
    first: dict[str, list] = {}
    bad = 0
    for event in ran["events"]:
        if event["event"] in ("warmup", "op"):
            same = first.setdefault(event["op"], event["digest"]) == event["digest"]
            if event["event"] == "op" and not (same and event["dev"] >= sizes.dev_floor):
                bad += 1
    return _values(ran, bad)


def run_tune(sizes: TuneSizes, seed: int, seconds: float, work) -> dict:
    argv = ["--seed", str(seed), *sizes.argv(), "--cache-root", str(work / "tune-cache")]
    ran = _run("tune.py", argv, sizes.starts, seconds)
    bad = sum(1 for e in ran["events"] if e["event"] == "op" and not e["ok"])
    (cache,) = [e for e in ran["events"] if e["event"] == "cache"]
    bad += cache["hits"] != cache["trials"]
    return _values(ran, bad, extra_checks=1)


def run_fit_traced(sizes: FitSizes, seed: int, seconds: float, work) -> dict:
    path = work / "fit_spans.json"
    replay = procs.run_program(
        "fit.py", "--seed", str(seed), *sizes.argv(), "--trace", "--spans-out", str(path)
    )
    values = spans.reduce_fit(json.loads(path.read_text())["spans"])
    values["workloads.synth.generate_s"] = replay["generate_s"]
    values["trace.overhead_share"] = (
        (replay["replay_s"] - replay["untraced_s"]) / replay["untraced_s"]
    )
    ok = replay["identical"] and replay["dev"] >= sizes.dev_floor
    return {
        "attempted": 2,
        "failed": 0 if ok else 1,
        "values": values,
        "notes": {"replay_identical": replay["identical"],
                  "untraced_fit_s": replay["untraced_s"],
                  "replay_s": replay["replay_s"]},
    }


def run_tune_traced(sizes: TuneSizes, seed: int, seconds: float, work) -> dict:
    path = work / "tune_spans.json"
    procs.run_program(
        "tune.py", "--seed", str(seed), *sizes.argv(),
        "--cache-root", str(work / "tune-cache"),
        "--trace", "--spans-out", str(path),
    )
    trace = json.loads(path.read_text())

    def took(name: str, phase: str) -> float:
        (span,) = [
            s for s in trace["spans"] if s["name"] == name and s.get("phase") == phase
        ]
        return span["end"] - span["start"]

    cold, warm = trace["cold_stats"], trace["warm_stats"]
    (cold_span,) = spans.durations(trace["spans"], "tune.cold")
    values = {
        "exec.executor.build_s": took("executor.build", "cold"),
        "exec.executor.cold_evaluate_s": took("executor.evaluate", "cold"),
        "exec.executor.warm_evaluate_s": took("executor.evaluate", "warm"),
        "exec.executor.close_s": took("executor.close", "cold"),
        "api.application.refit_s": took("application.refit", "cold"),
        "exec.executor.parallel_efficiency": cold["total_duration_s"]
        / (trace["workers"] * took("executor.evaluate", "cold")),
        "exec.executor.trials_executed": float(cold["executed"]),
        "exec.cache.hit_share": warm["cache_hits"] / warm["dispatched"],
        "trace.overhead_share": (cold_span - trace["untraced_cold_s"])
        / trace["untraced_cold_s"],
    }
    ok = warm["cache_hits"] == warm["dispatched"] and warm["executed"] == 0
    return {"attempted": 2, "failed": 0 if ok else 1, "values": values, "notes": {}}
