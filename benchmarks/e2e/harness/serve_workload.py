"""The two serve workloads: ``python -m repro serve`` driven over HTTP.

Both run the same generator and the same two phases against the CLI's
defaults (asyncio front, batch 32, 5 ms batch deadline):

* ``single`` — one enveloped payload per POST: batches of one or two, so
  latency is the batch deadline plus the per-request path;
* ``bulk`` — 64 payloads per POST: full batches, a queue four deep.

They differ in where a batch's time goes.  ``serve_light`` serves a
bag-of-words model in-process: the forward is ~1.6 ms per 32-batch and
HTTP parsing, JSON, the asyncio-to-lane bridge, the queue and telemetry
do most of the work.  ``serve_heavy_pool`` serves an LSTM-128 from two
worker processes: the forward is ~7 ms and every batch crosses shared
memory.  A faster forward should move the second and not the first; a
leaner HTTP front the reverse.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from harness import env, loadgen, procs, spans
from harness.metrics import SERVE_PHASES, median

CONNS = 2  # = nproc on the reference host; the generator never exceeds it
BULK_PAYLOADS = 64


@dataclass(frozen=True)
class ServeSizes:
    """What a serve workload trains and serves."""

    name: str
    encoder: str
    size: int
    workers: int
    epochs: int
    scale: int = 500
    pool: int = 160
    # Every start is a set-up sample.  A pool takes 10 s to stop, so stops
    # overlap the next starts; with seven or more pools alive a start takes
    # twice as long (observed, unexplained), so a pool is started five times.
    starts: int = 5

    def quick(self) -> "ServeSizes":
        return ServeSizes(
            self.name, self.encoder, min(self.size, 32), self.workers, 1, 200, 64, 2
        )


SERVE_LIGHT = ServeSizes("serve_light", "bow", 24, workers=0, epochs=2, starts=9)
SERVE_HEAVY_POOL = ServeSizes("serve_heavy_pool", "lstm", 128, workers=2, epochs=1)


def _prepare(sizes: ServeSizes, seed: int, work) -> tuple[loadgen.PayloadPool, dict]:
    info = procs.run_program(
        "prepare_serve.py",
        "--out", str(work),
        "--seed", str(seed),
        "--scale", str(sizes.scale),
        "--encoder", sizes.encoder,
        "--size", str(sizes.size),
        "--epochs", str(sizes.epochs),
        "--pool", str(sizes.pool),
    )
    pool = loadgen.PayloadPool(
        json.loads((work / "payloads.json").read_text()),
        json.loads((work / "reference.json").read_text()),
        CONNS,
    )
    return pool, info


def serve_flags(sizes: ServeSizes, work) -> list[str]:
    return [
        "--artifact", str(work / "artifact"),
        "--workers", str(sizes.workers),
        "--port", "0",
        "--warmup", str(work / "warmup.json"),
    ]


def _cli_server(sizes: ServeSizes, work) -> procs.Server:
    return procs.Server(
        [sys.executable, "-m", "repro", "serve", *serve_flags(sizes, work)]
    )


def _finish_probe(probe: procs.Server) -> list[str]:
    """A set-up probe's hygiene violations.

    ``/healthz`` answers before the CLI's main thread is inside the ``try``
    that catches its SIGTERM handler's ``KeyboardInterrupt``; a server
    stopped in that gap exits by traceback (a finding, see README).  A
    probe idles through the next server's whole start before its SIGTERM,
    so it should never be caught there; if one is, its set-up sample
    stands and its exit code is the program's known defect, not a failure
    of this run.
    """
    problems = probe.finish()
    if any("KeyboardInterrupt" in line for line in probe.child.lines):
        problems = [p for p in problems if not p.startswith("server exited with")]
    return problems


def _phases(seconds: float, warmup_s: float) -> list[loadgen.PhaseSpec]:
    return [
        loadgen.PhaseSpec("single", 1, seconds / 2, warmup_s),
        loadgen.PhaseSpec("bulk", BULK_PAYLOADS, seconds / 2, warmup_s),
    ]


def _drive(server, pool, phases, seed) -> dict[str, loadgen.PhaseLog]:
    logs = {}
    for spec in phases:
        log = loadgen.run_phase(server.port, pool, spec, seed)
        loadgen.verify(log, pool)
        logs[spec.name] = log
    return logs


def _shed_count(telemetry: dict) -> int:
    return sum(n for reasons in telemetry["sheds"].values() for n in reasons.values())


def run_untraced(sizes: ServeSizes, seed: int, seconds: float, work) -> dict:
    """The end-to-end numbers: the real CLI process, no wrapper anywhere."""
    pool, prepared = _prepare(sizes, seed, work)
    warmup_s = min(1.0, seconds / 8)
    # Set-up is measured on every start; the last server takes the load.
    # Each earlier one (a probe) is stopped once its successor is up, and
    # its exit, which takes a pool ten seconds, overlaps what follows.
    servers: list[procs.Server] = []
    try:
        for _ in range(sizes.starts):
            servers.append(_cli_server(sizes, work))
            if len(servers) > 1:
                servers[-2].terminate()
        *probes, server = servers
        logs = _drive(server, pool, _phases(seconds, warmup_s), seed)
        peak_rss_mb = server.child.peak_rss_mb()
        status, body = server.get("/telemetry")
        sheds = _shed_count(json.loads(body)) if status == 200 else 1
        # The generator's connections are closed; now the rolling restart.
        server.terminate()
        problems = [p for probe in probes for p in _finish_probe(probe)]
        problems += server.finish()
    finally:
        for s in servers:
            s.child.kill_group()
    stats = {name: loadgen.summarize(log) for name, log in logs.items()}
    setup_s = median(s.setup_s for s in servers)
    shutdown_s = median(s.shutdown_s or procs.STOP_TIMEOUT_S for s in servers)
    attempted = sum(s["posts"] for s in stats.values()) + len(servers)
    failed = sum(s["failed"] for s in stats.values()) + len(problems) + sheds
    return {
        "attempted": attempted,
        "failed": failed,
        "values": {
            "short_p50_ms": stats["single"]["p50_ms"],
            "long_items_per_s": stats["bulk"]["payloads_per_s"],
            "long_tail_ms": stats["bulk"]["tail_ms"],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "notes": {
            "prepare_s": prepared["prepare_s"],
            "shutdown_s": shutdown_s,
            "setup_samples_s": [s.setup_s for s in servers],
            "serve_flags": serve_flags(sizes, work),
            "phases": stats,
            "problems": problems,
            "sheds": sheds,
        },
    }


def run_traced(sizes: ServeSizes, seed: int, seconds: float, work) -> dict:
    """The per-layer ledger: a short untraced reference, then the traced server."""
    pool, prepared = _prepare(sizes, seed, work)
    warmup_s = min(1.0, seconds / 8)
    share = seconds / 4
    problems = []

    reference = _cli_server(sizes, work)
    try:
        bulk = loadgen.PhaseSpec("bulk", BULK_PAYLOADS, share, warmup_s)
        untraced = _drive(reference, pool, [bulk], seed)["bulk"]
        problems += reference.stop()
    finally:
        reference.child.kill_group()

    spans_path = work / "server_spans.json"
    server = procs.Server(
        [
            sys.executable, str(env.PROGRAMS / "traced_server.py"),
            "--artifact", str(work / "artifact"),
            "--workers", str(sizes.workers),
            "--warmup", str(work / "warmup.json"),
            "--spans-out", str(spans_path),
        ],
        stdin=True,
    )
    try:
        logs = _drive(server, pool, _phases(2 * share, warmup_s), seed)
        windows = {name: log.window for name, log in logs.items()}
        status, body = server.get("/telemetry")
        telemetry = json.loads(body)
        server.child.send("microloops " + json.dumps(windows))
        while (line := server.child.next_line(timeout=150)) != "microloops done":
            if line is None:
                raise RuntimeError("traced server died in its microloops")
        problems += server.stop()
    finally:
        server.child.kill_group()

    trace = json.loads(spans_path.read_text())
    server_spans = trace["spans"]
    posts = [p for log in logs.values() for p in log.posts]
    for seq, post in enumerate(posts):
        post["seq"] = seq
    values = spans.reduce_serve(
        server_spans, posts, windows, pool.conn_of, trace["max_batch"], trace["pooled"]
    )
    values["deploy.artifact.load_s"] = trace["artifact_load_s"]
    values["serve.pool.build_s"] = trace["pool_build_s"]
    values["serve.pool.warmup_s"] = trace["pool_warmup_s"]
    # The CLI server's, after it took the reference load: connections
    # closed -> SIGTERM -> process exit.  A killed server counts the timeout.
    values["serve.pool.shutdown_s"] = reference.shutdown_s or procs.STOP_TIMEOUT_S
    values["serve.gateway.shed_count"] = float(_shed_count(telemetry))
    values["serve.gateway.latency_p99_ms"] = max(
        tier["p99_s"] for tier in telemetry["telemetry"]["tiers"].values()
    ) * 1e3
    if trace["pooled"]:
        values.update(
            spans.reduce_pool(
                server_spans, trace["shm_bytes_per_batch"], telemetry["workers"]
            )
        )
    notes = {"prepare_s": prepared["prepare_s"], "problems": problems}
    if not trace["pooled"]:
        # In-process, a batch's stages must account for its serve span to
        # within 10%, or the ledger has lost a stage.
        notes["stage_sum_share"] = {
            phase: spans.stage_sum_share(server_spans, windows[phase])
            for phase in SERVE_PHASES
        }
        problems += [
            f"{phase}: stages cover {share:.2f} of replica.serve"
            for phase, share in notes["stage_sum_share"].items()
            if not 0.9 <= share <= 1.1
        ]
    stats = {name: loadgen.summarize(log) for name, log in logs.items()}
    for phase in SERVE_PHASES:
        # The client's tail through the traced server: a diagnostic.
        values[f"serve.http.post_tail_ms.{phase}"] = stats[phase]["tail_ms"]
    stats["reference"] = loadgen.summarize(untraced)
    values["trace.overhead_share"] = (
        1.0 - stats["bulk"]["payloads_per_s"] / stats["reference"]["payloads_per_s"]
    )
    return {
        "attempted": sum(s["posts"] for s in stats.values()) + 2,
        "failed": sum(s["failed"] for s in stats.values()) + len(problems),
        "values": values,
        "notes": notes,
    }
