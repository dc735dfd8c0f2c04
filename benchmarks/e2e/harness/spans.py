"""Spans recorded from the benchmark's own files, and their reduction.

A span is a dict ``{id, name, start, end, parent, **attrs}`` on the
``time.perf_counter`` clock, which on Linux is the system-wide monotonic
clock: the load generator's spans and the traced server's spans share one
time line.  Spans stay in memory and are written once, at exit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from harness.metrics import SERVE_PHASES, median


def fingerprint(payload: dict) -> str:
    """A payload's identity on both sides of the wire.

    The load generator and the traced server compute it from the same
    JSON value, so a list POST's first payload says which one it was.
    """
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


class Tracer:
    """An in-memory span recorder; ``list.append`` keeps it thread-safe."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """A root span whose times the caller took itself."""
        self.spans.append(
            {"id": next(self._ids), "name": name, "start": start, "end": end,
             "parent": None, **attrs}
        )

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, **attrs}
            )

    def wrap(self, fn, name: str):
        """``fn`` timed as a child of whatever span its thread has open."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path, **meta) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **meta}, handle)


# ----------------------------------------------------------------------
# Generic reduction
# ----------------------------------------------------------------------
def covered(intervals, low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children[span["id"]], span["start"], span["end"])
        for span in spans
    }


def durations(spans, name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def in_window(spans, window) -> list[dict]:
    """Spans that *started* inside ``window`` — the per-phase grouping."""
    low, high = window
    return [s for s in spans if low <= s["start"] < high]


# ----------------------------------------------------------------------
# The serve ledger
# ----------------------------------------------------------------------
def match_posts(posts, submits, conn_of) -> dict[int, list[dict]]:
    """Pair each client POST with the ``gateway.submit`` spans it caused.

    An enveloped POST carries its ``request_id`` into ``submit_async``.  A
    list POST has no id, but the front submits its payloads back to back
    (the wrapper numbers such runs as ``group``) and each connection draws
    from its own slice of the payload pool, so the run's first payload
    names the connection (``conn_of`` maps its fingerprint to one) and runs
    pair with that connection's list POSTs in order.  Returns
    ``{post["seq"]: [submit spans]}``.
    """
    groups: dict[int, list[dict]] = defaultdict(list)
    for span in submits:
        groups[span["group"]].append(span)
    by_request_id = {}
    by_conn: dict[int, list[list[dict]]] = defaultdict(list)
    for group in sorted(groups):
        members = groups[group]
        first = members[0]
        if first.get("request_id") is not None:
            by_request_id[first["request_id"]] = members
        else:
            by_conn[conn_of[first["fp"]]].append(members)
    matched: dict[int, list[dict]] = {}
    list_posts: dict[int, list[dict]] = defaultdict(list)
    for post in sorted(posts, key=lambda p: p["t_send"]):
        if post.get("request_id") is not None:
            if post["request_id"] in by_request_id:
                matched[post["seq"]] = by_request_id[post["request_id"]]
        else:
            list_posts[post["conn"]].append(post)
    for conn, conn_posts in list_posts.items():
        runs = by_conn.get(conn, [])
        if len(runs) != len(conn_posts):
            raise ValueError(
                f"connection {conn}: {len(conn_posts)} list POSTs but "
                f"{len(runs)} submit runs; the traces cannot be paired"
            )
        for post, run in zip(conn_posts, runs):
            if len(run) != post["n"]:
                raise ValueError(
                    f"POST {post['seq']} carried {post['n']} payloads but "
                    f"its submit run has {len(run)}"
                )
            matched[post["seq"]] = run
    return matched


def reduce_serve(
    server_spans, posts, windows, conn_of, max_batch: int, pooled: bool
) -> dict:
    """Per-phase serve layer metrics from server spans and client POSTs.

    ``windows`` maps a phase to its timed ``(start, end)``; a span belongs
    to the phase its start falls in.
    """
    submits = [s for s in server_spans if s["name"] == "gateway.submit"]
    settled = {s["req"]: s["start"] for s in server_spans if s["name"] == "future.settled"}
    serves = [s for s in server_spans if s["name"] == "replica.serve"]
    serve_of_req = {req: span for span in serves for req in span["reqs"]}
    stage_children = defaultdict(dict)
    for span in server_spans:
        if span["name"].startswith("endpoint.") and span["parent"] is not None:
            stage_children[span["parent"]][span["name"]] = span["end"] - span["start"]
    matched = match_posts(posts, submits, conn_of)

    out: dict[str, float] = {}
    for phase, window in windows.items():
        phase_submits = in_window(submits, window)
        phase_serves = in_window(serves, window)
        phase_posts = [
            p for p in posts
            if p["phase"] == phase and p["timed"] and p["seq"] in matched
        ]
        if not (phase_submits and phase_serves and phase_posts):
            raise ValueError(f"phase {phase!r} has no traced traffic")

        def put(name: str, value: float, phase=phase) -> None:
            out[f"{name}.{phase}"] = value

        put("serve.gateway.submit_us",
            median(s["end"] - s["start"] for s in phase_submits) * 1e6)
        put("serve.batcher.queue_wait_ms",
            median(
                serve_of_req[s["req"]]["start"] - s["end"]
                for s in phase_submits if s["req"] in serve_of_req
            ) * 1e3)
        serve_s = [s["end"] - s["start"] for s in phase_serves]
        put("serve.replica.serve_ms", median(serve_s) * 1e3)
        put("serve.replica.busy_share", sum(serve_s) / (window[1] - window[0]))
        sizes = [s["n"] for s in phase_serves]
        put("serve.batcher.batch_size_mean", sum(sizes) / len(sizes))
        put("serve.batcher.batch_fill_share", sum(sizes) / len(sizes) / max_batch)
        for stage in ("encode", "forward", "finalize"):
            values = [
                stage_children[s["id"]][f"endpoint.{stage}"]
                for s in phase_serves
                if f"endpoint.{stage}" in stage_children[s["id"]]
            ]
            if values:
                put(f"api.endpoint.{stage}_ms", median(values) * 1e3)
        if pooled:
            put("serve.pool_worker.roundtrip_ms",
                median(
                    (s["end"] - s["start"])
                    - stage_children[s["id"]].get("endpoint.encode", 0.0)
                    - stage_children[s["id"]].get("endpoint.finalize", 0.0)
                    for s in phase_serves
                ) * 1e3)
        put("serve.gateway.resolve_ms",
            median(
                max(settled[req] for req in s["reqs"]) - s["end"]
                for s in phase_serves
                if all(req in settled for req in s["reqs"])
            ) * 1e3)
        put("serve.http.in_ms",
            median(matched[p["seq"]][0]["start"] - p["t_send"] for p in phase_posts) * 1e3)
        put("serve.http.out_ms",
            median(
                p["t_done"] - max(settled[s["req"]] for s in matched[p["seq"]])
                for p in phase_posts
                if all(s["req"] in settled for s in matched[p["seq"]])
            ) * 1e3)
    return out


def reduce_pool(server_spans, shm_bytes_per_batch: int, workers: list[dict]) -> dict:
    """What only a process-parallel pool has: transport, shm, balance.

    From the traced server's microloops (each recorded batch served again
    by the worker replica and by an in-process ``Replica``; ``pack`` and
    ``read`` rounds on a harness-owned arena) and ``/telemetry``'s
    per-worker counts.
    """
    out = {}
    worker = {
        s["batch"]: s["end"] - s["start"]
        for s in server_spans if s["name"] == "microloop.worker_serve"
    }
    in_process = [s for s in server_spans if s["name"] == "microloop.inproc_serve"]
    out["serve.pool_worker.transport_ms"] = median(
        worker[s["batch"]] - (s["end"] - s["start"]) for s in in_process
    ) * 1e3
    for phase in SERVE_PHASES:
        parents = {s["id"] for s in in_process if s["phase"] == phase}
        # The gateway process cannot see a worker's forward; the
        # in-process replay of the phase's batches stands for it.
        out[f"api.endpoint.forward_ms.{phase}"] = median(
            s["end"] - s["start"]
            for s in server_spans
            if s["name"] == "endpoint.forward" and s["parent"] in parents
        ) * 1e3
    out["serve.shm.bytes_per_batch"] = float(shm_bytes_per_batch)
    out["serve.shm.pack_us"] = median(durations(server_spans, "shm.pack")) * 1e6
    out["serve.shm.read_us"] = median(durations(server_spans, "shm.read")) * 1e6
    batches = [w["batches"] for w in workers]
    out["serve.pool_worker.batch_imbalance"] = (
        (max(batches) - min(batches)) / (sum(batches) / len(batches))
    )
    out["serve.pool_worker.restarts"] = float(sum(w["restarts"] for w in workers))
    return out


def stage_sum_share(server_spans, window) -> float:
    """Σ(encode + forward + finalize) / Σ ``replica.serve`` over a window.

    The acceptance check for the in-process ledger: a batch's stages must
    account for its ``replica.serve`` span to within 10%.
    """
    serves = in_window([s for s in server_spans if s["name"] == "replica.serve"], window)
    ids = {s["id"] for s in serves}
    stages = sum(
        s["end"] - s["start"]
        for s in server_spans
        if s["name"].startswith("endpoint.") and s["parent"] in ids
    )
    return stages / sum(s["end"] - s["start"] for s in serves)


# ----------------------------------------------------------------------
# The fit ledger
# ----------------------------------------------------------------------
_FIT_TOTALS = {
    "data.dataset.build_vocabs_s": "dataset.build_vocabs",
    "model.compiler.compile_s": "compiler.compile_model",
    "supervision.combine_s": "supervision.combine",
    "data.encoded.build_s": "encoded.build",
}
_FIT_PER_STEP = {
    "data.encoded.batch_us": ("encoded.batch", 1e6),
    "model.multitask.forward_ms": ("multitask.forward", 1e3),
    "model.multitask.loss_ms": ("multitask.loss", 1e3),
    "tensor.backward_ms": ("tensor.backward", 1e3),
    "optim.step_ms": ("optim.step", 1e3),
    "training.trainer.step_ms": ("trainer.step", 1e3),
}


def reduce_fit(spans) -> dict:
    """Fit layer metrics from one traced stage replay."""
    out = {}
    for metric, name in _FIT_TOTALS.items():
        out[metric] = sum(durations(spans, name))
    for metric, (name, scale) in _FIT_PER_STEP.items():
        out[metric] = median(durations(spans, name)) * scale
    out["training.evaluation.dev_eval_s"] = median(durations(spans, "evaluation.dev_eval"))
    out["training.trainer.steps"] = float(len(durations(spans, "trainer.step")))
    # What the replay's root span spends outside every named stage: the
    # epoch loop's own Python, gradient clipping, the loss read-back.
    selfs = self_times(spans)
    steps_self = sum(selfs[s["id"]] for s in spans if s["name"] == "trainer.step")
    (root,) = [s for s in spans if s["name"] == "application.fit"]
    out["training.trainer.unattributed_share"] = (
        (selfs[root["id"]] + steps_self) / (root["end"] - root["start"])
    )
    return out

