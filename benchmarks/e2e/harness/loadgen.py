"""The closed-loop HTTP load generator and its correctness oracle.

One process, ``conns`` threads, one keep-alive connection each: a client
sends its next POST only after the previous body is read, as a caller
that waits for its answer does.  Nothing is verified inside the timed
loop — bodies are kept and checked afterwards — so the generator's own
CPU (it shares two cores with the server) stays out of the latencies.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field

from harness.metrics import median, percentile, supported_tail, tail
from harness.spans import fingerprint

SCORE_TOLERANCE = 1e-6
_HEADERS = {"Content-Type": "application/json"}


class PayloadPool:
    """The generated request payloads with their reference answers.

    Connection ``c`` draws only indices ``i % conns == c``: the slices are
    disjoint, so a payload names the connection that sent it (the traced
    run pairs list POSTs with server spans that way).
    """

    def __init__(self, payloads: list[dict], reference: list[dict], conns: int) -> None:
        if len(payloads) != len(reference):
            raise ValueError("one reference answer per payload")
        self.payloads = payloads
        self.reference = reference
        self.conns = conns
        self.encoded = [json.dumps(p).encode() for p in payloads]
        self.conn_of = {fingerprint(p): i % conns for i, p in enumerate(payloads)}
        if len(self.conn_of) != len(payloads):
            raise ValueError("payload pool holds duplicates")

    def slice_of(self, conn: int) -> list[int]:
        return [i for i in range(len(self.payloads)) if i % self.conns == conn]


@dataclass
class PhaseSpec:
    """One traffic phase: ``batch`` payloads per POST for ``seconds``."""

    name: str
    batch: int  # 1 = the envelope form with a request_id
    seconds: float
    warmup_s: float


@dataclass
class PhaseLog:
    """Every POST of one phase, and the timed window they ran in."""

    spec: PhaseSpec
    window: tuple[float, float]
    posts: list[dict] = field(default_factory=list)

    def timed(self) -> list[dict]:
        return [p for p in self.posts if p["timed"]]


def _client(conn_id, port, pool, spec, seed, clock, log) -> None:
    t_start, t_end = clock
    rng = random.Random(f"{seed}:{spec.name}:{conn_id}")
    own = pool.slice_of(conn_id)
    http_conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    n = 0
    try:
        while True:
            now = time.perf_counter()
            if now >= t_end:
                return
            if spec.batch == 1:
                idxs = (rng.choice(own),)
                request_id = f"{spec.name}-{conn_id}-{n}"
                body = b'{"payload": %s, "request_id": "%s"}' % (
                    pool.encoded[idxs[0]], request_id.encode()
                )
            else:
                idxs = tuple(rng.choices(own, k=spec.batch))
                request_id = None
                body = b"[" + b",".join(pool.encoded[i] for i in idxs) + b"]"
            n += 1
            t_send = time.perf_counter()
            try:
                http_conn.request("POST", "/predict", body, _HEADERS)
                response = http_conn.getresponse()
                data = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                # A refused, reset or timed-out POST is a failed operation;
                # the next one starts on a fresh connection.
                data, status = repr(exc).encode(), 0
                http_conn.close()
            t_done = time.perf_counter()
            log.append(
                {
                    "phase": spec.name,
                    "conn": conn_id,
                    "request_id": request_id,
                    "idxs": idxs,
                    "n": len(idxs),
                    "t_send": t_send,
                    "t_done": t_done,
                    "timed": t_send >= t_start,
                    "status": status,
                    "body": data,
                }
            )
    finally:
        http_conn.close()


def run_phase(port: int, pool: PayloadPool, spec: PhaseSpec, seed: int) -> PhaseLog:
    """Warm up, then drive ``spec`` for its timed window; returns the log."""
    begin = time.perf_counter() + 0.05
    window = (begin + spec.warmup_s, begin + spec.warmup_s + spec.seconds)
    logs: list[list[dict]] = [[] for _ in range(pool.conns)]
    threads = [
        threading.Thread(
            target=_client,
            args=(conn, port, pool, spec, seed, window, logs[conn]),
            name=f"loadgen-{conn}",
        )
        for conn in range(pool.conns)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=spec.warmup_s + spec.seconds + 120)
        if thread.is_alive():
            raise RuntimeError(f"load generator thread {thread.name} did not finish")
    posts = sorted((p for log in logs for p in log), key=lambda p: p["t_send"])
    return PhaseLog(spec=spec, window=window, posts=posts)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def matches(got, want) -> bool:
    """Labels, indices and structure exact; floats within 1e-6.

    Scores differ in the last digits between batch compositions (numpy
    reduction order under padding), and the reference was computed one
    payload at a time.
    """
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(got, (int, float))
            and isinstance(want, (int, float))
            and not isinstance(got, bool)
            and abs(got - want) <= SCORE_TOLERANCE
        )
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(matches(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(matches(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want


def verify(log: PhaseLog, pool: PayloadPool) -> None:
    """Mark every POST ``ok`` or not; set ``n_correct`` payloads per POST."""
    verdicts: dict[tuple, int] = {}
    for post in log.posts:
        key = (post["idxs"], post["body"])
        if key not in verdicts:
            verdicts[key] = _count_correct(post, pool)
        post["n_correct"] = verdicts[key] if post["status"] == 200 else 0
        post["ok"] = post["n_correct"] == post["n"]


def _count_correct(post: dict, pool: PayloadPool) -> int:
    if post["status"] != 200:
        return 0
    try:
        answer = json.loads(post["body"])
    except ValueError:
        return 0
    wanted = [pool.reference[i] for i in post["idxs"]]
    if post["request_id"] is not None:
        return int(matches(answer, wanted[0]))
    # A list POST answers with a list: same length, same order.
    if not isinstance(answer, list) or len(answer) != len(wanted):
        return 0
    return sum(matches(got, want) for got, want in zip(answer, wanted))


# ----------------------------------------------------------------------
# Phase statistics
# ----------------------------------------------------------------------
def summarize(log: PhaseLog) -> dict:
    """One phase's statistics on the client's clock, send to body read.

    The median latency and the throughput are medians over the phase's
    one-second segments (throughput: correct payloads whose body arrived
    in the segment, over its length): the host's noise comes in bursts,
    and a burst spoils the few segments it falls in rather than a share of
    every long one.  The tail is one percentile over every timed POST —
    the highest the sample supports, p95 at full length — because one
    segment is too few POSTs to carry a p95.
    """
    start, end = log.window
    segments = max(3, round(end - start))
    length = (end - start) / segments
    p50s, rates = [], []
    for k in range(segments):
        low, high = start + k * length, start + (k + 1) * length
        latencies = [
            (p["t_done"] - p["t_send"]) * 1e3
            for p in log.posts
            if low <= p["t_send"] < high
        ]
        if not latencies:
            raise RuntimeError(f"phase {log.spec.name!r}: no POST in segment {k}")
        answered = sum(p["n_correct"] for p in log.posts if low <= p["t_done"] < high)
        p50s.append(percentile(latencies, 50))
        rates.append(answered / length)
    timed = log.timed()
    latencies = [(p["t_done"] - p["t_send"]) * 1e3 for p in timed]
    return {
        "p50_ms": median(p50s),
        "tail_ms": tail(latencies),
        "tail_percentile": supported_tail(len(latencies)),
        "payloads_per_s": median(rates),
        "posts": len(timed),
        "failed": sum(1 for p in timed if not p["ok"]),
    }
