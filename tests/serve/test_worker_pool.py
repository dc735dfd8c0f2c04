"""Process-parallel serving: parity, crash recovery, ordering, cleanup.

The ``ReplicaPool(..., workers=N)`` contract under test:

* one rollout/warm-up/stats/teardown contract for both transports
  (``workers`` 0 and 2);
* a worker serves the version each batch names — no window after a
  refresh or promote in which the pool reports one version and answers
  with another, and rollout sends the workers no message at all;
* predictions are **bit-identical** to in-process serving (the gateway
  encodes once and workers run the same ``forward_raw``, so there is no
  numerical seam to hide behind) — in both dtypes;
* a crashed worker surfaces as :class:`~repro.errors.WorkerCrashError`,
  feeds the tier's circuit breaker, and is respawned in its slot;
* concurrent submitters get their responses in order;
* ``drain()`` covers batches in flight inside worker processes;
* a stopped pool leaves nothing behind in ``/dev/shm``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import Endpoint
from repro.errors import ServeError, WorkerCrashError
from repro.exec.workers import WorkerProcess
from repro.faults import FaultPlan, FaultRule, InjectedFault, clear, injected
from repro.serve import BreakerPolicy, GatewayConfig, ReplicaPool, ServingGateway
from repro.serve.shm import NAME_PREFIX, SegmentCache, ShmArena

from tests.helpers import child_pids, process_running as _running
from tests.serve.conftest import request_payloads


def submit_all(gateway: ServingGateway, payloads: list[dict]) -> list[dict]:
    """Submit every payload, then gather the responses in order."""
    futures = [gateway.submit_async(p) for p in payloads]
    return [f.result(timeout=gateway.config.request_timeout_s) for f in futures]


def _shm_entries() -> set[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():  # non-Linux: nothing to leak-check
        return set()
    return {p.name for p in shm.glob(f"{NAME_PREFIX}-*")}


def _restarts(pool: ReplicaPool) -> int:
    return sum(w["restarts"] for w in pool.worker_stats())


def _at(store, version: str, payloads: list[dict]) -> list[dict]:
    """The in-process answers of one stored version, one batch."""
    endpoint = Endpoint.from_store(store, "factoid-qa", version=version)
    return endpoint.forward_encoded(*endpoint.encode_requests(payloads))


@pytest.fixture()
def worker_pool(pair_store):
    store, _ = pair_store
    with ReplicaPool.from_store(store, "factoid-qa", workers=2) as pool:
        yield pool


@pytest.fixture()
def latest_is_restored(single_store):
    """Put the store's latest pointer back after a test moves it."""
    store, stable, _ = single_store
    yield
    store.set_latest("factoid-qa", stable.version)


class TestTransportContract:
    """What a pool promises, whether its forwards run in-process or not."""

    @pytest.fixture(params=[0, 2], ids=["in-process", "workers=2"])
    def pool(self, request, single_store):
        store, _, _ = single_store
        with ReplicaPool.from_store(
            store, "factoid-qa", workers=request.param
        ) as pool:
            yield pool

    def test_add_then_promote(self, pool, single_store, served):
        store, _, candidate = single_store
        payloads = served[3]
        expected = _at(store, candidate.version, payloads)
        pool.add_candidate(candidate.version)
        got, _ = pool.replica("default", "candidate").serve(list(payloads))
        assert got == expected
        assert pool.promote_candidate(set_latest=False) == {
            "default": candidate.version
        }
        assert pool.versions() == {"default": {"stable": candidate.version}}
        got, _ = pool.replica("default").serve(list(payloads))
        assert got == expected

    def test_clear_candidate(self, pool, single_store, served):
        store, stable, candidate = single_store
        payloads = served[3]
        pool.add_candidate(candidate.version)
        pool.replica("default", "candidate").serve(list(payloads))
        pool.clear_candidate()
        assert not pool.has_candidate()
        with pytest.raises(ServeError, match="no 'candidate' replica"):
            pool.replica("default", "candidate")
        got, _ = pool.replica("default").serve(list(payloads))
        assert got == _at(store, stable.version, payloads)

    def test_refresh_follows_the_store(
        self, pool, single_store, served, latest_is_restored
    ):
        store, stable, candidate = single_store
        payloads = served[3]
        assert pool.refresh() == {"default": False}
        store.set_latest("factoid-qa", candidate.version)
        assert pool.refresh() == {"default": True}
        assert pool.versions()["default"]["stable"] == candidate.version
        got, _ = pool.replica("default").serve(list(payloads))
        assert got == _at(store, candidate.version, payloads)

    def test_warmup_seeds_every_tier(self, pool, served):
        estimates = pool.warmup(served[3][:4])
        assert set(estimates) == set(pool.tiers)
        for tier, seconds in estimates.items():
            assert seconds > 0
            assert pool.latency_estimate(tier) == seconds

    def test_worker_stats_shape(self, pool, served):
        pool.replica("default").serve(served[3][:2])
        stats = pool.worker_stats()
        assert pool.concurrency == max(1, len(stats))
        assert [w["worker"] for w in stats] == list(range(len(stats)))
        for entry in stats:
            assert set(entry) == {
                "worker", "pid", "alive", "restarts", "batches", "inflight"
            }
            assert entry["alive"] and entry["restarts"] == 0
        assert sum(w["batches"] for w in stats) == (1 if stats else 0)

    def test_set_fault_plan_arms_and_disarms(self, pool, served):
        payloads = served[3][:2]
        plan = FaultPlan(
            name="serve-errors",
            seed=0,
            rules=(FaultRule(point="replica.serve", rate=1.0),),
        )
        with injected(plan):
            pool.set_fault_plan(plan)
            # In-process the fault raises here; a worker's comes back as
            # an error reply.
            with pytest.raises((InjectedFault, ServeError)):
                pool.replica("default").serve(payloads)
        pool.set_fault_plan(None)
        responses, _ = pool.replica("default").serve(payloads)
        assert len(responses) == 2

    def test_context_manager_tears_down(self, single_store, served):
        store, _, _ = single_store
        for workers in (0, 2):
            before = _shm_entries()
            with ReplicaPool.from_store(
                store, "factoid-qa", workers=workers
            ) as pool:
                pool.replica("default").serve(served[3][:2])
                pids = [w["pid"] for w in pool.worker_stats()]
            pool.stop()
            assert not any(map(_running, pids))
            assert _shm_entries() - before == set()


class TestVersionWindow:
    """The version sent is the version whose vocabularies encoded the batch."""

    def test_gateway_half_of_refresh_is_enough(
        self, single_store, served, latest_is_restored
    ):
        store, _, candidate = single_store
        payloads = served[3]
        with ReplicaPool.from_store(store, "factoid-qa", workers=2) as pool:
            store.set_latest("factoid-qa", candidate.version)
            assert pool.replica("default").endpoint.refresh()
            got, _ = pool.replica("default").serve(list(payloads))
        inproc = ReplicaPool.from_store(store, "factoid-qa")
        expected, _ = inproc.replica("default").serve(list(payloads))
        assert inproc.versions()["default"]["stable"] == candidate.version
        assert got == expected

    def test_gateway_half_of_promote_is_enough(self, single_store, served):
        store, _, candidate = single_store
        payloads = served[3]
        with ReplicaPool.from_store(store, "factoid-qa", workers=2) as pool:
            pool.add_candidate(candidate.version)
            # Through the class on purpose: the gateway-side promote alone,
            # with no step after it that reaches the workers, must do.
            ReplicaPool.promote_candidate(pool, set_latest=False)
            got, _ = pool.replica("default").serve(list(payloads))
        inproc = ReplicaPool.from_store(store, "factoid-qa")
        inproc.add_candidate(candidate.version)
        expected, _ = inproc.replica("default", "candidate").serve(list(payloads))
        assert got == expected

    def test_concurrent_refreshes_never_mix_versions(
        self, single_store, served, latest_is_restored
    ):
        store, stable, candidate = single_store
        payloads = served[3]
        answers = [_at(store, v.version, payloads) for v in (stable, candidate)]
        mixed: list[list[dict]] = []
        stop = threading.Event()
        with ReplicaPool.from_store(store, "factoid-qa", workers=2) as pool:
            replica = pool.replica("default")

            def client() -> None:
                while not stop.is_set():
                    got, _ = replica.serve(list(payloads))
                    if got not in answers:
                        mixed.append(got)

            threads = [threading.Thread(target=client) for _ in range(4)]
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for flip in range(8):
                    version = (candidate, stable)[flip % 2].version
                    store.set_latest("factoid-qa", version)
                    assert pool.refresh() == {"default": True}
                    time.sleep(0.02)
            finally:
                stop.set()
                sys.setswitchinterval(previous)
                for t in threads:
                    t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            got, _ = replica.serve(list(payloads))
            assert got == answers[0]  # the last flip went back to stable
        assert mixed == []

    def test_rollout_sends_no_message_and_a_serve_sends_one(
        self, single_store, served, latest_is_restored, monkeypatch
    ):
        store, _, candidate = single_store
        payloads = served[3][:4]
        sent = []
        plain_request = WorkerProcess.request

        def request(self, msg, timeout=None):
            sent.append(msg["cmd"])
            return plain_request(self, msg, timeout=timeout)

        monkeypatch.setattr(WorkerProcess, "request", request)
        with ReplicaPool.from_store(store, "factoid-qa", workers=2) as pool:
            pool.add_candidate(candidate.version)
            pool.clear_candidate()
            pool.add_candidate(candidate.version)
            pool.promote_candidate(set_latest=False)
            store.set_latest("factoid-qa", candidate.version)
            pool.refresh()
            assert sent == []
            pool.replica("default").serve(payloads)
            assert sent == ["serve"]


class TestParity:
    """Cross-process serving must be bit-identical to in-process."""

    def test_predictions_match_in_process(self, pair_store, served, worker_pool):
        store, _ = pair_store
        _, _, _, payloads = served
        inproc = ReplicaPool.from_store(store, "factoid-qa")
        for tier in inproc.tiers:
            expected, _ = inproc.replica(tier).serve(list(payloads))
            got, _ = worker_pool.replica(tier).serve(list(payloads))
            assert got == expected, f"tier {tier} diverged across processes"

    def test_parity_holds_in_float32(self, pair_store, served):
        store, _ = pair_store
        _, _, _, payloads = served
        inproc = ReplicaPool.from_store(store, "factoid-qa", dtype="float32")
        with ReplicaPool.from_store(
            store, "factoid-qa", dtype="float32", workers=2
        ) as pool:
            for tier in inproc.tiers:
                expected, _ = inproc.replica(tier).serve(list(payloads))
                got, _ = pool.replica(tier).serve(list(payloads))
                assert got == expected
                assert pool.replica(tier).endpoint.dtype_name == "float32"

    def test_single_request_batches(self, pair_store, served, worker_pool):
        store, _ = pair_store
        _, _, _, payloads = served
        inproc = ReplicaPool.from_store(store, "factoid-qa")
        tier = inproc.tiers[0]
        expected, _ = inproc.replica(tier).serve([payloads[0]])
        got, _ = worker_pool.replica(tier).serve([payloads[0]])
        assert got == expected


def _same_answer(a, b, tol: float = 1e-9) -> bool:
    """Labels and indices exactly, scores within ``tol``.

    The gateway forms batches by timing, and the forward is sensitive to
    batch composition in the last bit (BLAS kernels differ by row count),
    so an ordering check cannot demand bit equality; ``TestParity`` does,
    at a fixed composition.
    """
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_same_answer(a[k], b[k], tol) for k in a)
        )
    if isinstance(a, list):
        return (
            isinstance(b, list)
            and len(a) == len(b)
            and all(_same_answer(x, y, tol) for x, y in zip(a, b))
        )
    if isinstance(a, float):
        return isinstance(b, float) and abs(a - b) <= tol
    return a == b


class TestGatewayIntegration:
    def test_concurrent_submitters_get_ordered_answers(
        self, pair_store, served, worker_pool
    ):
        store, _ = pair_store
        _, _, _, payloads = served
        inproc = ReplicaPool.from_store(store, "factoid-qa")
        expected, _ = inproc.replica(inproc.tiers[0]).serve(list(payloads))
        by_payload = {i: expected[i] for i in range(len(payloads))}
        # A swapped response must still show: no two references agree.
        for i in range(len(expected)):
            for j in range(i + 1, len(expected)):
                assert not _same_answer(expected[i], expected[j]), (i, j)

        config = GatewayConfig(max_batch_size=4, max_wait_s=0.002)
        failures: list[str] = []
        with ServingGateway(worker_pool, config) as gateway:
            def _client(offset: int) -> None:
                order = [
                    (offset + i) % len(payloads) for i in range(len(payloads))
                ]
                responses = submit_all(gateway, [payloads[i] for i in order])
                for got_index, payload_index in enumerate(order):
                    if not _same_answer(
                        responses[got_index], by_payload[payload_index]
                    ):
                        failures.append(
                            f"client {offset}: response {got_index} is not "
                            f"the answer for payload {payload_index}"
                        )

            threads = [
                threading.Thread(target=_client, args=(offset,))
                for offset in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert failures == []

    def test_drain_waits_for_worker_batches(self, served, worker_pool):
        _, _, _, payloads = served
        config = GatewayConfig(max_batch_size=8, max_wait_s=0.002)
        with ServingGateway(worker_pool, config) as gateway:
            futures = [gateway.submit_async(p) for p in payloads * 2]
            gateway.drain(timeout=60.0)
            assert all(f.done() for f in futures)
            for f in futures:
                assert f.result(timeout=0)

    def test_telemetry_carries_worker_slot(self, served, worker_pool):
        _, _, _, payloads = served
        config = GatewayConfig(max_batch_size=8, max_wait_s=0.002)
        with ServingGateway(worker_pool, config) as gateway:
            submit_all(gateway, payloads[:6])
            events = gateway.telemetry.events()
            assert events and all(e.worker in (0, 1) for e in events)
            stats = gateway.stats()
            assert [w["worker"] for w in stats["workers"]] == [0, 1]
            assert "workers:" in gateway.dashboard()


class TestCrashRecovery:
    def test_crash_raises_respawns_and_feeds_breaker(self, pair_store, served):
        store, _ = pair_store
        _, _, _, payloads = served
        plan = FaultPlan(
            name="worker-crash",
            rules=[
                FaultRule(
                    point="replica.serve", kind="crash", rate=1.0, max_fires=1
                )
            ],
            seed=7,
        )
        config = GatewayConfig(
            max_batch_size=4,
            max_wait_s=0.002,
            breaker=BreakerPolicy(
                failure_threshold=3, reset_timeout_s=0.2, half_open_successes=1
            ),
        )
        # Armed before the pool forks: workers inherit the live plan, and
        # every respawn re-inherits it from the still-armed parent.
        with injected(plan):
            with ReplicaPool.from_store(
                store, "factoid-qa", workers=2
            ) as pool:
                with ServingGateway(pool, config) as gateway:
                    crashes = 0
                    for payload in payloads[:4]:
                        try:
                            gateway.submit(payload)
                        except ServeError:
                            crashes += 1
                    assert crashes > 0, "no injected crash surfaced"
                    assert _restarts(pool) > 0, "dead worker not respawned"
                    stats = gateway.stats()
                    assert any(
                        b["consecutive_failures"] > 0 or b["state"] != "closed"
                        for b in stats["breakers"].values()
                    ), "crashes did not feed the circuit breakers"

                    # Phase B: disarm everywhere — parent (respawn source)
                    # and the already-running workers — then recover.
                    clear()
                    pool.set_fault_plan(None)
                    time.sleep(0.25)  # let open circuits reach half-open
                    responses = submit_all(gateway, payloads[:6])
                    assert len(responses) == 6
                    assert all(pool.worker_stats()[s]["alive"] for s in (0, 1))

    def test_dead_worker_raises_worker_crash_error(self, pair_store, served):
        store, _ = pair_store
        _, _, _, payloads = served
        plan = FaultPlan(
            name="always-crash",
            rules=[FaultRule(point="replica.serve", kind="crash", rate=1.0)],
            seed=3,
        )
        with injected(plan):
            with ReplicaPool.from_store(
                store, "factoid-qa", workers=1
            ) as pool:
                with pytest.raises(WorkerCrashError):
                    pool.replica(pool.tiers[0]).serve(payloads[:2])
                assert _restarts(pool) >= 1


class TestLifecycle:
    def test_no_leaked_shared_memory(self, pair_store, served):
        store, _ = pair_store
        _, _, _, payloads = served
        before = _shm_entries()
        with ReplicaPool.from_store(store, "factoid-qa", workers=2) as pool:
            pool.replica(pool.tiers[0]).serve(list(payloads))
            assert _shm_entries() - before, "serving created no shm segments?"
        assert _shm_entries() - before == set(), "segments leaked after stop()"

    def test_stop_is_idempotent_and_kills_workers(self, pair_store, served):
        store, _ = pair_store
        _, _, _, payloads = served
        pool = ReplicaPool.from_store(store, "factoid-qa", workers=2)
        pool.replica(pool.tiers[0]).serve(payloads[:2])
        pids = [w["pid"] for w in pool.worker_stats()]
        assert all(pids)
        pool.stop()
        pool.stop()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not any(Path(f"/proc/{pid}").is_dir() for pid in pids):
                break
            time.sleep(0.05)
        assert not any(
            Path(f"/proc/{pid}").is_dir() for pid in pids
        ), "worker processes outlived stop()"

    def test_stop_does_not_sit_out_the_grace_period(self, pair_store, served):
        # A forked worker is born holding copies of the parent-side pipe
        # ends (its own, its earlier siblings'); unless it closes them,
        # closing the parent's end delivers no EOF and every stop() waits
        # out _STOP_GRACE_S (5 s) per worker before terminating it.
        store, _ = pair_store
        _, _, _, payloads = served
        before = _shm_entries()
        pool = ReplicaPool.from_store(store, "factoid-qa", workers=3)
        pool.warmup(payloads[:4])
        pids = [w["pid"] for w in pool.worker_stats()]
        started = time.monotonic()
        pool.stop()
        assert time.monotonic() - started < 1.0
        assert not any(map(_running, pids))
        assert _shm_entries() - before == set()

    def test_respawned_worker_also_stops_promptly(self, pair_store, served):
        # A replacement is forked while its siblings' channels are open.
        store, _ = pair_store
        _, _, _, payloads = served
        crash = FaultPlan(
            name="one-crash",
            seed=0,
            rules=(FaultRule(point="replica.serve", kind="crash", max_fires=1),),
        )
        with injected(crash):
            pool = ReplicaPool.from_store(store, "factoid-qa", workers=2)
        try:
            with pytest.raises(WorkerCrashError):
                pool.replica(pool.tiers[0]).serve(payloads[:2])
            pool.set_fault_plan(None)
            pool.replica(pool.tiers[0]).serve(payloads[:2])
            assert _restarts(pool) == 1
        finally:
            started = time.monotonic()
            pool.stop()
        assert time.monotonic() - started < 1.0

    def test_workers_do_not_outlive_a_killed_parent(self, served, tmp_path):
        # SIGKILL runs no teardown: only the EOF on their channel tells
        # the workers their parent is gone.
        _, _, run, payloads = served
        run.artifact().save(tmp_path / "artifact")
        (tmp_path / "payloads.json").write_text(json.dumps(payloads[:4]))
        script = (
            "import json, sys, time\n"
            "from repro.api import Endpoint\n"
            "from repro.serve import ReplicaPool\n"
            "endpoint = Endpoint.from_directory(sys.argv[1])\n"
            "pool = ReplicaPool.from_endpoint(endpoint, workers=3)\n"
            "pool.warmup(json.load(open(sys.argv[2])))\n"
            "print(json.dumps([w['pid'] for w in pool.worker_stats()]), flush=True)\n"
            "time.sleep(120)\n"
        )
        before = _shm_entries()
        parent = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "artifact"),
             str(tmp_path / "payloads.json")],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            pids = json.loads(parent.stdout.readline())
            assert len(pids) == 3 and all(_running(pid) for pid in pids)
            assert _shm_entries() - before, "the pool mapped no segments?"
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline and any(map(_running, pids)):
                time.sleep(0.02)
            orphans = [pid for pid in pids if _running(pid)]
            assert orphans == [], "workers outlived their killed parent"
            # With every holder gone, multiprocessing's resource tracker
            # sees its own EOF and unlinks what the parent could not.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and _shm_entries() - before:
                time.sleep(0.05)
            assert _shm_entries() - before == set()
        finally:
            parent.kill()
            parent.stdout.close()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_warmup_probes_every_worker(self, served, worker_pool):
        _, _, _, payloads = served
        estimates = worker_pool.warmup(payloads[:4])
        assert set(estimates) == set(worker_pool.tiers)
        stats = worker_pool.worker_stats()
        # Every slot served every tier once during warmup.
        assert all(s["batches"] >= len(worker_pool.tiers) for s in stats)
        for tier in worker_pool.tiers:
            assert worker_pool.replica(tier).ewma_latency_s is not None


    def test_workers_launch_no_process_of_their_own(self, served, worker_pool):
        # Attaching to the gateway's segments must not make each worker
        # spawn a multiprocessing resource tracker (an interpreter per
        # worker during warm-up, and one more to tear down at stop).
        _, _, _, payloads = served
        worker_pool.warmup(payloads[:4])
        workers = {w["pid"] for w in worker_pool.worker_stats()}
        assert child_pids(workers) == []

    def test_warmup_probes_the_slots_concurrently(self, served, worker_pool):
        _, _, _, payloads = served
        stall_s = 0.2
        worker_pool.set_fault_plan(
            FaultPlan(
                name="slow-forward",
                seed=0,
                rules=(
                    FaultRule(point="replica.serve", kind="latency", latency_s=stall_s),
                ),
            )
        )
        started = time.monotonic()
        estimates = worker_pool.warmup(payloads[:4])
        elapsed = time.monotonic() - started
        tiers = len(worker_pool.tiers)
        # Two slots stall side by side: one stall per tier, not one per
        # (tier, slot) — and the estimate stays a single slot's time.
        assert elapsed < tiers * stall_s * 1.75
        for tier in worker_pool.tiers:
            assert stall_s <= estimates[tier] < stall_s * 1.75


class TestShmTransport:
    def test_arena_roundtrip_and_growth(self):
        arena = ShmArena("t", min_bytes=1 << 12)
        cache = SegmentCache()
        try:
            small = [("a", np.arange(8, dtype=np.int64))]
            manifest = arena.pack(small)
            views = cache.view(manifest)
            np.testing.assert_array_equal(views["a"], np.arange(8))
            first_name = manifest["segment"]

            big = [("b", np.random.default_rng(0).normal(size=(64, 64)))]
            manifest = arena.pack(big)
            assert manifest["segment"] != first_name, "growth must rename"
            views = cache.view(manifest)
            np.testing.assert_array_equal(views["b"], big[0][1])
            # The cache pruned its stale attachment for the old name.
            assert len(cache._segments) == 1
        finally:
            cache.close()
            arena.close()
        assert arena.name is None

    def test_closed_arena_refuses_buf(self):
        arena = ShmArena("gone")
        arena.close()
        with pytest.raises(ServeError):
            arena.buf
