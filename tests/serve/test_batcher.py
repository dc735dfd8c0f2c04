"""Tests for the dynamic batching primitives (no model involved)."""

import sys
import threading
import time

import pytest

from repro.errors import ServeError, ServeTimeout
from repro.serve import GatewayConfig, PendingResponse, QueuedRequest, RequestQueue

DEFAULT_WAIT_S = GatewayConfig().max_wait_s


def item(i: int) -> QueuedRequest:
    return QueuedRequest({"n": i}, request_id=f"r{i}")


class TestPendingResponse:
    def test_result_roundtrip(self):
        future = PendingResponse()
        assert not future.done()
        future.set_result({"ok": 1})
        assert future.done()
        assert future.result(timeout=0) == {"ok": 1}

    def test_exception_propagates(self):
        future = PendingResponse()
        future.set_exception(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            future.result(timeout=0)

    def test_timeout_raises_serve_error(self):
        with pytest.raises(ServeError, match="not answered"):
            PendingResponse().result(timeout=0.01)


    def test_on_done_before_and_after_settle(self):
        future, seen = PendingResponse(), []
        future.on_done(lambda f: seen.append(("early", f.result(timeout=0))))
        assert seen == []
        future.set_result(7)
        future.on_done(lambda f: seen.append(("late", f.result(timeout=0))))
        assert seen == [("early", 7), ("late", 7)]

    def test_a_raising_callback_does_not_stop_the_others(self):
        future, seen = PendingResponse(), []

        def bad(_):
            raise RuntimeError("callback bug")

        future.on_done(bad)
        future.on_done(lambda f: seen.append(f.done()))
        future.set_exception(ValueError("boom"))
        assert seen == [True]
        with pytest.raises(ValueError, match="boom"):
            future.result()

    def test_timeout_then_late_result(self):
        future = PendingResponse()
        with pytest.raises(ServeTimeout):
            future.result(timeout=0.01)
        future.set_result("late")
        assert future.result(timeout=0) == "late"

    def test_blocked_waiter_is_woken_from_another_thread(self):
        future, got = PendingResponse(), []
        waiter = threading.Thread(target=lambda: got.append(future.result(timeout=10)))
        waiter.start()
        deadline = time.monotonic() + 10
        while future._waiter is None and time.monotonic() < deadline:
            time.sleep(0.001)  # until the waiter blocks
        threading.Thread(target=future.set_result, args=({"ok": 2},)).start()
        waiter.join(timeout=10)
        assert got == [{"ok": 2}]

    def test_racing_waiters_callbacks_and_settlers(self):
        """Under a tiny switch interval, every blocked waiter wakes with the
        result and every callback fires exactly once, however registration,
        waiting and settling interleave."""
        futures = [PendingResponse() for _ in range(200)]
        fired = [0] * len(futures)
        woke: list = []
        lock = threading.Lock()

        def count(i):
            def callback(_):
                with lock:
                    fired[i] += 1

            return callback

        def wait_all():
            got = [f.result(timeout=10) for f in futures]
            with lock:
                woke.append(got)

        def register_all():
            for i, f in enumerate(futures):
                f.on_done(count(i))

        def settle_all():
            for i, f in enumerate(futures):
                f.set_result(i)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=wait_all) for _ in range(3)]
            threads += [threading.Thread(target=register_all) for _ in range(2)]
            threads.append(threading.Thread(target=settle_all))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert woke == [list(range(len(futures)))] * 3
        assert fired == [2] * len(futures)

    def test_settled_futures_build_no_event(self):
        """Only a caller that blocks before the answer gets an Event."""
        future = PendingResponse()
        future.on_done(lambda _: None)
        future.set_result(1)
        assert future.result() == 1 and future._waiter is None


class TestPopBatch:
    def test_full_batch_returns_without_waiting_deadline(self):
        queue = RequestQueue()
        for i in range(4):
            queue.put(item(i))
        start = time.monotonic()
        batch = queue.pop_batch(max_size=4, max_wait_s=10.0)
        assert time.monotonic() - start < 1.0  # did not sit out the deadline
        assert [b.payload["n"] for b in batch] == [0, 1, 2, 3]

    def test_deadline_closes_partial_batch(self):
        queue = RequestQueue()
        queue.put(item(0))
        start = time.monotonic()
        batch = queue.pop_batch(max_size=8, max_wait_s=0.05)
        elapsed = time.monotonic() - start
        assert [b.payload["n"] for b in batch] == [0]
        assert elapsed < 2.0  # waited roughly the deadline, not forever

    def test_deadline_counts_from_first_enqueue(self):
        # A request that already waited in the queue should not wait the
        # full max_wait again once a worker picks the queue up.
        queue = RequestQueue()
        queue.put(item(0))
        time.sleep(0.08)
        start = time.monotonic()
        batch = queue.pop_batch(max_size=8, max_wait_s=0.05)
        assert time.monotonic() - start < 0.05
        assert len(batch) == 1

    def test_oversized_queue_pops_in_fifo_chunks(self):
        queue = RequestQueue()
        for i in range(10):
            queue.put(item(i))
        first = queue.pop_batch(max_size=4, max_wait_s=0.0)
        second = queue.pop_batch(max_size=4, max_wait_s=0.0)
        assert [b.payload["n"] for b in first] == [0, 1, 2, 3]
        assert [b.payload["n"] for b in second] == [4, 5, 6, 7]

    def test_blocks_until_first_item_arrives(self):
        queue = RequestQueue()
        results = []

        def worker():
            results.append(queue.pop_batch(max_size=2, max_wait_s=0.01))

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.05)
        queue.put(item(7))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert [b.payload["n"] for b in results[0]] == [7]

    def test_batch_fills_from_concurrent_producers(self):
        queue = RequestQueue()
        queue.put(item(0))

        def late_producer():
            time.sleep(0.02)
            queue.put(item(1))

        thread = threading.Thread(target=late_producer)
        thread.start()
        batch = queue.pop_batch(max_size=2, max_wait_s=5.0)
        thread.join()
        # The late arrival completed the batch well before the deadline.
        assert [b.payload["n"] for b in batch] == [0, 1]

    def test_default_wait_returns_a_lone_item_at_once(self):
        queue = RequestQueue()
        waits = []
        for i in range(5):
            queue.put(item(i))
            start = time.monotonic()
            batch = queue.pop_batch(max_size=32, max_wait_s=DEFAULT_WAIT_S)
            waits.append(time.monotonic() - start)
            assert [b.payload["n"] for b in batch] == [i]
        # No linger for batch-mates: far below the old 5 ms deadline (the
        # best of five, so a scheduler hiccup cannot fail the test).
        assert min(waits) < 0.003

    def test_default_wait_takes_a_backlog_as_one_full_batch(self):
        # What accumulated behind a busy consumer leaves as a full batch.
        queue = RequestQueue()
        for i in range(40):
            queue.put(item(i))
        first = queue.pop_batch(max_size=32, max_wait_s=DEFAULT_WAIT_S)
        second = queue.pop_batch(max_size=32, max_wait_s=DEFAULT_WAIT_S)
        assert [b.payload["n"] for b in first] == list(range(32))
        assert [b.payload["n"] for b in second] == list(range(32, 40))

    def test_opt_in_linger_fills_until_the_deadline(self):
        queue = RequestQueue()
        queue.put(item(0))

        def producer():
            for i in (1, 2):
                time.sleep(0.02)
                queue.put(item(i))

        thread = threading.Thread(target=producer)
        thread.start()
        start = time.monotonic()
        batch = queue.pop_batch(max_size=8, max_wait_s=0.25)
        elapsed = time.monotonic() - start
        thread.join(timeout=5)
        assert not thread.is_alive()
        # Never full, so it stayed open for the whole wait and took both.
        assert [b.payload["n"] for b in batch] == [0, 1, 2]
        assert 0.2 <= elapsed < 2.0

    def test_multi_consumer_pops_never_return_empty(self):
        # Every put wakes every idle consumer; the ones that lose the race
        # for the items must wait again, not hand back an empty batch.
        queue = RequestQueue()
        total, consumers = 200, 4
        batches: list[list[QueuedRequest]] = []
        lock = threading.Lock()

        def consume():
            while (batch := queue.pop_batch(4, DEFAULT_WAIT_S)) is not None:
                with lock:
                    batches.append(batch)

        threads = [threading.Thread(target=consume) for _ in range(consumers)]
        for thread in threads:
            thread.start()
        for i in range(total):
            queue.put(item(i))
        queue.close()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert all(batches)
        popped = sorted(b.payload["n"] for batch in batches for b in batch)
        assert popped == list(range(total))  # nothing lost, nothing twice

    def test_invalid_max_size(self):
        with pytest.raises(ServeError, match="max_size"):
            RequestQueue().pop_batch(max_size=0, max_wait_s=0.0)


class TestClose:
    def test_close_drains_then_returns_none(self):
        queue = RequestQueue()
        queue.put(item(0))
        queue.close()
        assert [b.payload["n"] for b in queue.pop_batch(4, 0.0)] == [0]
        assert queue.pop_batch(4, 0.0) is None

    def test_closed_queue_rejects_put(self):
        queue = RequestQueue()
        queue.close()
        with pytest.raises(ServeError, match="closed"):
            queue.put(item(0))

    def test_close_wakes_blocked_pop(self):
        queue = RequestQueue()
        results = []

        def worker():
            results.append(queue.pop_batch(max_size=2, max_wait_s=10.0))

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.02)
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results == [None]
