"""Dynamic micro-batching primitives: the request queue and its futures.

The gateway's central perf trick is *cross-request* batch formation: many
independent callers enqueue single requests, and a lane consumer drains
them into model-sized batches.  Formation is **work-conserving** by
default (``max_wait_s=0``): a consumer that is free takes whatever is
queued at once, up to ``max_size``, so batches grow by accumulating behind
a *busy* consumer — a lone caller on an idle lane is served immediately,
and a loaded gateway fills every batch, amortizing encode+forward cost
across callers, without anyone having waited for it.  Lingering for
batch-mates is opt-in: with ``max_wait_s > 0`` a partial batch stays open
until it is full **or** its oldest request has waited that long.

These pieces are deliberately tiny and lock-disciplined: a
:class:`PendingResponse` (a settable one-shot future on one lock), a
:class:`QueuedRequest` (payload + future + arrival time), and the
:class:`RequestQueue` whose :meth:`~RequestQueue.pop_batch` implements the
size-or-deadline policy.  The gateway owns the consumer threads.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from repro.errors import ServeError, ServeOverloadError, ServeTimeout


class PendingResponse:
    """A one-shot, thread-safe future for a single request's response.

    One lock and a done flag carry it.  A :class:`threading.Event` (a
    Condition and two more locks) is made only for a caller that blocks in
    :meth:`result` before the response arrives; the asyncio front never
    does, it waits through :meth:`on_done`.

    ``trace_id`` is stamped at submission when tracing is enabled, so a
    caller holding only the future can fetch the request's full span tree
    (``GET /trace/<id>``) after — or while — it is served.
    """

    __slots__ = (
        "_done", "_waiter", "_result", "_exception", "trace_id", "_callbacks", "_lock"
    )

    def __init__(self) -> None:
        self._done = False
        self._waiter: threading.Event | None = None
        self._result: Any = None
        self._exception: BaseException | None = None
        self.trace_id: str | None = None
        self._callbacks: list = []
        self._lock = threading.Lock()

    def set_result(self, result: Any) -> None:
        self._result = result
        self._finish()

    def set_exception(self, exc: BaseException) -> None:
        self._exception = exc
        self._finish()

    def _finish(self) -> None:
        with self._lock:
            self._done = True
            waiter = self._waiter
            callbacks, self._callbacks = self._callbacks, []
        if waiter is not None:
            waiter.set()
        for callback in callbacks:
            try:
                callback(self)
            except Exception:  # noqa: BLE001 - a callback must not kill a lane
                pass

    def on_done(self, callback) -> None:
        """Run ``callback(self)`` once settled (immediately if already done).

        Callbacks fire on the settling thread (a lane worker) — they must
        be cheap and non-blocking.  The asyncio front-end uses this to
        bridge a future into an event loop via ``call_soon_threadsafe``.
        """
        with self._lock:
            if not self._done:
                self._callbacks.append(callback)
                return
        callback(self)

    def done(self) -> bool:
        return self._done

    def result(self, timeout: float | None = None) -> Any:
        """Block until the response arrives; re-raises serving failures."""
        if not self._done:
            with self._lock:
                if not self._done and self._waiter is None:
                    self._waiter = threading.Event()
                waiter = self._waiter
            if waiter is not None and not waiter.wait(timeout):
                raise ServeTimeout(f"request not answered within {timeout}s")
        if self._exception is not None:
            raise self._exception
        return self._result


class QueuedRequest:
    """One enqueued request: payload, identity, arrival time, and future.

    ``context`` carries lane-specific extras (e.g. the primary response a
    shadow comparison needs) without widening the queue contract.
    ``trace`` is the submitter's :class:`~repro.obs.trace.SpanContext`
    (or ``None`` when tracing is off) so the worker thread can continue
    the request's trace across the queue boundary.
    """

    __slots__ = ("payload", "request_id", "enqueued_at", "future", "context", "trace")

    def __init__(
        self,
        payload: dict,
        request_id: str,
        context: Any = None,
        trace: Any = None,
    ) -> None:
        self.payload = payload
        self.request_id = request_id
        self.enqueued_at = time.monotonic()
        self.future = PendingResponse()
        self.context = context
        self.trace = trace


class RequestQueue:
    """A FIFO of :class:`QueuedRequest` with size-or-deadline batch pops.

    ``max_depth`` bounds the queue: once full, :meth:`put` sheds with
    :class:`~repro.errors.ServeOverloadError` instead of buffering without
    limit — an overloaded gateway must fail fast and retryably, not grow
    its queue until every response is a timeout.  ``None`` keeps the
    queue unbounded.
    """

    def __init__(self, max_depth: int | None = None) -> None:
        if max_depth is not None and max_depth < 1:
            raise ServeError("max_depth must be >= 1 (or None for unbounded)")
        self._items: deque[QueuedRequest] = deque()
        self._max_depth = max_depth
        self._cond = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: QueuedRequest) -> None:
        with self._cond:
            if self._closed:
                raise ServeError("request queue is closed")
            if self._max_depth is not None and len(self._items) >= self._max_depth:
                raise ServeOverloadError(
                    f"request queue full ({self._max_depth} queued); "
                    "retry after backing off"
                )
            self._items.append(item)
            self._cond.notify_all()

    def close(self) -> None:
        """Stop accepting work; blocked ``pop_batch`` calls drain then end."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def pop_batch(
        self, max_size: int, max_wait_s: float
    ) -> list[QueuedRequest] | None:
        """Block for the next batch; ``None`` once closed and drained.

        Waits for the first request, then keeps collecting until the batch
        is full or the *first* request has waited ``max_wait_s`` since it
        was enqueued (so queueing time already counts against the
        deadline).  With ``max_wait_s=0`` that deadline has always passed:
        the caller gets what is queued, now.  Requests come back in
        arrival order.
        """
        if max_size <= 0:
            raise ServeError("max_size must be positive")
        with self._cond:
            while True:
                while not self._items and not self._closed:
                    self._cond.wait()
                if not self._items:
                    return None  # closed and drained
                deadline = self._items[0].enqueued_at + max_wait_s
                while len(self._items) < max_size and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                n = min(max_size, len(self._items))
                if n == 0:
                    # A concurrent consumer drained the items this thread
                    # was woken for (multi-threaded lanes); wait again.
                    continue
                return [self._items.popleft() for _ in range(n)]
