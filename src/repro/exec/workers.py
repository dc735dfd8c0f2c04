"""Long-lived duplex worker processes: the plumbing under process-parallel serving.

:class:`~repro.exec.executor.TrialExecutor` proved out the repo's
process-pool discipline — fork-shipped context, deterministic dispatch,
ordered gathering, errors travelling as data — but its ``Pool.map`` shape
is wrong for a serving loop: serving needs *resident* workers that hold a
loaded model between requests, a request/reply channel per worker, and a
supervisor that notices a dead worker and puts a fresh one in its slot.

This module generalizes that machinery into two small pieces:

* :class:`WorkerProcess` — one child process running a message loop over a
  duplex pipe, with a strict request/reply protocol and crash detection
  (a broken pipe, an ``EOF``, or a reply deadline all raise
  :class:`~repro.errors.WorkerCrashError`);
* :class:`WorkerTeam` — N such processes behind a slot queue (lease /
  release), restart-on-crash via a caller-supplied factory, best-effort
  broadcast for control messages, and teardown that is guaranteed to run
  (context manager + ``atexit`` + daemonized children) so a dying test or
  CLI run leaves no orphan processes behind.

``repro.serve.pool_worker`` builds the worker transport of
``ReplicaPool(..., workers=N)`` on top of this; the plumbing itself
knows nothing about models or batches.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue
import signal
import threading
from contextlib import contextmanager
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError, WorkerCrashError

# How long stop() waits for a child to exit after its pipe closes before
# escalating to terminate().  A child sees EOF the moment the parent
# closes its end — or dies — so only one stuck inside a handler gets this
# far; children are daemons as well, for interpreter exits without stop().
_STOP_GRACE_S = 5.0

# Every parent-side pipe end open in this process.  The file-descriptor
# table is process-wide, so this mirror of it is too: a forked child is
# born holding a copy of each end — its own and every live sibling's —
# and closes them first thing (_child_main).  _SPAWN_LOCK keeps a fork
# from landing between another worker's Pipe() and its registration.
_PARENT_ENDS: set = set()
_SPAWN_LOCK = threading.Lock()


def default_mp_context():
    """The start method worker processes use (fork where available).

    Fork inherits module state — loaded models, armed fault-injection
    plans, installed obs registries — which is exactly what long-lived
    replica workers want: the child is born consistent with the parent at
    spawn time, nothing needs pickling.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


def _child_main(conn, target: Callable, args: tuple) -> None:
    """First code a worker runs: shed what fork copied, then ``target``.

    While any process holds a parent-side end open, closing it in the
    parent delivers no EOF: ``stop()`` would sit out its grace period per
    worker, and workers would outlive a killed parent forever.  With the
    inherited copies closed, a worker's ``recv`` ends the moment its
    parent closes the channel or dies.  (Under spawn nothing is inherited
    and the registry is empty.)  SIGTERM goes back to its default so
    :meth:`WorkerProcess.kill` works whatever handler the parent had
    installed when it forked.
    """
    for end in _PARENT_ENDS:
        end.close()
    _PARENT_ENDS.clear()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    target(conn, *args)


def serve_connection(
    conn,
    handler: Callable[[Any], Any],
    fatal: tuple[type[BaseException], ...] = (),
) -> None:
    """The child side of the protocol: recv → handle → reply, until EOF.

    Every non-fatal handler exception becomes an ``{"ok": False, ...}``
    reply (errors travel as data, mirroring ``TrialExecutor``); an
    exception type listed in ``fatal`` hard-exits the process instead —
    that is how an injected ``crash`` fault becomes a real worker death
    the supervisor must notice.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        try:
            reply = handler(msg)
        except fatal:
            os._exit(3)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class WorkerProcess:
    """One resident child process with a strict request/reply channel.

    ``target(conn, *args)`` runs in the child and must implement the
    recv/reply loop (:func:`serve_connection` is the canonical one).
    Under fork, ``args`` are inherited by reference — live objects
    (endpoints, stores) cross for free as copy-on-write snapshots.

    ``request`` is serialized per worker by an internal lock: the channel
    carries exactly one outstanding message, so replies can never be
    attributed to the wrong request.
    """

    def __init__(
        self,
        target: Callable,
        args: Sequence[Any] = (),
        *,
        name: str = "worker",
    ) -> None:
        self._target = target
        self._args = tuple(args)
        self.name = name
        self._ctx = default_mp_context()
        self._proc = None
        self._conn = None
        self._lock = threading.Lock()

    def start(self) -> "WorkerProcess":
        if self._proc is not None:
            raise ExecutionError(f"worker {self.name!r} already started")
        with _SPAWN_LOCK:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            _PARENT_ENDS.add(parent_conn)
            self._proc = self._ctx.Process(
                target=_child_main,
                args=(child_conn, self._target, self._args),
                name=self.name,
                daemon=True,
            )
            self._proc.start()
        # The parent's copy of the child end must close, or EOF would
        # never be delivered when the child dies.
        child_conn.close()
        self._conn = parent_conn
        return self

    def _close_conn(self) -> None:
        if self._conn is not None:
            _PARENT_ENDS.discard(self._conn)
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def request(self, msg: Any, timeout: float | None = None) -> Any:
        """Send one message and block for its reply.

        A broken channel, a dead process, or a missed ``timeout`` (``None``
        waits forever) raises :class:`~repro.errors.WorkerCrashError`
        after killing the process — a hung worker is indistinguishable
        from a dead one and must not wedge the serving lane.
        """
        if self._conn is None:
            raise WorkerCrashError(f"worker {self.name!r} is not running")
        with self._lock:
            try:
                self._conn.send(msg)
                if timeout is not None and not self._conn.poll(timeout):
                    raise TimeoutError(f"no reply within {timeout}s")
                return self._conn.recv()
            except (EOFError, OSError, BrokenPipeError, TimeoutError) as exc:
                self.kill()
                raise WorkerCrashError(
                    f"worker {self.name!r} (pid {self.pid}) died mid-request: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc

    def stop(self, timeout: float = _STOP_GRACE_S) -> None:
        """Polite shutdown: close the channel (child sees EOF), then join."""
        self._close_conn()
        if self._proc is not None:
            self._proc.join(timeout)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(_STOP_GRACE_S)
            self._proc = None

    def kill(self) -> None:
        """Immediate teardown (crash handling path); idempotent."""
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(_STOP_GRACE_S)
            self._proc = None
        self._close_conn()


class WorkerTeam:
    """N worker processes behind a slot queue, with restart-on-crash.

    ``factory(slot)`` builds an *unstarted* :class:`WorkerProcess` for a
    slot; it is called at :meth:`start` and again whenever a crashed
    worker is replaced, so it must capture current state (a respawned
    worker is born up to date — control messages are never replayed).

    Dispatch protocol: :meth:`lease` a slot, :meth:`request` against it,
    :meth:`release` it.  ``release`` is where crash recovery happens: a
    dead worker is replaced before the slot re-enters the queue, and
    ``on_restart(slot)`` fires so the owner can count it (the serving
    pool turns that into a restarts metric; the failed request itself
    already fed the circuit breaker).
    """

    def __init__(
        self,
        size: int,
        factory: Callable[[int], WorkerProcess],
        *,
        name: str = "workers",
        on_restart: Callable[[int], None] | None = None,
    ) -> None:
        if size < 1:
            raise ExecutionError(f"worker team size must be >= 1, got {size}")
        self.size = size
        self.name = name
        self._factory = factory
        self._on_restart = on_restart
        self._workers: list[WorkerProcess | None] = [None] * size
        self._restarts = [0] * size
        self._slots: "queue.Queue[int]" = queue.Queue()
        self._started = False
        self._stopped = False
        self._broadcast_lock = threading.Lock()
        self._atexit = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerTeam":
        if self._started:
            return self
        for slot in range(self.size):
            self._workers[slot] = self._factory(slot).start()
            self._slots.put(slot)
        self._started = True
        # Belt and braces on top of daemonized children: an interpreter
        # exiting without stop() (a test crash, a KeyboardInterrupt in a
        # CLI run) still joins the workers instead of orphaning them.
        self._atexit = self.stop
        atexit.register(self._atexit)
        return self

    def stop(self) -> None:
        """Stop every worker (idempotent); the team cannot be restarted."""
        if self._stopped:
            return
        self._stopped = True
        if self._atexit is not None:
            atexit.unregister(self._atexit)
            self._atexit = None
        for worker in self._workers:
            if worker is not None:
                worker.stop()
        self._workers = [None] * self.size

    def __enter__(self) -> "WorkerTeam":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def lease(self, timeout: float | None = None) -> int:
        """Claim a free slot (blocking); the caller must release it."""
        if not self._started or self._stopped:
            raise WorkerCrashError(f"worker team {self.name!r} is not running")
        try:
            return self._slots.get(timeout=timeout)
        except queue.Empty:
            raise WorkerCrashError(
                f"no free worker in team {self.name!r} within {timeout}s"
            ) from None

    def worker(self, slot: int) -> WorkerProcess:
        worker = self._workers[slot]
        if worker is None:
            raise WorkerCrashError(f"worker slot {slot} is not running")
        return worker

    def release(self, slot: int) -> None:
        """Return a slot; a dead worker is replaced before requeueing."""
        if self._stopped:
            return
        worker = self._workers[slot]
        if worker is None or not worker.alive:
            if worker is not None:
                worker.kill()
            self._workers[slot] = self._factory(slot).start()
            self._restarts[slot] += 1
            if self._on_restart is not None:
                self._on_restart(slot)
        self._slots.put(slot)

    def request(self, slot: int, msg: Any, timeout: float | None = None) -> Any:
        return self.worker(slot).request(msg, timeout=timeout)

    @contextmanager
    def all_slots(self, timeout: float | None = None):
        """Lease every slot at once (quiesce): no request is in flight.

        Serialized against other ``all_slots`` users by an internal lock,
        so two quiesce-style operations (a broadcast and a warmup, say)
        cannot deadlock waiting for each other's slots.
        """
        with self._broadcast_lock:
            slots = [self.lease(timeout=timeout) for _ in range(self.size)]
            try:
                yield slots
            finally:
                for slot in slots:
                    self.release(slot)

    def broadcast(self, msg: Any, timeout: float | None = None) -> list[Any]:
        """Send one control message to every worker; replies per slot.

        All slots are leased first, so a broadcast never interleaves with
        an in-flight request and never races a concurrent respawn.  A
        worker that dies mid-broadcast is replaced (its reply is ``None``)
        — the factory rebuilds it from current state, so the lost message
        is already reflected in the replacement.
        """
        replies: list[Any] = [None] * self.size
        with self.all_slots(timeout=timeout) as slots:
            for slot in slots:
                try:
                    replies[slot] = self.worker(slot).request(msg, timeout=timeout)
                except WorkerCrashError:
                    pass  # release() puts a fresh worker in the slot
        return replies

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> list[dict]:
        """Per-slot liveness for dashboards: pid, alive, restart count."""
        out = []
        for slot in range(self.size):
            worker = self._workers[slot]
            out.append(
                {
                    "worker": slot,
                    "pid": worker.pid if worker is not None else None,
                    "alive": worker.alive if worker is not None else False,
                    "restarts": self._restarts[slot],
                }
            )
        return out
