"""The parallel experiment executor: trial fan-out across worker processes.

The paper's tuning loop ("Overton searches over relatively limited large
blocks", §4) is embarrassingly parallel — every candidate trains
independently — yet a serial controller evaluates them one at a time.
:class:`TrialExecutor` owns the fan-out: candidates are dispatched to
worker processes as picklable payloads, each trial gets a deterministic
seed derived from (base seed, candidate config, budget), results are
gathered back *in dispatch order* so ``SearchResult.trials`` is reproducible
regardless of which worker finished first, and a
:class:`repro.exec.cache.TrialCache` short-circuits candidates that a
previous run already scored.

``workers=1`` never starts a process: trials run inline in the calling
process, in the same order, with the same seeds — the serial path is the
parallel path with the workers removed, not a separate code path to drift.

The workers are the repo's one process pool, a
:class:`repro.exec.workers.WorkerTeam`: resident processes that inherit
the trial function and its context at fork (nothing heavy is pickled; only
the per-trial payloads travel through the pipes), fed by one dispatcher
thread per slot doing lease → request → release.  A worker that dies
mid-trial — killed, out of memory, ``os._exit`` — is a *failed trial*
(:class:`~repro.errors.WorkerCrashError` travelling as data, subject to
``retries`` / ``on_error``) and its slot gets a fresh process; workers
never outlive their parent, even one that was SIGKILLed mid-search.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.tuning_spec import ModelConfig
from repro.errors import TuningError
from repro.exec.cache import TrialCache, trial_key
from repro.exec.trial import TuneContext
from repro.exec.workers import WorkerProcess, WorkerTeam, serve_connection
from repro.faults import fault_point
from repro.obs import get_registry, get_tracer

# Chaos hook: fires per dispatched trial, inside the worker adapter (the
# armed state is inherited by forked workers).  See repro.faults.
_FP_TRIAL = fault_point("exec.trial")

# How often a busy worker checks that its parent is still there.  An idle
# worker learns it from EOF on its pipe at once; one in the middle of a
# trial is not reading the pipe, and a trial can run for minutes.
_PARENT_POLL_S = 0.2


def _invoke(
    fn: Callable, context: Any, task: tuple[int, Any]
) -> tuple[int, Any, float, str | None]:
    """Run one payload; never raises (errors travel as data)."""
    index, payload = task
    start = time.perf_counter()
    try:
        value = fn(context, payload)
        return index, value, time.perf_counter() - start, None
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        message = f"{type(exc).__name__}: {exc}"
        return index, None, time.perf_counter() - start, message


def _exit_with_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _worker_main(conn, fn: Callable, context: Any) -> None:
    """Entry point of one worker process: answer payloads until EOF."""
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()
    serve_connection(conn, lambda task: _invoke(fn, context, task))


def trial_seed(
    base_seed: int, config: ModelConfig, budget: int | None = None
) -> int:
    """Deterministic per-trial seed: stable hash of (base seed, trial content).

    Derived from the same content the trial cache keys on — never from
    dispatch position — so re-evaluating a config (resume, a widened
    search, a later rung with the same budget) always hands the trial the
    seed its cached score was computed under.
    """
    canonical = json.dumps(
        {"config": config.to_dict(), "budget": budget}, sort_keys=True
    )
    digest = hashlib.sha256(f"{base_seed}:{canonical}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class TrialTask:
    """One dispatched candidate: picklable, self-describing."""

    index: int
    config: ModelConfig
    seed: int
    budget: int | None = None


@dataclass
class TrialOutcome:
    """One gathered result, in dispatch order.

    A ``skipped`` outcome is a trial that still failed after every retry
    under ``on_error="skip"``: its ``score`` is ``-inf`` (safe — every
    search path maximizes) and ``error`` holds the last failure message.
    """

    index: int
    config: ModelConfig
    score: float
    seed: int
    cached: bool = False
    duration_s: float = 0.0
    skipped: bool = False
    error: str | None = None


@dataclass
class ExecutorStats:
    """Counters for one executor's lifetime (cache behaviour, work done).

    ``restored`` counts elected models that came back from the cache
    instead of being trained, and ``kept`` those an inline trial had
    already trained (:func:`repro.exec.trial.winning_model`).
    """

    dispatched: int = 0
    executed: int = 0
    cache_hits: int = 0
    errors: int = 0
    retries: int = 0
    skipped: int = 0
    restored: int = 0
    kept: int = 0
    total_duration_s: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _trial_adapter(context: tuple, task: TrialTask) -> float:
    """Module-level bridge so ``evaluate`` payloads stay picklable.

    The cache write happens *here*, in the worker, the moment the trial
    finishes (``TrialCache.put`` is an atomic file write, safe from any
    process): an interrupted or partially failing search keeps every
    trial that completed, so resume really does skip finished work.
    """
    run_trial, user_context, cache, namespace = context
    _FP_TRIAL.hit(trial=task.index)
    start = time.perf_counter()
    score = run_trial(user_context, task.config, task.seed, task.budget)
    if cache is not None:
        cache.put(
            trial_key(namespace, task.config, task.budget, task.seed),
            float(score),
            seed=task.seed,
            duration_s=time.perf_counter() - start,
        )
    return score


def _fan_out(team: WorkerTeam, threads: int, tasks: list[tuple[int, Any]]) -> list:
    """Run ``tasks`` on ``team``; one result per task, in task order.

    Each dispatcher thread takes the next undispatched task, leases a
    worker, waits for its reply and releases the slot — ``release``
    replaces a worker that died, so the death of one costs one trial.
    Nothing raises out of a dispatcher: whatever goes wrong between lease
    and reply becomes that task's error, like any failure in the worker.
    """
    results: list = [None] * len(tasks)
    pending: "queue.SimpleQueue[tuple[int, Any]]" = queue.SimpleQueue()
    for task in tasks:
        pending.put(task)

    def dispatch() -> None:
        while True:
            try:
                task = pending.get_nowait()
            except queue.Empty:
                return
            index = task[0]
            start = time.perf_counter()
            try:
                slot = team.lease()
                try:
                    results[index] = team.request(slot, task)
                finally:
                    team.release(slot)
            except Exception as exc:  # noqa: BLE001 - reported as the trial's error
                message = f"{type(exc).__name__}: {exc}"
                results[index] = (index, None, time.perf_counter() - start, message)

    dispatchers = [
        threading.Thread(target=dispatch, name=f"trial-dispatch-{n}", daemon=True)
        for n in range(threads)
    ]
    for thread in dispatchers:
        thread.start()
    for thread in dispatchers:
        thread.join()
    return results


class TrialExecutor:
    """Runs tuning trials across worker processes, results in order.

    ``run_trial(context, config, seed, budget) -> score`` is what
    :meth:`evaluate` runs per candidate.
    """

    def __init__(
        self,
        run_trial: Callable[[Any, ModelConfig, int, "int | None"], float],
        *,
        context: Any = None,
        workers: int = 1,
        cache: TrialCache | None = None,
        namespace: str = "",
        base_seed: int = 0,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
        on_error: str = "raise",
    ) -> None:
        if workers < 1:
            raise TuningError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise TuningError(f"retries must be >= 0, got {retries}")
        if retry_backoff_s < 0:
            raise TuningError("retry_backoff_s must be non-negative")
        if on_error not in ("raise", "skip"):
            raise TuningError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}"
            )
        self.context = context
        self.workers = workers
        self.cache = cache
        self.namespace = namespace
        self.base_seed = base_seed
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.on_error = on_error
        self.stats = ExecutorStats()
        # Observability mirrors of ExecutorStats (one branch each while off).
        registry = get_registry()
        self._m_started = registry.counter(
            "repro_trials_started_total", "Trials dispatched for execution"
        )
        self._m_cached = registry.counter(
            "repro_trials_cached_total", "Trials answered from the trial cache"
        )
        self._m_failed = registry.counter(
            "repro_trials_failed_total", "Trials that raised in a worker"
        )
        self._m_retried = registry.counter(
            "repro_trials_retried_total",
            "Failed trials re-dispatched by the retry loop",
        )
        self._m_skipped = registry.counter(
            "repro_trials_skipped_total",
            "Trials skipped (score=-inf) after exhausting retries",
        )
        self._m_utilization = registry.gauge(
            "repro_exec_worker_utilization",
            "Busy fraction of the worker pool over the last fan-out",
        )
        # One stable dispatch payload per executor, so repeated evaluate()
        # calls (successive-halving rungs) reuse the same workers and really
        # do ship the context once per worker, not once per rung.
        self._dispatch_context = (run_trial, context, cache, namespace)
        self._team: WorkerTeam | None = None

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _ensure_team(self, size: int) -> WorkerTeam:
        if self._team is not None and self._team.size >= size:
            return self._team
        self.close()
        self._team = WorkerTeam(
            size,
            lambda slot: WorkerProcess(
                _worker_main,
                args=(_trial_adapter, self._dispatch_context),
                name=f"trial-worker-{slot}",
            ),
            name="trial-workers",
        ).start()
        return self._team

    def worker_pids(self) -> list[int]:
        """Pids of the live worker processes (empty inline or once closed)."""
        if self._team is None:
            return []
        return [w["pid"] for w in self._team.stats() if w["alive"]]

    def close(self) -> None:
        """Stop the worker processes (idempotent; new ones start on use)."""
        if self._team is not None:
            self._team.stop()
            self._team = None

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Trial evaluation (cache-aware)
    # ------------------------------------------------------------------
    def _run_detailed(
        self, trials: Sequence[TrialTask]
    ) -> list[tuple[int, Any, float, str | None]]:
        """Run ``trials``; ``(position, score, seconds, error)`` per trial."""
        tasks = list(enumerate(trials))
        started = time.perf_counter()
        if self.workers == 1:
            results = [
                _invoke(_trial_adapter, self._dispatch_context, task)
                for task in tasks
            ]
        else:
            size = min(self.workers, len(tasks))
            results = _fan_out(self._ensure_team(size), size, tasks)
        wall_s = time.perf_counter() - started
        self.stats.executed += len(results)
        busy_s = sum(r[2] for r in results)
        self.stats.total_duration_s += busy_s
        if wall_s > 0:
            pool_size = min(self.workers, len(tasks))
            self._m_utilization.set(min(busy_s / (wall_s * pool_size), 1.0))
        return results

    def evaluate(
        self, configs: Sequence[ModelConfig], budget: int | None = None
    ) -> list[TrialOutcome]:
        """Score every candidate, skipping ones the cache already holds.

        Results come back in candidate order.  Failing trials are
        re-dispatched up to ``retries`` times with exponential backoff
        (``retry_backoff_s * 2**attempt``); a trial that still fails
        either raises :class:`repro.errors.TuningError` naming the config
        (``on_error="raise"``, the default) or becomes a ``skipped``
        outcome with ``score=-inf`` (``on_error="skip"``) so one flaky
        candidate cannot sink a whole search.  If *every* trial fails,
        ``on_error="skip"`` still raises — a search with no survivors has
        no best candidate to return.
        """
        tasks = [
            TrialTask(
                index=index,
                config=config,
                seed=trial_seed(self.base_seed, config, budget),
                budget=budget,
            )
            for index, config in enumerate(configs)
        ]
        self.stats.dispatched += len(tasks)
        self._m_started.inc(len(tasks))

        outcomes: list[TrialOutcome | None] = [None] * len(tasks)
        misses: list[TrialTask] = []
        for task in tasks:
            entry = (
                self.cache.get(
                    trial_key(self.namespace, task.config, task.budget, task.seed)
                )
                if self.cache is not None
                else None
            )
            if entry is not None:
                self.stats.cache_hits += 1
                self._m_cached.inc()
                outcomes[task.index] = TrialOutcome(
                    index=task.index,
                    config=task.config,
                    score=entry.score,
                    seed=task.seed,
                    cached=True,
                    duration_s=entry.duration_s,
                )
            else:
                misses.append(task)

        if misses:
            # The cache write happens in _trial_adapter, in the worker,
            # which recomputes the key from the same content.
            with get_tracer().span(
                "exec.evaluate", trials=len(tasks), misses=len(misses)
            ):
                if isinstance(self.context, TuneContext):
                    # Combine supervision before any fork: workers inherit it.
                    self.context.data.combined  # noqa: B018
                detailed = self._run_detailed(misses)
            failures = [(i, err) for i, _, _, err in detailed if err is not None]
            attempt = 0
            while failures and attempt < self.retries:
                attempt += 1
                self.stats.retries += len(failures)
                self._m_retried.inc(len(failures))
                backoff = self.retry_backoff_s * (2 ** (attempt - 1))
                if backoff > 0:
                    time.sleep(backoff)
                retry_tasks = [misses[local] for local, _ in failures]
                retried = self._run_detailed(retry_tasks)
                # _run_detailed re-enumerates from 0: map each retried
                # result back to its position in the original miss list.
                for (local, _), (_, value, duration, err) in zip(
                    failures, retried
                ):
                    detailed[local] = (local, value, duration, err)
                failures = [
                    (i, err) for i, _, _, err in detailed if err is not None
                ]
            if failures:
                self.stats.errors += len(failures)
                self._m_failed.inc(len(failures))
                if self.on_error == "raise":
                    local_index, message = failures[0]
                    task = misses[local_index]
                    attempts_note = (
                        f" after {self.retries + 1} attempts"
                        if self.retries
                        else ""
                    )
                    raise TuningError(
                        f"trial {task.index} failed{attempts_note} "
                        f"({message}) for config: {task.config.to_json()}"
                    )
                self.stats.skipped += len(failures)
                self._m_skipped.inc(len(failures))
            for task, (_, score, duration, err) in zip(misses, detailed):
                if err is not None:
                    outcomes[task.index] = TrialOutcome(
                        index=task.index,
                        config=task.config,
                        score=float("-inf"),
                        seed=task.seed,
                        cached=False,
                        duration_s=duration,
                        skipped=True,
                        error=err,
                    )
                else:
                    outcomes[task.index] = TrialOutcome(
                        index=task.index,
                        config=task.config,
                        score=float(score),
                        seed=task.seed,
                        cached=False,
                        duration_s=duration,
                    )
        assert all(outcome is not None for outcome in outcomes)
        if outcomes and all(o.skipped for o in outcomes):  # type: ignore[union-attr]
            first = outcomes[0]
            raise TuningError(
                f"all {len(outcomes)} trials failed; "
                f"first error: {first.error}"  # type: ignore[union-attr]
            )
        return outcomes  # type: ignore[return-value]
