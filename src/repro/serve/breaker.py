"""Per-tier circuit breakers: stop routing traffic into a failing replica.

A replica that throws on every batch does not get better because callers
keep hitting it — it just burns queue time and fails requests that a
healthy tier could have answered.  The classic remedy is a circuit
breaker per dependency: **closed** while the replica behaves, **open**
(reject immediately, degrade elsewhere) after ``failure_threshold``
consecutive failures, and **half-open** after ``reset_timeout_s`` — probe
traffic is allowed through, one clean streak closes the circuit, one
failure re-opens it.

The breaker is deliberately gateway-agnostic: ``allow()`` /
``record_success()`` / ``record_failure()`` with an injectable clock, so
the state machine is unit-testable without threads or sleeps.  The
gateway owns one breaker per tier and consults them at routing time
(see :meth:`~repro.serve.gateway.ServingGateway.submit_async`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.codec import Spec
from repro.errors import ServeError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy(Spec, error=ServeError):
    """When a tier's circuit opens, and how it earns its way back.

    ``failure_threshold`` consecutive replica failures open the circuit;
    after ``reset_timeout_s`` the next ``allow()`` flips it half-open, and
    ``half_open_successes`` consecutive clean serves close it again (any
    failure while half-open re-opens immediately).
    """

    failure_threshold: int = 5
    reset_timeout_s: float = 30.0
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ServeError("failure_threshold must be >= 1")
        if self.reset_timeout_s <= 0:
            raise ServeError("reset_timeout_s must be positive")
        if self.half_open_successes < 1:
            raise ServeError("half_open_successes must be >= 1")


class CircuitBreaker:
    """One dependency's closed/open/half-open state machine, thread-safe.

    ``on_transition(old_state, new_state)`` is invoked (outside the lock)
    whenever the state changes, so an owner can journal or meter the flip
    without the breaker knowing about telemetry.
    """

    def __init__(
        self,
        policy: BreakerPolicy | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._half_open_streak = 0
        self._opened_at: float | None = None
        self.opens = 0  # lifetime count of closed/half-open -> open flips

    @property
    def state(self) -> str:
        """The current state, advancing open -> half-open if the wait is up."""
        with self._lock:
            transition = self._maybe_half_open()
        self._emit(transition)
        return self._state

    def allow(self) -> bool:
        """Whether a request may be routed to this dependency right now."""
        with self._lock:
            transition = self._maybe_half_open()
            allowed = self._state != OPEN
        self._emit(transition)
        return allowed

    def record_success(self) -> None:
        """A serve completed cleanly; may close a half-open circuit."""
        transition = None
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._half_open_streak += 1
                if self._half_open_streak >= self.policy.half_open_successes:
                    transition = (self._state, CLOSED)
                    self._state = CLOSED
                    self._opened_at = None
        self._emit(transition)

    def record_failure(self) -> None:
        """A serve failed; may open the circuit (from closed or half-open)."""
        transition = None
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= self.policy.failure_threshold
            ):
                transition = (self._state, OPEN)
                self._state = OPEN
                self._opened_at = self._clock()
                self._half_open_streak = 0
                self.opens += 1
        self._emit(transition)

    def to_dict(self) -> dict:
        """JSON-able snapshot for ``stats()`` / dashboards."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "opens": self.opens,
                "open_for_s": (
                    self._clock() - self._opened_at
                    if self._opened_at is not None
                    else None
                ),
            }

    def _maybe_half_open(self) -> tuple[str, str] | None:
        """Open -> half-open once the reset timeout has elapsed (locked)."""
        if (
            self._state == OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.policy.reset_timeout_s
        ):
            self._state = HALF_OPEN
            self._half_open_streak = 0
            return (OPEN, HALF_OPEN)
        return None

    def _emit(self, transition: tuple[str, str] | None) -> None:
        if transition is not None and self._on_transition is not None:
            self._on_transition(*transition)
