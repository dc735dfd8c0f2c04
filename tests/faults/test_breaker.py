"""The circuit-breaker state machine, driven by a fake clock."""

import pytest

from repro.errors import ReproError, ServeError
from repro.serve import BreakerPolicy, CircuitBreaker


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def breaker(
    failure_threshold: int = 3,
    reset_timeout_s: float = 10.0,
    half_open_successes: int = 1,
    transitions: list | None = None,
):
    clock = Clock()
    policy = BreakerPolicy(
        failure_threshold=failure_threshold,
        reset_timeout_s=reset_timeout_s,
        half_open_successes=half_open_successes,
    )
    on_transition = None
    if transitions is not None:
        on_transition = lambda old, new: transitions.append((old, new))  # noqa: E731
    return CircuitBreaker(policy, clock=clock, on_transition=on_transition), clock


class TestPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"reset_timeout_s": 0.0},
            {"half_open_successes": 0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ServeError):
            BreakerPolicy(**kwargs)

    def test_policy_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            BreakerPolicy(failure_threshold=-1)


class TestStateMachine:
    def test_starts_closed_and_allowing(self):
        b, _ = breaker()
        assert b.state == "closed"
        assert b.allow()

    def test_failures_below_threshold_stay_closed(self):
        b, _ = breaker(failure_threshold=3)
        b.record_failure()
        b.record_failure()
        assert b.state == "closed" and b.allow()

    def test_a_success_resets_the_failure_streak(self):
        b, _ = breaker(failure_threshold=3)
        for _ in range(5):
            b.record_failure()
            b.record_failure()
            b.record_success()
        assert b.state == "closed"

    def test_consecutive_failures_open_the_circuit(self):
        b, _ = breaker(failure_threshold=3)
        for _ in range(3):
            b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        assert b.opens == 1

    def test_open_flips_half_open_after_the_reset_timeout(self):
        b, clock = breaker(failure_threshold=1, reset_timeout_s=10.0)
        b.record_failure()
        clock.advance(9.9)
        assert not b.allow()
        clock.advance(0.2)
        assert b.allow()
        assert b.state == "half_open"

    def test_half_open_failure_reopens_immediately(self):
        b, clock = breaker(failure_threshold=2, reset_timeout_s=10.0)
        b.record_failure()
        b.record_failure()
        clock.advance(11.0)
        assert b.allow()
        b.record_failure()  # one probe failure, not a full streak
        assert b.state == "open"
        assert b.opens == 2

    def test_half_open_needs_a_clean_streak_to_close(self):
        b, clock = breaker(
            failure_threshold=1, reset_timeout_s=10.0, half_open_successes=2
        )
        b.record_failure()
        clock.advance(11.0)
        assert b.allow()
        b.record_success()
        assert b.state == "half_open"
        b.record_success()
        assert b.state == "closed"
        assert b.allow()

    def test_success_while_closed_is_a_no_op(self):
        b, _ = breaker()
        b.record_success()
        assert b.state == "closed"


class TestObservers:
    def test_transitions_emit_in_lifecycle_order(self):
        transitions: list[tuple[str, str]] = []
        b, clock = breaker(
            failure_threshold=1, reset_timeout_s=10.0, transitions=transitions
        )
        b.record_failure()
        clock.advance(11.0)
        b.allow()
        b.record_failure()
        clock.advance(11.0)
        b.allow()
        b.record_success()
        assert transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_to_dict_snapshots_state_and_open_age(self):
        b, clock = breaker(failure_threshold=1)
        assert b.to_dict() == {
            "state": "closed",
            "consecutive_failures": 0,
            "opens": 0,
            "open_for_s": None,
        }
        b.record_failure()
        clock.advance(4.0)
        snapshot = b.to_dict()
        assert snapshot["state"] == "open"
        assert snapshot["opens"] == 1
        assert snapshot["open_for_s"] == pytest.approx(4.0)
