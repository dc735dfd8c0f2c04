"""Learning-rate schedules.

A schedule wraps an optimizer and mutates its ``lr`` each time ``step()`` is
called; training loops call the schedule once per optimizer step.
"""

from __future__ import annotations


from repro.optim.optimizer import Optimizer


class Schedule:
    """Base schedule."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self._step = 0

    def step(self) -> None:
        self._step += 1
        self.optimizer.lr = self.lr_at(self._step)

    def lr_at(self, step: int) -> float:
        raise NotImplementedError


class ConstantSchedule(Schedule):
    """No change; exists so training code can always hold a schedule."""

    def lr_at(self, step: int) -> float:
        return self.base_lr
