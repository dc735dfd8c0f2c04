"""Optimizers and learning-rate schedules."""

from repro.optim.optimizer import Optimizer, clip_grad_norm, grad_norm
from repro.optim.sgd import SGD
from repro.optim.adam import Adam, AdamW
from repro.optim.schedule import ConstantSchedule, Schedule

__all__ = [
    "Optimizer",
    "clip_grad_norm",
    "grad_norm",
    "SGD",
    "Adam",
    "AdamW",
    "Schedule",
    "ConstantSchedule",
]
