"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor, dropout_mask, is_grad_enabled


class Dropout(Module):
    """Inverted dropout: active only in a taped training-mode forward.

    Off in eval mode, and off whenever tape recording is off
    (:func:`repro.tensor.no_grad`): a tape-free forward is inference, so it
    neither masks nor draws from the generator, whatever the module's mode.
    That is what lets ``MultitaskModel.predict`` serve a model in train
    mode without toggling the mode of every submodule.

    Owns its own generator (seeded at construction) so that a trained model's
    forward passes are reproducible given a seed, which the tuning controller
    relies on when comparing trials.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        if self.rate == 0.0 or not (self._training and is_grad_enabled()):
            return x
        mask = dropout_mask(x.shape, self.rate, self._rng)
        return x * Tensor(mask)
