"""Hyperparameter and coarse architecture search.

"Overton searches over relatively limited large blocks, e.g., should we use
an LSTM or CNN, not at a fine-grained level of connections" (§4).  The
controller evaluates concrete :class:`ModelConfig` candidates (from
``TuningSpec.expand()``) and keeps a full trial log.  Grid, random, and
successive-halving strategies are provided; the paper notes fancier NAS
had diminishing returns.

Every strategy scores its candidates through an ``executor`` — a
:class:`repro.exec.TrialExecutor`, which runs them inline with
``workers=1`` or fans them out across worker processes, and gathers
scores back in candidate order either way, so the trial log,
tie-breaking, and the chosen best do not depend on the worker count.
Successive halving parallelizes *within* each rung: a rung is a barrier
(survivors are chosen from complete rung scores), so the recorded rung
ordering is preserved no matter how many workers race inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.tuning_spec import ModelConfig, TrainerConfig, TuningSpec
from repro.errors import TuningError

if TYPE_CHECKING:  # repro.exec depends on this module; keep imports lazy
    from repro.exec.executor import TrialExecutor


@dataclass
class Trial:
    """One evaluated candidate."""

    config: ModelConfig
    score: float
    rung: int = 0


@dataclass
class SearchResult:
    """Best candidate plus the full log."""

    best_config: ModelConfig
    best_score: float
    trials: list[Trial] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        return len(self.trials)


def grid_search(spec: TuningSpec, executor: "TrialExecutor") -> SearchResult:
    """Evaluate every candidate in the spec's cross product."""
    return _evaluate_all(spec.expand(), executor)


def random_search(
    spec: TuningSpec,
    executor: "TrialExecutor",
    num_trials: int = 8,
    seed: int = 0,
) -> SearchResult:
    """Evaluate a random subset of the grid (Li & Talwalkar 2019 style)."""
    if num_trials <= 0:
        raise TuningError("num_trials must be positive")
    candidates = spec.expand()
    rng = np.random.default_rng(seed)
    if num_trials >= len(candidates):
        picked = candidates
    else:
        idx = rng.choice(len(candidates), size=num_trials, replace=False)
        picked = [candidates[i] for i in idx]
    return _evaluate_all(picked, executor)


def successive_halving(
    spec: TuningSpec,
    executor: "TrialExecutor",
    min_epochs: int = 2,
    max_epochs: int = 8,
    reduction: int = 2,
    seed: int = 0,
) -> SearchResult:
    """Successive halving over training epochs.

    All candidates train for ``min_epochs``; the top ``1/reduction`` advance
    with doubled budget until ``max_epochs``.  Each trial receives its
    rung's epochs as its budget.  Each rung's survivors are scored
    together (in parallel with ``workers > 1``); rungs themselves stay
    strictly ordered because survivor selection needs the whole rung.
    """
    if reduction < 2:
        raise TuningError("reduction factor must be >= 2")
    if "epochs" in spec.trainer_options:
        # Halving owns the epochs axis (every candidate's epochs is
        # rewritten to its rung budget); expanding it would only produce
        # duplicate candidates that waste trials and survivor slots.
        spec = TuningSpec(
            payload_options=spec.payload_options,
            trainer_options={
                k: v for k, v in spec.trainer_options.items() if k != "epochs"
            },
        )
    candidates = spec.expand()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(candidates))
    survivors = [candidates[i] for i in order]
    trials: list[Trial] = []
    budget = min_epochs
    rung = 0
    scored: list[tuple[ModelConfig, float]] = []
    while survivors:
        rung_configs = [_with_epochs(config, budget) for config in survivors]
        scored = []
        for outcome in executor.evaluate(rung_configs, budget=budget):
            trials.append(Trial(config=outcome.config, score=outcome.score, rung=rung))
            scored.append((outcome.config, outcome.score))
        scored.sort(key=lambda pair: pair[1], reverse=True)
        if budget >= max_epochs or len(scored) == 1:
            break
        keep = max(1, math.ceil(len(scored) / reduction))
        survivors = [config for config, _ in scored[:keep]]
        budget = min(budget * reduction, max_epochs)
        rung += 1
    best_config, best_score = scored[0]
    return SearchResult(best_config=best_config, best_score=best_score, trials=trials)


def _with_epochs(config: ModelConfig, epochs: int) -> ModelConfig:
    trainer = TrainerConfig(**{**config.trainer.to_dict(), "epochs": epochs})
    return ModelConfig(payloads=dict(config.payloads), trainer=trainer)


def _evaluate_all(
    candidates: Sequence[ModelConfig], executor: "TrialExecutor"
) -> SearchResult:
    if not candidates:
        raise TuningError("no candidates to evaluate")
    outcomes = executor.evaluate(candidates)
    trials = [Trial(config=o.config, score=o.score) for o in outcomes]
    best = trials[0]
    for trial in trials[1:]:
        if trial.score > best.score:
            best = trial
    return SearchResult(best_config=best.config, best_score=best.score, trials=trials)
