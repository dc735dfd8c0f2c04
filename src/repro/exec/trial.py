"""The tuning trial payload, and the model a finished search returns.

One trial = fit the application with a concrete :class:`ModelConfig` and
score the dev split with the gold source.  The heavyweight state travels
once per worker as a :class:`TuneContext`:
the application, the dataset, and the data plane
:meth:`~repro.api.Application.prepare` built from them in the parent
(splits, vocabularies, and the supervision the executor combines in it
before forking for the first cache miss), so a trial costs a model
compile, its training steps and one dev evaluation.  Supervision is
combined at most once per search, and only when something trains.  The
per-trial payload is just the candidate config.

Training is fully deterministic given (config, data), so a worker's score
is bit-identical to the score the parent process would have computed, and
no model weights cross process boundaries: :func:`winning_model` restores
the elected model from the trial cache (checking that it still earns the
elected score), takes the one an inline ``workers=1`` trial trained, or
re-trains the elected config in the parent from the same data plane.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.tuning_spec import ModelConfig
from repro.data.dataset import Dataset
from repro.errors import DeploymentError
from repro.exec.cache import trial_key
from repro.training.trainer import EpochStats, TrainHistory

if TYPE_CHECKING:  # circular: application.py imports this module's builder
    from repro.api.application import Application, TrainingData
    from repro.api.run import TrainedModel
    from repro.exec.executor import TrialExecutor


@dataclass
class TuneContext:
    """Everything a worker needs to run trials; shipped once per worker.

    ``best`` is the ``(config, score, trained)`` of the best trial trained
    in the process that built the context (``owner``), first strictly
    greater score winning, as the strategies elect.  Worker processes
    keep nothing: their models cannot reach the parent anyway.
    """

    application: "Application"
    dataset: Dataset
    data: "TrainingData"
    method: str | None = None
    owner: int = field(default_factory=os.getpid)
    best: "tuple[ModelConfig, float, TrainedModel] | None" = None


def run_tuning_trial(
    context: TuneContext, config: ModelConfig, seed: int, budget: int | None
) -> float:
    """Fit one candidate and return its mean dev score.

    Fit on the train split, evaluate every task on dev against the gold
    source, average the primary metrics.  Model training seeds itself
    from the config, so the per-trial ``seed`` is recorded but unused
    here — deliberately: the inline ``workers=1`` path runs in the
    caller's process, and touching the global numpy RNG there would
    clobber the caller's ambient state.  ``budget`` is already baked into
    ``config.trainer.epochs`` by the search strategy.
    """
    app, data = context.application, context.data
    trained = app.fit_prepared(data, config).trained
    score = app.dev_score(data, trained)
    if os.getpid() == context.owner and (
        context.best is None or score > context.best[1]
    ):
        context.best = (config, score, trained)
    return score


def winning_model(
    executor: "TrialExecutor", config: ModelConfig, score: float
) -> "TrainedModel":
    """The trained model for the config a search elected with ``score``.

    ``Application.fit`` is a pure function of the executor's namespace
    (application, dataset, method) and the config, so that pair keys the
    model.  With a cache, a state stored under that key by an earlier
    search is restored instead of trained — accepted only if it loads
    into the model ``config`` compiles to and re-scores on dev to exactly
    ``score``; anything else is a corrupt miss.  A miss takes the model
    the elected trial trained in this process (``TuneContext.best``) when
    its config and score match, else trains the config on the executor's
    data plane, and (re)writes the entry.  ``executor.stats`` counts the
    ``restored`` and the ``kept`` models.
    """
    context: TuneContext = executor.context
    app, data = context.application, context.data
    best, context.best = context.best, None
    cache = executor.cache
    key = trial_key(executor.namespace, config)
    stored = cache.get_state(key) if cache is not None else None
    if stored is not None:
        state, meta = stored
        try:
            trained = app.restore(data, config, state, _history(meta["history"]))
            rescored = app.dev_score(data, trained)
            if rescored == score:
                executor.stats.restored += 1
                return trained
            reason = f"restored model scores {rescored!r} on dev, elected on {score!r}"
        except (DeploymentError, KeyError, TypeError, ValueError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        cache.note_corrupt_state(key, reason)
    if best is not None and best[0] == config and best[1] == score:
        executor.stats.kept += 1
        trained = best[2]
    else:
        trained = app.fit_prepared(data, config).trained
    if cache is not None:
        cache.put_state(
            key,
            trained.model.state_dict(),
            {"history": dataclasses.asdict(trained.history)},
        )
    return trained


def _history(spec: dict) -> TrainHistory:
    epochs = [EpochStats(**epoch) for epoch in spec["epochs"]]
    return TrainHistory(**{**spec, "epochs": epochs})
