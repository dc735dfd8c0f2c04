"""The multitask trainer.

Consumes the compiled model, batched inputs, and per-task probabilistic
targets; produces a trained model plus a training history.  Early stopping
and best-epoch checkpointing run against the dev split's gold labels, which
mirrors the paper's practice of manual validation data ("validation is
still done manually, but this requires orders of magnitude less data than
training", §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.tuning_spec import TrainerConfig
from repro.data.batching import encode_inputs, iterate_batches
from repro.data.encoded import EncodedDataset
from repro.data.record import Record
from repro.data.vocab import Vocab
from repro.errors import TrainingError
from repro.model.multitask import MultitaskModel
from repro.model.task_heads import TaskTargets
from repro.obs import get_tracer
from repro.optim import Adam, AdamW, ConstantSchedule, SGD, clip_grad_norm
from repro.tensor import dtype_policy
from repro.training.evaluation import evaluate, mean_primary


@dataclass
class EpochStats:
    """Loss and dev score for one training epoch."""

    epoch: int
    train_loss: float
    dev_score: float | None = None


@dataclass
class TrainHistory:
    """The full per-epoch training record, plus early-stopping outcome."""

    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_score: float = -np.inf
    stopped_early: bool = False

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].train_loss if self.epochs else float("nan")


def _build_optimizer(model: MultitaskModel, config: TrainerConfig):
    params = model.parameters()
    if config.optimizer == "adam":
        return Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    if config.optimizer == "adamw":
        return AdamW(params, lr=config.lr, weight_decay=config.weight_decay or 0.01)
    if config.optimizer == "sgd":
        return SGD(params, lr=config.lr, momentum=0.9, weight_decay=config.weight_decay)
    raise TrainingError(f"unknown optimizer {config.optimizer!r}")


def _slice_targets(targets: dict[str, TaskTargets], idx: np.ndarray) -> dict[str, TaskTargets]:
    """Select the batch rows of every target array."""
    out = {}
    for name, t in targets.items():
        out[name] = TaskTargets(
            probs=t.probs[idx],
            weights=t.weights[idx],
            class_weights=t.class_weights,
            membership=t.membership[idx] if t.membership is not None else None,
        )
    return out


def _cast_targets(targets: dict[str, TaskTargets], dtype) -> dict[str, TaskTargets]:
    """Cast float target arrays to ``dtype`` once, up front.

    Supervision produces float64 targets; casting here (a no-op under the
    default policy) keeps the loss functions from re-casting every batch's
    slice on every epoch of a float32 fit.
    """

    def cast(a):
        if a is not None and a.dtype.kind == "f" and a.dtype != dtype:
            return a.astype(dtype)
        return a

    return {
        name: TaskTargets(
            probs=cast(t.probs),
            weights=cast(t.weights),
            class_weights=cast(t.class_weights),
            membership=cast(t.membership),
        )
        for name, t in targets.items()
    }


class Trainer:
    """Runs the training loop for a compiled multitask model."""

    def __init__(self, model: MultitaskModel, config: TrainerConfig) -> None:
        self.model = model
        self.config = config
        self.optimizer = _build_optimizer(model, config)
        self.schedule = ConstantSchedule(self.optimizer)

    def fit(
        self,
        records: Sequence[Record],
        vocabs: dict[str, Vocab],
        targets: dict[str, TaskTargets],
        dev_records: Sequence[Record] | None = None,
        gold_source: str = "gold",
        callback: Callable[[EpochStats], None] | None = None,
        cache_batches: bool = True,
    ) -> TrainHistory:
        """Train on ``records``; optionally track dev quality per epoch.

        ``targets`` arrays must align with ``records`` order.  With a dev
        set and ``config.patience > 0``, training stops after ``patience``
        epochs without dev improvement and the best-epoch weights are
        restored.

        ``cache_batches`` (the default) encodes the train and dev records
        once up front (:class:`~repro.data.EncodedDataset`) and serves every
        epoch's batches as row slices of that encoding; results are
        bit-identical to re-encoding per batch — same RNG stream, same
        batch order, same arrays — just without the per-epoch encode cost.
        Pass ``False`` to force the legacy re-encoding path (used by the
        core benchmark and the parity suite).
        """
        if not records:
            raise TrainingError("cannot train on an empty dataset")
        for name, t in targets.items():
            if len(t.probs) != len(records):
                raise TrainingError(
                    f"targets for {name!r} have {len(t.probs)} rows for "
                    f"{len(records)} records"
                )
        schema = self.model.schema
        targets = _cast_targets(targets, self.model.dtype)
        rng = np.random.default_rng(self.config.seed)
        history = TrainHistory()
        best_state: dict | None = None
        epochs_since_best = 0

        encoded: EncodedDataset | None = None
        dev_encoded: EncodedDataset | None = None
        # Encode under the model's dtype policy: a float32 model trains on
        # float32 batch arrays (half the cache memory, no per-forward
        # re-cast); under the default float64 policy this is a no-op.
        if cache_batches:
            with dtype_policy(self.model.dtype):
                encoded = EncodedDataset(records, schema, vocabs)
                if dev_records:
                    dev_encoded = EncodedDataset(dev_records, schema, vocabs)

        tracer = get_tracer()
        self.model.train()
        for epoch in range(self.config.epochs):
            losses = []
            with tracer.span("train.epoch", epoch=epoch):
                for idx in iterate_batches(
                    len(records), self.config.batch_size, rng
                ):
                    if encoded is not None:
                        batch = encoded.batch(idx)
                    else:
                        batch_records = [records[int(i)] for i in idx]
                        with dtype_policy(self.model.dtype):
                            batch = encode_inputs(
                                batch_records, schema, vocabs, indices=idx
                            )
                    outputs = self.model(batch)
                    loss = self.model.compute_loss(
                        outputs,
                        _slice_targets(targets, idx),
                        slice_weight=self.config.slice_weight,
                    )
                    loss_value = loss.item()
                    if not np.isfinite(loss_value):
                        raise TrainingError(
                            f"non-finite loss at epoch {epoch}: {loss_value}; "
                            "lower the learning rate or enable gradient clipping"
                        )
                    self.optimizer.zero_grad()
                    loss.backward()
                    # The optimizer's list is the model's parameters in the
                    # same order, without a walk of the module tree per step.
                    if self.config.clip_norm > 0:
                        clip_grad_norm(self.optimizer.params, self.config.clip_norm)
                    self.optimizer.step()
                    self.schedule.step()
                    losses.append(loss_value)

            stats = EpochStats(epoch=epoch, train_loss=float(np.mean(losses)))
            if dev_records:
                evals = evaluate(
                    self.model,
                    dev_records,
                    schema,
                    vocabs,
                    gold_source,
                    encoded=dev_encoded,
                )
                stats.dev_score = mean_primary(evals)
                if stats.dev_score > history.best_dev_score:
                    history.best_dev_score = stats.dev_score
                    history.best_epoch = epoch
                    best_state = self.model.state_dict()
                    epochs_since_best = 0
                else:
                    epochs_since_best += 1
            history.epochs.append(stats)
            if callback is not None:
                callback(stats)
            if (
                dev_records
                and self.config.patience > 0
                and epochs_since_best >= self.config.patience
            ):
                history.stopped_early = True
                break

        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return history
