"""Core compute hot paths: tape-free inference and epoch-level batch caching.

The two hottest loops in the system are the serving forward pass (run on
every request, gradients never taken) and the training epoch (re-run
constantly as supervision shifts).  This bench measures both fast paths the
substrate provides:

* **tape-free inference** — ``repro.tensor.no_grad`` skips vjp-closure
  recording in every op, so a forward pass costs only its numpy arithmetic.
  Measured as forward passes/second on a recurrent-encoder model (the
  deepest tape: ~20 recorded ops per timestep), taped vs tape-free, with
  outputs asserted identical.
* **epoch-level batch caching** — ``Trainer.fit`` encodes the dataset
  once (:class:`repro.data.EncodedDataset`) and serves per-batch row views,
  instead of re-encoding the same records every epoch.  Measured as
  wall-clock for an identical fit against a local per-batch
  ``encode_inputs`` loop (the epoch before the cache), with per-epoch
  losses asserted identical.

Shape target: tape-free inference >= 2x taped throughput, cached epochs
>= 1.3x uncached wall-clock.  When ``BENCH_CORE_JSON`` is set (the
``tools/run_benchmarks.py`` driver does this) the metrics are written there
as the repo's core-compute perf trajectory.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.api import Application
from repro.core import ModelConfig, PayloadConfig, Schema, TrainerConfig
from repro.data import Dataset, EncodedDataset, encode_inputs, iterate_batches
from repro.model.compiler import compile_model
from repro.model.task_heads import TaskTargets
from repro.optim import clip_grad_norm
from repro.tensor import no_grad
from repro.training import Trainer
from repro.workloads import (
    FactoidGenerator,
    WorkloadConfig,
    apply_standard_weak_supervision,
)

from benchmarks.conftest import print_table

N_RECORDS = 400
EXTRA_TOKENS = 36
INFER_BATCH = 32
INFER_REPS = 40
EPOCHS = 6


def _workload(
    n: int,
    extra_tokens: int = EXTRA_TOKENS,
    train: float = 0.7,
    dev: float = 0.15,
):
    """The factoid workload stretched to document-length sequences.

    The generator's queries are ~10 tokens; the sequence tasks (POS,
    EntityType) are meant for full sentences, so each record is extended
    with filler context tokens (every source's sequence labels extended to
    match) and the schema's ``max_length`` raised accordingly.  Longer
    sequences make both hot paths representative: deeper recurrent tapes
    for inference, and real per-record tokenization work for the epoch
    loop.
    """
    base = FactoidGenerator(WorkloadConfig(n=n, seed=0, train=train, dev=dev)).generate()
    apply_standard_weak_supervision(base.records, seed=0)
    rng = np.random.default_rng(7)
    filler = [f"filler{i:03d}" for i in range(160)]
    for record in base.records:
        k = int(rng.integers(extra_tokens // 2, extra_tokens + 1))
        picks = rng.integers(0, len(filler), k)
        record.payloads["tokens"] = list(record.payloads["tokens"]) + [
            filler[int(j)] for j in picks
        ]
        for source, value in record.tasks.get("POS", {}).items():
            record.tasks["POS"][source] = list(value) + ["NOUN"] * k
        for source, value in record.tasks.get("EntityType", {}).items():
            record.tasks["EntityType"][source] = list(value) + [[] for _ in range(k)]
    spec = base.schema.to_dict()
    spec["payloads"]["tokens"]["max_length"] += extra_tokens
    schema = Schema.from_dict(spec)
    dataset = Dataset(schema, base.records)
    app = Application(schema, name="factoid-core")
    return app, dataset


def _compiled(app: Application, dataset, config: ModelConfig):
    """Compile a fresh model exactly as Application.fit would."""
    train = dataset.split("train")
    dev = dataset.split("dev")
    vocabs = dataset.build_vocabs()
    model = compile_model(
        app.schema,
        config,
        vocabs,
        slice_names=app.slices.names,
        registry=app.registry,
        seed=config.trainer.seed or app.seed,
    )
    targets, _ = app.combine(train.records)
    return model, vocabs, targets, train, dev


def _model_config(encoder: str, size: int, **trainer_kwargs) -> ModelConfig:
    trainer_kwargs.setdefault("batch_size", 32)
    trainer_kwargs.setdefault("lr", 0.05)
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder=encoder, size=size),
            "query": PayloadConfig(size=size),
            "entities": PayloadConfig(size=size),
        },
        trainer=TrainerConfig(**trainer_kwargs),
    )


# ----------------------------------------------------------------------
# (a) tape-free vs taped forward throughput
# ----------------------------------------------------------------------
def run_inference_hotpath(
    n_records: int = N_RECORDS, reps: int = INFER_REPS, encoder: str = "lstm"
) -> dict:
    app, dataset = _workload(n_records)
    config = _model_config(encoder, size=24)
    model, vocabs, _, train, _ = _compiled(app, dataset, config)
    model.eval()
    encoded = EncodedDataset(train.records, app.schema, vocabs)
    batch = encoded.batch(np.arange(min(INFER_BATCH, len(encoded))))

    # Warm both paths (first call pays numpy/cache effects for either).
    taped_out = model.forward(batch)
    with no_grad():
        free_out = model.forward(batch)
    # The fast path is a pure elision: identical outputs, no tape.
    for name in taped_out:
        np.testing.assert_array_equal(
            taped_out[name].probs, free_out[name].probs
        )

    start = time.perf_counter()
    for _ in range(reps):
        model.forward(batch)
    taped_s = time.perf_counter() - start

    start = time.perf_counter()
    with no_grad():
        for _ in range(reps):
            model.forward(batch)
    tape_free_s = time.perf_counter() - start

    return {
        "encoder": encoder,
        "forward_batch": int(batch.size),
        "reps": reps,
        "taped_s": taped_s,
        "tape_free_s": tape_free_s,
        "taped_fwd_per_s": reps / taped_s,
        "tape_free_fwd_per_s": reps / tape_free_s,
        "inference_speedup": taped_s / tape_free_s,
    }


# ----------------------------------------------------------------------
# (b) training-epoch fast path vs the legacy epoch loop
# ----------------------------------------------------------------------
class _TapedPredictModel:
    """Proxy restoring the legacy ``predict``: eval mode, tape recorded.

    Before the fast path existed, every dev-evaluation forward built the
    full autograd tape (and re-encoded its records per batch).  Routing
    ``evaluate`` through this proxy reproduces that epoch loop exactly, so
    the benchmark's baseline lane measures what training cost without this
    substrate's inference mode.
    """

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def predict(self, batch):
        from repro.tensor import enable_grad

        was_training = self._model.training
        self._model.eval()
        try:
            with enable_grad():
                return self._model.forward(batch)
        finally:
            if was_training:
                self._model.train()


def _legacy_fit(trainer: Trainer, records, vocabs, targets, on_epoch) -> list[float]:
    """``Trainer.fit``'s epoch loop as it ran before the batch cache.

    Every batch is re-encoded from its records with ``encode_inputs``; the
    RNG stream, batch order, loss, clipping and optimizer steps are the
    trainer's, so the losses match the cached fit bit for bit.
    """
    model, config = trainer.model, trainer.config
    rng = np.random.default_rng(config.seed)
    losses = []
    model.train()
    for _ in range(config.epochs):
        epoch = []
        for idx in iterate_batches(len(records), config.batch_size, rng):
            payloads = [records[int(i)].payloads for i in idx]
            batch = encode_inputs(payloads, model.schema, vocabs, indices=idx)
            rows = {
                name: TaskTargets(
                    probs=t.probs[idx],
                    weights=t.weights[idx],
                    class_weights=t.class_weights,
                    membership=None if t.membership is None else t.membership[idx],
                )
                for name, t in targets.items()
            }
            loss = model.compute_loss(
                model(batch), rows, slice_weight=config.slice_weight
            )
            trainer.optimizer.zero_grad()
            loss.backward()
            if config.clip_norm > 0:
                clip_grad_norm(trainer.optimizer.params, config.clip_norm)
            trainer.optimizer.step()
            trainer.schedule.step()
            epoch.append(loss.item())
        losses.append(float(np.mean(epoch)))
        on_epoch()
    model.eval()
    return losses


def _run_epoch_lane(app, dataset, config, dev, fast: bool):
    """One timed fit: either the shipped fast path or the legacy loop.

    The legacy lane (:func:`_legacy_fit`) re-encodes every batch and
    evaluates dev with the taped forward via :class:`_TapedPredictModel`
    after each epoch — including the trainer's best-epoch bookkeeping
    (state snapshot on improvement, restore at the end) so both lanes do
    identical work.
    """
    from repro.training.evaluation import evaluate, mean_primary

    model, vocabs, targets, train, _ = _compiled(app, dataset, config)
    trainer = Trainer(model, config.trainer)
    if fast:
        start = time.perf_counter()
        history = trainer.fit(
            train.records, vocabs, targets, dev_records=dev.records
        )
        elapsed = time.perf_counter() - start
        scores = [e.dev_score for e in history.epochs]
        return elapsed, [e.train_loss for e in history.epochs], scores

    taped = _TapedPredictModel(model)
    scores = []
    best = {"score": -np.inf, "state": None}

    def legacy_eval() -> None:
        evals = evaluate(taped, dev.records, app.schema, vocabs, "gold")
        score = mean_primary(evals)
        scores.append(score)
        if score > best["score"]:
            best["score"] = score
            best["state"] = model.state_dict()

    start = time.perf_counter()
    losses = _legacy_fit(trainer, train.records, vocabs, targets, legacy_eval)
    if best["state"] is not None:
        model.load_state_dict(best["state"])
    elapsed = time.perf_counter() - start
    return elapsed, losses, scores


def run_epoch_fastpath(
    n_records: int = N_RECORDS, epochs: int = EPOCHS, repeats: int = 2
) -> dict:
    """Epoch wall-clock: fast path vs the legacy training epoch.

    One epoch = the train-split optimization loop plus the per-epoch dev
    evaluation (the trainer always runs both; here dev is the full curated
    monitoring suite, larger than the freshly-supervised train slice — the
    paper's continuous-retraining regime).  The *fast* lane is
    ``Trainer.fit`` as shipped: encoded-batch caching on, dev evaluation
    tape-free against the cached dev encoding and cached gold targets.
    The *legacy* lane re-encodes every batch from records and evaluates dev
    with the taped forward, exactly as the epoch looked before the fast
    path existed.  Both lanes draw the same RNG stream and must produce
    identical losses and dev scores; each lane runs ``repeats`` times and
    keeps its best wall-clock (standard noise control).
    """
    app, dataset = _workload(n_records, train=0.3, dev=0.6)
    config = _model_config("lstm", size=24, epochs=epochs)
    dev = dataset.split("dev")
    train = dataset.split("train")

    legacy_runs = [
        _run_epoch_lane(app, dataset, config, dev, fast=False) for _ in range(repeats)
    ]
    fast_runs = [
        _run_epoch_lane(app, dataset, config, dev, fast=True) for _ in range(repeats)
    ]

    # Bit-identical epochs: same RNG stream, same batch order, same arrays,
    # and the tape-free forward is a pure elision of the taped one.
    _, legacy_losses, legacy_scores = legacy_runs[0]
    _, fast_losses, fast_scores = fast_runs[0]
    assert legacy_losses == fast_losses, (
        f"fast path changed training numerics: {legacy_losses} vs {fast_losses}"
    )
    assert legacy_scores == fast_scores, (
        f"fast path changed dev evaluation: {legacy_scores} vs {fast_scores}"
    )

    legacy_s = min(t for t, _, _ in legacy_runs)
    fast_s = min(t for t, _, _ in fast_runs)
    return {
        "train_records": len(train.records),
        "dev_records": len(dev.records),
        "epochs": epochs,
        "epoch_legacy_s": legacy_s / epochs,
        "epoch_fast_s": fast_s / epochs,
        "fit_legacy_s": legacy_s,
        "fit_fast_s": fast_s,
        "epoch_speedup": legacy_s / fast_s,
    }


def run_core_hotpaths(reduced: bool = False) -> dict:
    """Run both measurements; in ``reduced`` mode just exercise the wiring."""
    if reduced:
        inference = run_inference_hotpath(n_records=40, reps=2)
        epochs = run_epoch_fastpath(n_records=40, epochs=2, repeats=1)
    else:
        inference = run_inference_hotpath()
        epochs = run_epoch_fastpath()

    metrics = {**inference, **epochs}
    out_path = os.environ.get("BENCH_CORE_JSON")
    if out_path and not reduced:
        with open(out_path, "w") as fh:
            json.dump(
                {k: round(v, 6) if isinstance(v, float) else v for k, v in metrics.items()},
                fh,
                indent=2,
            )
    return metrics


def test_core_hotpaths(benchmark):
    metrics = benchmark.pedantic(run_core_hotpaths, rounds=1, iterations=1)
    print_table(
        "Core hot paths",
        {
            "path": [
                f"forward ({metrics['encoder']}, batch {metrics['forward_batch']})",
                f"epoch ({metrics['train_records']} train + "
                f"{metrics['dev_records']} dev)",
            ],
            "baseline": [
                f"{metrics['taped_fwd_per_s']:.1f} fwd/s (taped)",
                f"{metrics['epoch_legacy_s']:.3f} s (legacy loop)",
            ],
            "fast path": [
                f"{metrics['tape_free_fwd_per_s']:.1f} fwd/s (no_grad)",
                f"{metrics['epoch_fast_s']:.3f} s (cached + tape-free eval)",
            ],
            "speedup": [
                f"{metrics['inference_speedup']:.2f}x",
                f"{metrics['epoch_speedup']:.2f}x",
            ],
        },
    )
    # The shape of the result: tape elision at least doubles inference
    # throughput, and batch caching buys a solid epoch-level win.
    assert metrics["inference_speedup"] >= 2.0, metrics
    assert metrics["epoch_speedup"] >= 1.3, metrics
