"""The ``fit`` workload's program: ``Application.fit`` through the public API.

Prints one JSON line per event.  ``ready`` follows import and
``resolve_workload`` (the harness times process spawn to that line as
set-up); then, after one untimed fit of each kind, a short fit (bag of
words: supervision combining, encoding and evaluation dominate) and a
long fit (LSTM: the taped forward, backward and optimizer dominate)
alternate until ``--seconds`` of fitting have been timed.

``--trace`` instead times one untraced long fit and then replays it stage
by stage under spans: the replay makes the calls ``Application.fit`` and
``Trainer.fit`` make, in their order, through public functions only, and
must reproduce the untraced loss trajectory bit for bit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np  # noqa: E402

from harness.spans import Tracer  # noqa: E402

from repro.core import ModelConfig, PayloadConfig, TrainerConfig  # noqa: E402
from repro.data.batching import iterate_batches  # noqa: E402
from repro.data.encoded import EncodedDataset  # noqa: E402
from repro.deploy.sync import data_fingerprint  # noqa: E402
from repro.model.compiler import compile_model  # noqa: E402
from repro.model.task_heads import TaskTargets  # noqa: E402
from repro.optim import clip_grad_norm  # noqa: E402
from repro.tensor import dtype_policy  # noqa: E402
from repro.training import Trainer, evaluate, mean_primary  # noqa: E402
from repro.workloads import resolve_workload  # noqa: E402

MIN_REPEATS = 3


def fit_config(encoder: str, size: int, epochs: int) -> ModelConfig:
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder=encoder, size=size),
            "query": PayloadConfig(size=size),
            "entities": PayloadConfig(size=size),
        },
        trainer=TrainerConfig(epochs=epochs, batch_size=32, lr=0.05),
    )


def digest(history) -> list[str]:
    """The loss trajectory, exactly: hex floats compare bit for bit."""
    return [
        f"{e.train_loss.hex()}/{float(e.dev_score).hex()}" for e in history.epochs
    ]


def emit(**event) -> None:
    print(json.dumps(event), flush=True)


def peak_rss_kb() -> int:
    """This process's high-water RSS plus its largest reaped child's."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )


# ----------------------------------------------------------------------
# The stage replay
# ----------------------------------------------------------------------
def _cast(array, dtype):
    if array is not None and array.dtype.kind == "f" and array.dtype != dtype:
        return array.astype(dtype)
    return array


def replay_fit(app, dataset, config: ModelConfig, tracer: Tracer):
    """``Application.fit`` replayed stage by stage; returns per-epoch rows.

    Each row is ``(train_loss, dev_score)``.  The spans name the layer
    whose public function the stage calls.
    """
    with tracer.span("application.fit"):
        train = dataset.split("train")
        dev = dataset.split("dev")
        app.slices.materialize(dataset.records)
        with tracer.span("dataset.build_vocabs"):
            vocabs = dataset.build_vocabs()
        with tracer.span("compiler.compile_model"):
            model = compile_model(
                app.schema,
                config,
                vocabs,
                slice_names=app.slices.names,
                registry=app.registry,
                seed=config.trainer.seed or app.seed,
            )
        with tracer.span("supervision.combine"):
            targets, _ = app.combine(train.records)
        trainer = Trainer(model, config.trainer)
        rows = _replay_trainer(
            trainer, train.records, vocabs, targets, dev.records,
            app.supervision.gold_source, tracer,
        )
        data_fingerprint(train.records)
    return rows


def _replay_trainer(trainer, records, vocabs, targets, dev_records, gold_source, tracer):
    """``Trainer.fit`` with cached batches, no hooks, no callback."""
    model, config = trainer.model, trainer.config
    schema = model.schema
    targets = {
        name: TaskTargets(
            probs=_cast(t.probs, model.dtype),
            weights=_cast(t.weights, model.dtype),
            class_weights=_cast(t.class_weights, model.dtype),
            membership=_cast(t.membership, model.dtype),
        )
        for name, t in targets.items()
    }
    rng = np.random.default_rng(config.seed)
    with tracer.span("encoded.build"), dtype_policy(model.dtype):
        encoded = EncodedDataset(records, schema, vocabs)
        dev_encoded = EncodedDataset(dev_records, schema, vocabs)
    rows = []
    best_score, best_state, since_best = -np.inf, None, 0
    model.train()
    for _ in range(config.epochs):
        losses = []
        for idx in iterate_batches(len(records), config.batch_size, rng):
            with tracer.span("trainer.step"):
                with tracer.span("encoded.batch"):
                    batch = encoded.batch(idx)
                with tracer.span("multitask.forward"):
                    outputs = model(batch)
                with tracer.span("multitask.loss"):
                    loss = model.compute_loss(
                        outputs,
                        {
                            name: TaskTargets(
                                probs=t.probs[idx],
                                weights=t.weights[idx],
                                class_weights=t.class_weights,
                                membership=(
                                    t.membership[idx] if t.membership is not None else None
                                ),
                            )
                            for name, t in targets.items()
                        },
                        slice_weight=config.slice_weight,
                    )
                losses.append(loss.item())
                trainer.optimizer.zero_grad()
                with tracer.span("tensor.backward"):
                    loss.backward()
                if config.clip_norm > 0:
                    clip_grad_norm(model.parameters(), config.clip_norm)
                with tracer.span("optim.step"):
                    trainer.optimizer.step()
                trainer.schedule.step()
        with tracer.span("evaluation.dev_eval"):
            evals = evaluate(
                model, dev_records, schema, vocabs, gold_source, encoded=dev_encoded
            )
        dev_score = mean_primary(evals)
        rows.append((float(np.mean(losses)), dev_score))
        if dev_score > best_score:
            best_score, best_state, since_best = dev_score, model.state_dict(), 0
        else:
            since_best += 1
        if config.patience > 0 and since_best >= config.patience:
            break
    model.load_state_dict(best_state)
    model.eval()
    return rows


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--short-size", type=int, required=True)
    parser.add_argument("--long-size", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    started = time.perf_counter()
    built = resolve_workload("synth-medium", scale=args.scale, seed=args.seed)
    generate_s = time.perf_counter() - started
    app, dataset = built.application, built.dataset
    emit(event="ready", train=len(dataset.split("train")), dev=len(dataset.split("dev")))
    if args.setup_only:
        return 0

    configs = {
        "short": fit_config("bow", args.short_size, args.epochs),
        "long": fit_config("lstm", args.long_size, args.epochs),
    }

    def timed_fit(kind: str) -> tuple[float, object]:
        begin = time.perf_counter()
        run = app.fit(dataset, configs[kind])
        return time.perf_counter() - begin, run.trained.history

    if args.trace:
        timed_fit("long")  # untimed warm-up
        untraced_s, history = timed_fit("long")
        tracer = Tracer()
        begin = time.perf_counter()
        rows = replay_fit(app, dataset, configs["long"], tracer)
        replay_s = time.perf_counter() - begin
        replayed = [f"{loss.hex()}/{float(dev).hex()}" for loss, dev in rows]
        tracer.dump(args.spans_out)
        emit(event="replay", untraced_s=untraced_s, replay_s=replay_s,
             identical=replayed == digest(history), generate_s=generate_s,
             dev=history.best_dev_score)
        return 0

    for kind in configs:  # untimed warm-up, one of each
        _, history = timed_fit(kind)
        emit(event="warmup", op=kind, digest=digest(history))
    spent, repeats = 0.0, 0
    while spent < args.seconds or repeats < MIN_REPEATS:
        for kind in configs:
            seconds, history = timed_fit(kind)
            spent += seconds
            emit(event="op", op=kind, s=seconds, digest=digest(history),
                 dev=history.best_dev_score,
                 items=len(dataset.split("train")) * len(history.epochs))
        repeats += 1
    emit(event="done", peak_rss_kb=peak_rss_kb())
    return 0


if __name__ == "__main__":
    sys.exit(main())
