"""The fit stage replay must be ``Application.fit``, bit for bit."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import spans  # noqa: E402
from programs.fit import fit_config, replay_fit  # noqa: E402

from repro.workloads import resolve_workload  # noqa: E402


def test_replay_reproduces_the_loss_trajectory_and_names_every_stage():
    built = resolve_workload("synth-medium", scale=160, seed=3)
    config = fit_config("lstm", 8, epochs=2)
    history = built.application.fit(built.dataset, config).trained.history

    tracer = spans.Tracer()
    rows = replay_fit(built.application, built.dataset, config, tracer)

    assert [(e.train_loss, e.dev_score) for e in history.epochs] == rows
    names = {s["name"] for s in tracer.spans}
    assert names == {
        "application.fit", "dataset.build_vocabs", "compiler.compile_model",
        "supervision.combine", "encoded.build", "trainer.step", "encoded.batch",
        "multitask.forward", "multitask.loss", "tensor.backward", "optim.step",
        "evaluation.dev_eval",
    }
    ledger = spans.reduce_fit(tracer.spans)
    steps_per_epoch = -(-len(built.dataset.split("train")) // config.trainer.batch_size)
    assert ledger["training.trainer.steps"] == 2 * steps_per_epoch
    assert 0.0 <= ledger["training.trainer.unattributed_share"] < 0.5
