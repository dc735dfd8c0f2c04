#!/usr/bin/env python
"""Where one optimizer step goes: by stage, tape nodes by call site, by op family;
and what one tape-free forward costs.

    python tools/step_profile.py --workload synth-medium --scale 800 \\
        --encoder lstm --size 64

Trains the model ``Application.fit`` would (the ``fit`` benchmark's config:
``--encoder``/``--size`` on every sequence payload, ``--size`` on the rest)
on the workload's train split with no dev set, so everything measured is
the step loop, and prints four markdown tables:

* **Time per step by stage** — batch, forward, loss, backward, clip and
  optimizer, timed around each stage of ``Trainer.fit``'s step loop with
  no profiler attached, as the minimum over ``STAGE_FITS`` fresh fits.  The
  split to size a change by: the profile below distorts it.
* **Tape nodes per step by call site** — ``Tensor._make`` calls under
  ``sys.setprofile``, attributed to the innermost ``repro`` frame outside
  ``repro.tensor``.  A count: it repeats exactly on any host.
* **Time per step by op family**, taped (the training step) and tape-free
  (``MultitaskModel.predict`` over the same batches) — ``cProfile`` self
  time of every ``repro`` function, plus the numpy / stdlib calls it made,
  grouped by family.  The family of a function in ``repro.tensor`` is that
  of the op it belongs to (a vjp closure counts with its op); frames that
  only compose ops are *glue*.  ``cProfile`` charges every Python call and
  no native work, so Python-heavy families read high; the unprofiled wall
  time is printed next to the profiled one to size that.
* **The tape-free forward, batch of 1 and of 32** — ``MultitaskModel.predict``
  on one row and on a full batch: unprofiled µs per forward (the minimum
  over ``FORWARD_ROUNDS`` rounds of ``FORWARD_REPEATS`` calls) and Python
  function calls per forward under ``sys.setprofile`` (a count: it repeats
  exactly on any host).  A serving request is the batch of 1.
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import functools
import pstats
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from repro.core import ModelConfig, PayloadConfig, TrainerConfig  # noqa: E402
from repro.data.batching import iterate_batches  # noqa: E402
from repro.data.encoded import EncodedDataset  # noqa: E402
from repro.model.compiler import compile_model  # noqa: E402
from repro.optim import clip_grad_norm  # noqa: E402
from repro.tensor import Tensor, dtype_policy  # noqa: E402
from repro.training import Trainer  # noqa: E402
from repro.training.trainer import _cast_targets, _slice_targets  # noqa: E402
from repro.workloads import resolve_workload  # noqa: E402

PACKAGE = Path(repro.__file__).resolve().parent

FAMILIES = (
    "matmul + its vjps",
    "elementwise",
    "reductions / `_unbroadcast`",
    "indexing / shape",
    "recurrent primitive (`nn/recurrent.py`)",
    "optimizer",
    "tape bookkeeping",
    "glue (module, loss and trainer frames)",
    "batch assembly (`data/`)",
)
MATMUL, ELEMENTWISE, REDUCTIONS, INDEXING, RECURRENT, OPTIMIZER, TAPE, GLUE, BATCH = FAMILIES

# ``repro.tensor`` functions by the top-level function or method that holds
# them; whatever is not listed is tape bookkeeping (``_make``, ``__init__``,
# ``backward``, the topological sort, leaf writes, dtype coercion).
TENSOR_OPS = {
    MATMUL: {"Tensor.__matmul__"},
    ELEMENTWISE: {
        "Tensor.__add__", "Tensor.__neg__", "Tensor.__sub__", "Tensor.__rsub__",
        "Tensor.__mul__", "Tensor.__truediv__", "Tensor.__rtruediv__",
        "Tensor.__pow__", "Tensor.exp", "Tensor.log", "Tensor.sqrt", "Tensor.tanh",
        "Tensor.sigmoid", "Tensor.relu", "Tensor.clip", "Tensor.abs",
        "where", "masked_fill", "dropout_mask",
    },
    REDUCTIONS: {"Tensor.sum", "Tensor.mean", "Tensor.max", "_unbroadcast"},
    INDEXING: {
        "Tensor.__getitem__", "Tensor.reshape", "Tensor.transpose", "Tensor.T",
        "Tensor.swapaxes", "Tensor.expand_dims", "Tensor.squeeze",
        "_is_basic_index", "concat", "stack", "gather_rows",
    },
}
STAGES = ("batch", "forward", "loss", "backward", "clip", "optimizer")
STAGE_FITS = 3
STAGE_HEADER = "| stage | ms / step, min over fits |"
FORWARD_SIZES = (1, 32)
FORWARD_ROUNDS, FORWARD_REPEATS = 5, 40
FORWARD_HEADER = "| tape-free forward | µs / forward, unprofiled | Python calls / forward |"

# Shared kernels charged, like numpy, to whichever family called them.
INLINED = {"logistic"}


class _Owners:
    """``(file, line) ->`` the top-level function or ``Class.method`` holding it."""

    def __init__(self) -> None:
        self._spans: dict[str, list[tuple[int, int, str]]] = {}

    def _load(self, filename: str) -> list[tuple[int, int, str]]:
        spans = []
        for node in ast.parse(Path(filename).read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for member in members:
                if isinstance(member, (ast.FunctionDef, ast.ClassDef)):
                    start = min(
                        [member.lineno] + [d.lineno for d in member.decorator_list]
                    )
                    spans.append((start, member.end_lineno, prefix + member.name))
        return spans

    def owner(self, filename: str, line: int) -> str:
        if filename not in self._spans:
            self._spans[filename] = self._load(filename)
        for start, end, name in self._spans[filename]:
            if start <= line <= end:
                return name
        return "<module>"


@functools.lru_cache(maxsize=None)
def _relative(filename: str) -> Path | None:
    """``filename`` inside the ``repro`` package, or ``None`` (asked per profiled call)."""
    try:
        return Path(filename).resolve().relative_to(PACKAGE)
    except ValueError:
        return None


def family_of(filename: str, line: int, owners: _Owners) -> str | None:
    """The op family of one ``repro`` function; ``None`` outside the package."""
    relative = _relative(filename)
    if relative is None:
        return None
    top = relative.parts[0]
    if top == "tensor" and relative.name != "sparse.py":
        owner = owners.owner(filename, line)
        if owner in INLINED:
            return None
        for family, names in TENSOR_OPS.items():
            if owner in names:
                return family
        return GLUE if relative.name == "functional.py" else TAPE
    if top == "optim" or relative.name == "sparse.py":
        return OPTIMIZER
    if relative.parts[:2] == ("nn", "recurrent.py"):
        return RECURRENT
    return BATCH if top == "data" else GLUE


def time_by_family(profile: cProfile.Profile) -> tuple[Counter, float]:
    """Seconds per family, and the profile's total.

    A ``repro`` function's share is its own time plus the cumulative time of
    the functions without a family (numpy, stdlib, builtins, ``INLINED``) it
    called.
    """
    owners = _Owners()
    stats = pstats.Stats(profile).stats
    families: Counter = Counter()
    total = 0.0
    for (filename, line, _), (_, _, own, _, callers) in stats.items():
        total += own
        family = family_of(filename, line, owners)
        if family is not None:
            families[family] += own
            continue
        for (caller_file, caller_line, _), edge in callers.items():
            caller_family = family_of(caller_file, caller_line, owners)
            if caller_family is not None:
                families[caller_family] += edge[3]
    return families, total


def nodes_by_call_site(fn) -> Counter:
    """``Tensor._make`` calls while ``fn()`` runs, by the frame that asked."""
    make = Tensor._make.__code__
    sites: Counter = Counter()

    def on_event(frame, event, arg):
        if event != "call" or frame.f_code is not make:
            return
        caller = frame.f_back
        while caller is not None:
            relative = _relative(caller.f_code.co_filename)
            if relative is not None and relative.parts[0] != "tensor":
                sites[f"{relative.as_posix()}:{caller.f_code.co_qualname}"] += 1
                return
            caller = caller.f_back
        sites["<outside repro>"] += 1

    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return sites


def python_calls(fn) -> int:
    """Python function calls while ``fn()`` runs."""
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def forward_rows(model, encoded) -> list[tuple[int, float, int]]:
    """``(rows, µs per forward, Python calls per forward)`` of
    ``model.predict`` on the first ``FORWARD_SIZES`` rows of ``encoded``."""
    rows = []
    for size in FORWARD_SIZES:
        batch = encoded.batch(np.arange(min(size, len(encoded))))
        model.predict(batch)  # warm
        best = float("inf")
        for _ in range(FORWARD_ROUNDS):
            begin = time.perf_counter()
            for _ in range(FORWARD_REPEATS):
                model.predict(batch)
            best = min(best, (time.perf_counter() - begin) / FORWARD_REPEATS)
        rows.append((size, 1e6 * best, python_calls(lambda: model.predict(batch))))
    return rows


def stage_seconds(model, config: TrainerConfig, encoded, targets) -> list[float]:
    """Seconds per step in each of ``STAGES`` over one fit of ``model``: the
    step loop of ``Trainer.fit`` (cached batches, no dev set), unprofiled."""
    trainer = Trainer(model, config)
    targets = _cast_targets(targets, model.dtype)
    rng = np.random.default_rng(config.seed)
    spent = [0.0] * len(STAGES)
    steps = 0
    model.train()
    for _ in range(config.epochs):
        for idx in iterate_batches(len(encoded), config.batch_size, rng):
            marks = [time.perf_counter()]
            batch = encoded.batch(idx)
            marks.append(time.perf_counter())
            outputs = model(batch)
            marks.append(time.perf_counter())
            loss = model.compute_loss(
                outputs, _slice_targets(targets, idx), slice_weight=config.slice_weight
            )
            loss.item()
            marks.append(time.perf_counter())
            trainer.optimizer.zero_grad()
            loss.backward()
            marks.append(time.perf_counter())
            if config.clip_norm > 0:
                clip_grad_norm(model.parameters(), config.clip_norm)
            marks.append(time.perf_counter())
            trainer.optimizer.step()
            trainer.schedule.step()
            marks.append(time.perf_counter())
            spent = [total + b - a for total, a, b in zip(spent, marks, marks[1:])]
            steps += 1
    return [total / steps for total in spent]


def model_config(schema, encoder: str, size: int, epochs: int) -> ModelConfig:
    return ModelConfig(
        payloads={
            p.name: PayloadConfig(encoder=encoder, size=size)
            if p.type == "sequence"
            else PayloadConfig(size=size)
            for p in schema.payloads
        },
        trainer=TrainerConfig(epochs=epochs, batch_size=32, lr=0.05),
    )


def profile_steps(workload: str, scale: int, seed: int, encoder: str, size: int,
                  epochs: int) -> dict:
    """Run the four measurements; everything the report prints."""
    built = resolve_workload(workload, scale=scale, seed=seed)
    app = built.application
    config = model_config(app.schema, encoder, size, epochs)
    data = app.prepare(built.dataset)
    records = data.train_records
    steps = epochs * -(-len(records) // config.trainer.batch_size)

    def compiled():
        return compile_model(
            app.schema, config, data.vocabs, slice_names=app.slices.names,
            registry=app.registry, seed=config.trainer.seed or app.seed,
        )

    def train(model=None):
        model = model or compiled()
        Trainer(model, config.trainer).fit(records, data.vocabs, data.targets)
        return model

    model = train()  # warm caches; the tape-free runs use its weights
    with dtype_policy(model.dtype):
        encoded = EncodedDataset(records, app.schema, data.vocabs)

    def predict_all():
        for idx in iterate_batches(len(records), config.trainer.batch_size):
            model.predict(encoded.batch(idx))

    def wall(fn) -> float:
        begin = time.perf_counter()
        fn()
        return time.perf_counter() - begin

    def profiled(fn) -> tuple[Counter, float]:
        profile = cProfile.Profile()
        profile.runcall(fn)
        return time_by_family(profile)

    stage_runs = [
        stage_seconds(compiled(), config.trainer, encoded, data.targets)
        for _ in range(STAGE_FITS)
    ]
    fresh = compiled()
    return {
        "title": f"{encoder}-{size} on {workload}@{scale}, seed {seed}",
        "stages": [min(run[i] for run in stage_runs) for i in range(len(STAGES))],
        "steps": steps,
        "batches": steps // epochs,
        "sites": nodes_by_call_site(train),
        "taped_wall_s": wall(lambda: train(fresh)),
        "free_wall_s": wall(predict_all),
        "taped": profiled(train),
        "free": profiled(predict_all),
        "forward": forward_rows(model, encoded),
    }


def render(result: dict) -> str:
    """The four markdown tables."""
    steps, batches = result["steps"], result["batches"]
    sites: Counter = result["sites"]
    lines = [
        f"#### {result['title']}: {steps} steps, {batches} tape-free batches",
        "",
        STAGE_HEADER,
        "|---|---|",
    ]
    for stage, seconds in zip(STAGES, result["stages"]):
        lines.append(f"| {stage} | {1e3 * seconds:.3f} |")
    lines += [
        f"| **total** | **{1e3 * sum(result['stages']):.3f}** |",
        "",
        FORWARD_HEADER,
        "|---|---|---|",
    ]
    for size, micros, calls in result["forward"]:
        lines.append(f"| batch of {size} | {micros:.1f} | {calls} |")
    lines += [
        "",
        "| call site | `Tensor._make` calls per step |",
        "|---|---|",
    ]
    for site, count in sites.most_common():
        lines.append(f"| `{site}` | {count / steps:.1f} |")
    lines.append(f"| **total** | **{sum(sites.values()) / steps:.1f}** |")
    (taped, taped_total), (free, free_total) = result["taped"], result["free"]
    lines += [
        "",
        "| op family | taped ms / step | share | tape-free ms / batch | share |",
        "|---|---|---|---|---|",
    ]
    for family in FAMILIES:
        lines.append(
            f"| {family} | {1e3 * taped[family] / steps:.3f} "
            f"| {taped[family] / taped_total:.0%} "
            f"| {1e3 * free[family] / batches:.3f} "
            f"| {free[family] / free_total:.0%} |"
        )
    lines += [
        f"| **profiled total** | **{1e3 * taped_total / steps:.3f}** | "
        f"| **{1e3 * free_total / batches:.3f}** | |",
        f"| unprofiled wall | {1e3 * result['taped_wall_s'] / steps:.3f} | "
        f"| {1e3 * result['free_wall_s'] / batches:.3f} | |",
        "",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="synth-medium")
    parser.add_argument("--scale", type=int, default=800)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--encoder", default="bow")
    parser.add_argument("--size", type=int, default=24)
    parser.add_argument("--epochs", type=int, default=3)
    args = parser.parse_args(argv)
    result = profile_steps(
        args.workload, args.scale, args.seed, args.encoder, args.size, args.epochs
    )
    sys.stdout.write(render(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
