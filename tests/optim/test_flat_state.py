"""Flat optimizer state against the per-parameter loops it replaced.

``repro.optim`` keeps every parameter's data, grad and state in one buffer
per dtype and updates whole runs of parameters with one ufunc per
operation.  The contract is exact: over 20 steps, data and state equal the
oracle's (``tests/optim/optimizer_oracle.py``) bit for bit — through
skipped parameters, sparse tables, mixed dtypes and every way a
parameter's data or grad can be rebound.  The count guard is the
clock-free half: Python calls per step do not grow with the parameter
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.model import TaskTargets, compile_from_dataset
from repro.nn import Module, Parameter
from repro.optim import SGD, Adam, AdamW
from repro.supervision import combine_supervision
from repro.tensor import SparseRowGrad, Tensor, dtype_policy, gather_rows
from repro.training import Trainer
from tests.fixtures import mini_dataset
from tests.helpers import python_calls
from tests.optim.optimizer_oracle import OracleAdam, OracleSGD

STEPS = 20
VOCAB = 400  # rows: large enough for gather_rows to leave sparse grads


@dataclass(frozen=True)
class Config:
    name: str
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    decoupled: bool = False
    momentum: float = 0.0

    def flat(self, params):
        if self.name.startswith("sgd"):
            return SGD(params, lr=self.lr, momentum=self.momentum, weight_decay=self.weight_decay)
        if self.decoupled:
            return AdamW(params, lr=self.lr, weight_decay=self.weight_decay)
        return Adam(params, lr=self.lr, weight_decay=self.weight_decay)

    def oracle(self, params):
        cls = OracleSGD if self.name.startswith("sgd") else OracleAdam
        return cls(params, self)


CONFIGS = [
    Config("adam"),
    Config("adamw", weight_decay=0.01, decoupled=True),
    Config("adam_coupled_decay", weight_decay=0.01),
    Config("sgd", lr=0.1),
    Config("sgd_momentum", lr=0.1, momentum=0.9),
    Config("sgd_decay", lr=0.1, weight_decay=0.01),
    Config("sgd_momentum_decay", lr=0.1, momentum=0.9, weight_decay=0.01),
]


class Toy(Module):
    """Dense parameters in two dtypes, an expert that skips steps, a table."""

    def __init__(self) -> None:
        super().__init__()
        rng = np.random.default_rng(0)
        self.w = Parameter(rng.normal(size=(6, 4)))
        self.b = Parameter(rng.normal(size=(4,)))
        self.expert = Parameter(rng.normal(size=(5, 3)))  # no grad on odd steps
        self.half = Parameter(rng.normal(size=(3, 7)).astype(np.float32))
        self.table = Parameter(rng.normal(size=(VOCAB, 4)))
        self.tail = Parameter(rng.normal(size=(2, 2)))

    def backward(self, step: int) -> None:
        """Give each parameter a random grad in its own dtype, as a model
        compiled in that dtype would."""
        rng = np.random.default_rng(100 + step)
        for name, p in self.named_parameters():
            if name == "expert" and step % 2:
                continue
            with dtype_policy(p.data.dtype):
                if name == "table":
                    idx = rng.integers(0, VOCAB, size=9)  # duplicates coalesce
                    term = (gather_rows(p, idx) * Tensor(rng.normal(size=(9, 4)))).sum()
                else:
                    term = (p * Tensor(rng.normal(size=p.shape))).sum()
                term.backward()


def state_of(optimizer) -> dict[int, list[np.ndarray]]:
    return {id(p): views[2:] for flat in optimizer._flats for p, views, _ in flat.slots}


def assert_matches(flat_model, flat_opt, oracle_model, oracle_opt) -> None:
    states = state_of(flat_opt)
    oracle_state = oracle_opt.state()
    pairs = zip(flat_model.named_parameters(), oracle_model.parameters())
    for i, ((name, p), q) in enumerate(pairs):
        assert p.data.dtype == q.data.dtype, name
        assert np.array_equal(p.data, q.data), name
        flat = next(f for f in flat_opt._flats if any(s[0] is p for s in f.slots))
        assert np.shares_memory(p.data, flat.buffer), f"{name} is not a view"
        for got, want in zip(states[id(p)], [store[i] for store in oracle_state.values()]):
            # The oracle casts a state array on its parameter's next grad,
            # the buffer when it adopts: the same values.
            assert got.dtype == p.data.dtype, name
            assert np.array_equal(got, want.astype(got.dtype)), name


REBINDS = {
    "load_state_dict": lambda m: m.load_state_dict(m.state_dict()),
    "to_dtype": lambda m: m.to_dtype("float32"),
    "assignment": lambda m: setattr(m.w, "data", m.w.data * 1.0),
    "module_zero_grad": Module.zero_grad,  # drops grads: backward allocates
}


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("rebind", [None, *REBINDS])
def test_bit_identical_to_the_per_parameter_loops(config, rebind):
    flat_model, oracle_model = Toy(), Toy()
    flat_opt = config.flat(flat_model.parameters())
    oracle_opt = config.oracle(oracle_model.parameters())
    for step in range(STEPS):
        rebinding = rebind is not None and step in (7, 13)
        for model, optimizer in ((flat_model, flat_opt), (oracle_model, oracle_opt)):
            if rebinding:
                REBINDS[rebind](model)
            if not (rebinding and rebind == "module_zero_grad"):
                for p in model.parameters():
                    p.zero_grad(set_to_none=False)
            model.backward(step)
            optimizer.step()
        assert isinstance(flat_model.table.grad, SparseRowGrad)
        assert_matches(flat_model, flat_opt, oracle_model, oracle_opt)


def test_dense_grads_land_in_the_buffer_without_a_copy():
    """After a step, ``zero_grad`` parks the grad view and backward fills it."""
    model = Toy()
    optimizer = Adam(model.parameters(), lr=0.01)
    for step in range(2):
        optimizer.zero_grad()
        model.backward(step)
        optimizer.step()
    views = {id(p): views[1] for f in optimizer._flats for p, views, _ in f.slots}
    optimizer.zero_grad()
    model.backward(2)
    assert model.w.grad is views[id(model.w)]


def trainer_run(fits: int, oracle: bool) -> tuple[list, dict]:
    dataset = mini_dataset(n=40, seed=0)
    config = ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=8),
            "query": PayloadConfig(size=8),
            "entities": PayloadConfig(size=8),
        },
        trainer=TrainerConfig(epochs=2, batch_size=8, lr=0.05),
    )
    model, vocabs = compile_from_dataset(dataset, config)
    train = dataset.split("train")
    targets = {
        task: TaskTargets(
            probs=(c := combine_supervision(train.records, dataset.schema, task)).probs,
            weights=c.weights,
        )
        for task in ("Intent", "POS", "EntityType", "IntentArg")
    }
    trainer = Trainer(model, config.trainer)
    if oracle:
        trainer.optimizer = OracleAdam(
            model.parameters(),
            Config("adam", lr=0.05, weight_decay=config.trainer.weight_decay),
        )
    losses = []
    for _ in range(fits):
        history = trainer.fit(train.records, vocabs, targets, dataset.split("dev").records)
        losses.append([e.train_loss for e in history.epochs])
    return losses, model.state_dict()


def test_two_successive_fits_match_the_oracle():
    """The second fit starts from ``load_state_dict``'s rebound data."""
    losses, state = trainer_run(2, oracle=False)
    oracle_losses, oracle_state = trainer_run(2, oracle=True)
    assert losses == oracle_losses
    assert state.keys() == oracle_state.keys()
    for name in state:
        assert np.array_equal(state[name], oracle_state[name]), name


@pytest.mark.parametrize(
    "make", [lambda ps: Adam(ps, lr=0.01), lambda ps: SGD(ps, lr=0.1, momentum=0.9)],
    ids=["adam", "sgd"],
)
def test_python_calls_per_step_do_not_grow_with_the_parameters(make):
    calls = []
    for count in (5, 50):
        params = [Parameter(np.ones((3, 2))) for _ in range(count)]
        optimizer = make(params)
        for p in params:
            p.grad = np.ones((3, 2))
        optimizer.step()  # adopts
        calls.append(python_calls(optimizer.step))
    assert calls[0] == calls[1]
