"""The fused slice-aware head against the per-op tape it replaced.

``repro.slicing.heads`` records one forward node and one loss node per head
and differentiates them by hand.  The contract is exact: the loss, every
gradient, and which parameters get none equal the oracle's
(``tests/slicing/slice_head_oracle.py``, the per-op forward and loss) bit for
bit, in both dtypes — so training trajectories, artifacts and the
taped-vs-``no_grad`` contract cannot move.  The count guard is the
clock-free half: tape nodes per step do not grow with the slice count.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.slicing import SliceAwareHead, slice_loss
from repro.tensor import Tensor, dtype_policy, no_grad
from tests.helpers import cross_entropy, python_calls
from tests.slicing import slice_head_oracle

N_ITEMS, REP_DIM, CLASSES = 12, 5, 4
MEMBERSHIPS = ["mixed", "one_empty", "all_empty", "none"]


def make_membership(kind: str, slices: int, rng) -> np.ndarray | None:
    if kind == "none":
        return None
    membership = (rng.random((N_ITEMS, slices)) < 0.5).astype(float)
    membership[0] = 1.0  # every slice has a member...
    if kind == "one_empty" and slices:
        membership[:, 0] = 0.0  # ...but this one
    if kind == "all_empty":
        membership[:] = 0.0
    return membership


class Case:
    """One head, its upstream graph and targets; run fused or via the oracle."""

    def __init__(self, slices, membership, class_weights, sequence, dtype, seed=0):
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        with dtype_policy(dtype):
            self.head = SliceAwareHead(
                REP_DIM, CLASSES, [f"s{i}" for i in range(slices)], np.random.default_rng(1)
            )
        # The head's rep comes out of an op, so its gradient travels on.
        shape = (3, N_ITEMS // 3, REP_DIM) if sequence else (N_ITEMS, REP_DIM)
        self.x = rng.normal(size=shape)
        self.w = rng.normal(size=(REP_DIM, REP_DIM))
        self.targets = rng.dirichlet(np.ones(CLASSES), size=N_ITEMS)
        self.sample_weights = rng.uniform(0.2, 1.0, size=N_ITEMS)
        self.membership = make_membership(membership, slices, rng)
        self.class_weights = (
            rng.uniform(0.5, 2.0, size=CLASSES) if class_weights else None
        )
        self.other = rng.normal(size=(N_ITEMS, REP_DIM))

    def leaves(self):
        return Tensor(self.x, requires_grad=True), Tensor(self.w, requires_grad=True)

    def rep(self, x, w) -> Tensor:
        h = x @ w
        return h.reshape(-1, REP_DIM) if h.ndim == 3 else h

    def run(self, forward, loss_fn, shared: bool = False) -> dict:
        """Loss and every gradient (None where none arrives)."""
        with dtype_policy(self.dtype):
            self.head.zero_grad()
            x, w = self.leaves()
            rep = self.rep(x, w)
            out = forward(self.head, rep)
            loss = loss_fn(
                out, self.targets, self.sample_weights, self.membership,
                0.5, class_weights=self.class_weights,
            )
            if shared:
                loss = loss + (rep * Tensor(self.other)).sum()
            loss.backward()
        result = {"loss": loss.data, "x.grad": x.grad, "w.grad": w.grad}
        for name, param in self.head.named_parameters():
            result[name] = None if param.grad is None else param.grad.copy()
        return result


def fused_forward(head, rep):
    return head(rep)


def assert_identical(got: dict, expected: dict, dtype: str) -> None:
    assert got.keys() == expected.keys()
    for name, want in expected.items():
        have = got[name]
        if want is None:
            assert have is None, f"{name} got a gradient the oracle does not give"
            continue
        assert have is not None, f"{name} got no gradient"
        assert have.dtype == want.dtype == np.dtype(dtype), name
        assert have.shape == want.shape, name
        assert np.array_equal(have, want), name


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("sequence", [False, True], ids=["singleton", "sequence"])
@pytest.mark.parametrize("class_weights", [False, True], ids=["plain", "class_weighted"])
@pytest.mark.parametrize("membership", MEMBERSHIPS)
@pytest.mark.parametrize("slices", [0, 1, 2, 3, 5])
def test_bit_identical_to_the_per_op_tape(slices, membership, class_weights, sequence, dtype):
    case = Case(slices, membership, class_weights, sequence, dtype)
    fused = case.run(fused_forward, slice_loss)
    oracle = case.run(slice_head_oracle.forward, slice_head_oracle.slice_loss)
    assert_identical(fused, oracle, dtype)


@pytest.mark.parametrize("class_weights", [False, True], ids=["plain", "class_weighted"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_rep_shared_with_another_consumer(class_weights, dtype):
    """The head's contributions to ``rep`` and another consumer's meet there."""
    case = Case(3, "mixed", class_weights, False, dtype)
    fused = case.run(fused_forward, slice_loss, shared=True)
    oracle = case.run(
        slice_head_oracle.forward, slice_head_oracle.slice_loss, shared=True
    )
    assert_identical(fused, oracle, dtype)


def test_all_sample_weights_zero():
    case = Case(2, "mixed", True, False, "float64")
    case.sample_weights = np.zeros(N_ITEMS)
    fused = case.run(fused_forward, slice_loss)
    oracle = case.run(slice_head_oracle.forward, slice_head_oracle.slice_loss)
    assert_identical(fused, oracle, "float64")


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("slices", [0, 1, 3])
def test_a_loss_on_final_logits_alone(slices, dtype):
    """A view of the packed output back-propagates as the per-op logits did."""

    def final_only(out, targets, sample_weights, membership, weight, class_weights):
        return (out.final_logits * Tensor(targets)).sum()

    case = Case(slices, "mixed", False, False, dtype)
    fused = case.run(fused_forward, final_only)
    oracle = case.run(slice_head_oracle.forward, final_only)
    assert_identical(fused, oracle, dtype)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("slices", [0, 1, 2, 5])
def test_no_grad_forward_equals_the_oracle(slices, dtype):
    case = Case(slices, "mixed", False, False, dtype)
    with dtype_policy(dtype), no_grad():
        rep = Tensor(case.x) @ Tensor(case.w)
        fused = case.head(rep)
        oracle = slice_head_oracle.forward(case.head, rep)
    assert not fused.logits.requires_grad
    for name in ("final_logits", "base_logits", "indicator_logits", "expert_logits"):
        want, have = getattr(oracle, name), getattr(fused, name)
        if want is None:
            assert have is None
            continue
        assert have.data.dtype == want.data.dtype == np.dtype(dtype), name
        assert np.array_equal(have.data, want.data), name
    if slices:
        assert np.array_equal(fused.attention, oracle.attention)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("weights", ["none", "sample", "class", "zero"])
def test_cross_entropy_is_one_node_with_the_per_op_bits(weights, dtype):
    case = Case(0, "none", False, False, dtype)
    sample = {"none": None, "zero": np.zeros(N_ITEMS)}.get(weights, case.sample_weights)
    classes = np.array([0.5, 2.0, 1.0, 1.5]) if weights == "class" else None

    def run(loss_fn) -> dict:
        with dtype_policy(dtype):
            x, w = case.leaves()
            logits = case.rep(x, w)[:, :CLASSES]
            loss = loss_fn(logits, case.targets, sample, classes)
            (loss + (logits * Tensor(case.other[:, :CLASSES])).sum()).backward()
        return {"loss": loss.data, "x.grad": x.grad, "w.grad": w.grad}

    logits = Tensor(case.x[:, :CLASSES], requires_grad=True)
    assert python_calls(lambda: cross_entropy(logits, case.targets), of=Tensor._make) == 1
    assert_identical(run(cross_entropy), run(slice_head_oracle.cross_entropy), dtype)


def test_a_step_leaves_no_reference_cycle():
    """Refcounting alone frees a step's graph: a cycle through the tape
    would hold every step's activations until a full collection."""
    case = Case(3, "mixed", True, False, "float64")
    gc.collect()
    gc.disable()
    try:
        x, w = case.leaves()
        out = case.head(case.rep(x, w))
        slice_loss(
            out, case.targets, case.sample_weights, case.membership,
            class_weights=case.class_weights,
        ).backward()
        (out.final_logits * Tensor(case.targets)).sum().backward()
        del out
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestCounts:
    @staticmethod
    def step_nodes(slices: int) -> int:
        case = Case(slices, "mixed", True, False, "float64")
        x, w = case.leaves()
        rep = case.rep(x, w)

        def step():
            out = case.head(rep)
            out.final_logits  # what MulticlassTaskHead reads
            slice_loss(
                out, case.targets, case.sample_weights, case.membership,
                class_weights=case.class_weights,
            ).backward()

        return python_calls(step, of=Tensor._make)

    def test_tape_nodes_per_step_do_not_grow_with_the_slices(self):
        """Forward, the final-logits view and the loss: 3 nodes, for any S
        (the per-op tape recorded 67 at S = 1 and 160 at S = 5)."""
        assert [self.step_nodes(s) for s in (1, 5)] == [3, 3]

    def test_the_loss_vjp_runs_once_per_backward(self):
        case = Case(3, "mixed", False, False, "float64")
        out = case.head(Tensor(case.x, requires_grad=True))
        loss = slice_loss(out, case.targets, case.sample_weights, case.membership)
        # rep and all 2 * (3 S + 3) parameters get a gradient.
        assert len(loss._parents) == 1 + 2 * (3 * 3 + 3)
        assert python_calls(loss.backward, of=loss._joint) == 1

    def test_only_reached_parameters_are_inputs(self):
        case = Case(3, "mixed", False, False, "float64")
        out = case.head(Tensor(case.x))
        loss = slice_loss(out, case.targets, case.sample_weights, None)
        # membership=None: the final path only — transforms, reconstruct, final.
        assert len(loss._parents) == 2 * (3 + 2)
