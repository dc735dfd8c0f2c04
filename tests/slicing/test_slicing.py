"""Tests for slice definitions and slice-aware heads."""

import numpy as np
import pytest

from repro.errors import SliceError
from repro.nn import Parameter
from repro.optim import Adam
from repro.slicing import (
    SliceAwareHead,
    SliceSet,
    SliceSpec,
    expand_membership_to_items,
    predicted_membership,
    slice_loss,
)
from repro.tensor import Tensor

from tests.fixtures import sample_record


class TestSliceSpec:
    def test_tag_membership(self):
        record = sample_record()
        record.add_tag("slice:rare")
        assert SliceSpec(name="rare").member(record)
        assert not SliceSpec(name="other").member(record)

    def test_predicate_membership(self):
        spec = SliceSpec(name="short", predicate=lambda r: len(r.payloads["tokens"]) < 10)
        assert spec.member(sample_record())

    def test_materialize_writes_tags(self):
        spec = SliceSpec(name="short", predicate=lambda r: True)
        records = [sample_record(), sample_record()]
        assert spec.materialize(records) == 2
        assert all(r.has_tag("slice:short") for r in records)


class TestSliceSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SliceError):
            SliceSet([SliceSpec(name="a"), SliceSpec(name="a")])

    def test_add_and_get(self):
        sliceset = SliceSet([SliceSpec(name="a")])
        sliceset.add(SliceSpec(name="b"))
        assert sliceset.get("b").name == "b"
        assert len(sliceset) == 2
        with pytest.raises(SliceError):
            sliceset.add(SliceSpec(name="a"))
        with pytest.raises(SliceError):
            sliceset.get("zzz")

    def test_membership_matrix(self):
        records = [sample_record(), sample_record()]
        records[0].add_tag("slice:x")
        sliceset = SliceSet([SliceSpec(name="x"), SliceSpec(name="y")])
        matrix = sliceset.membership_matrix(records)
        np.testing.assert_allclose(matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_from_tags_discovers(self):
        records = [sample_record(), sample_record()]
        records[0].add_tag("slice:zebra")
        records[1].add_tag("slice:apple")
        sliceset = SliceSet.from_tags(records)
        assert sliceset.names == ["apple", "zebra"]

    def test_expand_membership_to_items(self):
        membership = np.array([[1.0, 0.0], [0.0, 1.0]])
        item_index = np.array([[0, 0], [0, 1], [1, 0]])
        expanded = expand_membership_to_items(membership, item_index)
        np.testing.assert_allclose(expanded, [[1, 0], [1, 0], [0, 1]])

    def test_expand_requires_2d(self):
        with pytest.raises(SliceError):
            expand_membership_to_items(np.zeros(3), np.zeros((3, 2), dtype=int))


class TestSliceAwareHead:
    def rng(self):
        return np.random.default_rng(0)

    def test_no_slices_is_plain_head(self):
        head = SliceAwareHead(8, 3, [], self.rng())
        out = head(Tensor(np.random.default_rng(1).normal(size=(4, 8))))
        assert out.final_logits.shape == (4, 3)
        assert out.indicator_logits is None
        assert out.expert_logits is None
        np.testing.assert_allclose(out.final_logits.data, out.base_logits.data)

    def test_with_slices_shapes(self):
        head = SliceAwareHead(8, 3, ["a", "b"], self.rng())
        out = head(Tensor(np.random.default_rng(2).normal(size=(5, 8))))
        assert out.final_logits.shape == (5, 3)
        assert out.indicator_logits.shape == (5, 2)
        assert out.expert_logits.shape == (5, 2, 3)
        assert out.attention.shape == (5, 2)

    def test_attention_weights_bounded(self):
        head = SliceAwareHead(8, 3, ["a"], self.rng())
        out = head(Tensor(np.random.default_rng(3).normal(size=(6, 8))))
        assert (out.attention >= 0).all()
        assert (out.attention.sum(axis=1) <= 1.0 + 1e-9).all()

    def test_predicted_membership(self):
        head = SliceAwareHead(8, 2, ["a"], self.rng())
        out = head(Tensor(np.random.default_rng(4).normal(size=(3, 8))))
        probs = predicted_membership(out)
        assert probs.shape == (3, 1)
        assert ((probs >= 0) & (probs <= 1)).all()
        assert predicted_membership(
            SliceAwareHead(8, 2, [], self.rng())(Tensor(np.zeros((1, 8))))
        ) is None

    def test_loss_backward_reaches_all_params(self):
        head = SliceAwareHead(6, 2, ["a", "b"], self.rng())
        rep = Tensor(np.random.default_rng(5).normal(size=(4, 6)))
        out = head(rep)
        targets = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        membership = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=float)
        loss = slice_loss(out, targets, np.ones(4), membership)
        loss.backward()
        missing = [n for n, p in head.named_parameters() if p.grad is None]
        assert not missing, f"no grad for {missing}"

    def test_slice_head_learns_slice_specific_pattern(self):
        """A slice whose labels invert the global rule should be learnable
        with slice heads — the mechanism behind the paper's +50 F1 claim."""
        rng = np.random.default_rng(6)
        n = 400
        x = rng.normal(size=(n, 4))
        in_slice = rng.random(n) < 0.25
        # Global rule: y = x0 > 0.  In-slice rule inverted.
        y = (x[:, 0] > 0).astype(int)
        y[in_slice] = 1 - y[in_slice]
        # Membership is detectable from feature 1.
        x[in_slice, 1] = 3.0
        targets = np.zeros((n, 2))
        targets[np.arange(n), y] = 1.0
        membership = in_slice.astype(float)[:, None]

        def train(head, with_membership):
            opt = Adam(head.parameters(), lr=0.02)
            for _ in range(150):
                opt.zero_grad()
                out = head(Tensor(x))
                loss = slice_loss(
                    out, targets, np.ones(n),
                    membership if with_membership else None,
                )
                loss.backward()
                opt.step()
            preds = head(Tensor(x)).final_logits.data.argmax(axis=1)
            return (preds[in_slice] == y[in_slice]).mean()

        plain = train(SliceAwareHead(4, 2, [], np.random.default_rng(7)), False)
        sliced = train(
            SliceAwareHead(4, 2, ["inverted"], np.random.default_rng(7)), True
        )
        assert sliced > plain + 0.1
