"""Tests for classification metrics."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.training import (
    accuracy,
    macro_f1,
    micro_f1_multilabel,
    per_class_prf,
)


class TestAccuracy:
    def test_basic(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_masked(self):
        acc = accuracy(
            np.array([0, 1]), np.array([0, 0]), valid=np.array([True, False])
        )
        assert acc == 1.0

    def test_empty_mask(self):
        assert accuracy(np.array([1]), np.array([1]), valid=np.array([False])) == 0.0

    def test_2d_inputs_flattened(self):
        preds = np.array([[0, 1], [1, 1]])
        gold = np.array([[0, 1], [0, 1]])
        assert accuracy(preds, gold) == pytest.approx(0.75)

    def test_shape_mismatch(self):
        with pytest.raises(TrainingError):
            accuracy(np.zeros(2), np.zeros(3))


class TestPRF:
    def test_perfect(self):
        prfs = per_class_prf(np.array([0, 1]), np.array([0, 1]), num_classes=2)
        assert prfs[0].f1 == 1.0
        assert prfs[1].precision == 1.0

    def test_absent_class_zero(self):
        prfs = per_class_prf(np.array([0, 0]), np.array([0, 0]), num_classes=3)
        assert prfs[2].f1 == 0.0

    def test_known_values(self):
        # class 0: tp=1 fp=1 fn=1 -> p=0.5 r=0.5 f1=0.5
        preds = np.array([0, 0, 1])
        gold = np.array([0, 1, 0])
        prfs = per_class_prf(preds, gold, num_classes=2)
        assert prfs[0].precision == 0.5
        assert prfs[0].recall == 0.5
        assert prfs[0].f1 == 0.5


class TestMacroF1:
    def test_only_present_classes_count(self):
        # Class 2 never appears in gold; macro-F1 averages over classes 0,1.
        preds = np.array([0, 1])
        gold = np.array([0, 1])
        assert macro_f1(preds, gold, num_classes=3) == 1.0

    def test_empty(self):
        assert macro_f1(np.zeros(0), np.zeros(0), num_classes=2) == 0.0

    def test_valid_mask(self):
        preds = np.array([0, 1])
        gold = np.array([0, 0])
        assert macro_f1(preds, gold, 2, valid=np.array([True, False])) == 1.0


class TestMicroF1Multilabel:
    def test_perfect(self):
        bits = np.array([[1, 0], [0, 1]])
        assert micro_f1_multilabel(bits, bits) == 1.0

    def test_all_wrong(self):
        pred = np.array([[1, 0]])
        gold = np.array([[0, 1]])
        assert micro_f1_multilabel(pred, gold) == 0.0

    def test_partial(self):
        pred = np.array([[1, 1, 0]])
        gold = np.array([[1, 0, 1]])
        # tp=1 fp=1 fn=1 -> f1 = 0.5
        assert micro_f1_multilabel(pred, gold) == 0.5

    def test_sequence_mask(self):
        pred = np.array([[[1, 0], [0, 0]]])
        gold = np.array([[[1, 0], [1, 1]]])
        valid = np.array([[True, False]])
        assert micro_f1_multilabel(pred, gold, valid) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(TrainingError):
            micro_f1_multilabel(np.zeros((1, 2)), np.zeros((1, 3)))
