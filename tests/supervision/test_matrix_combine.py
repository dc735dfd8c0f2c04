"""Tests for label-matrix construction and end-to-end combination."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.errors import SupervisionError
from repro.supervision import (
    ABSTAIN,
    build_bitvector_matrices,
    build_label_matrix,
    class_weights_from_probs,
    combine_supervision,
)

from tests.fixtures import factoid_schema, sample_record


def dataset(n=4) -> Dataset:
    return Dataset(factoid_schema(), [sample_record() for _ in range(n)])


class TestBuildLabelMatrix:
    def test_singleton_multiclass(self):
        ds = dataset(3)
        matrix = build_label_matrix(ds.records, ds.schema, "Intent")
        assert matrix.votes.shape == (3, 3)  # crowd, weak1, weak2
        assert matrix.sources == ["crowd", "weak1", "weak2"]
        assert matrix.cardinality == 5
        # weak2 votes 'age' (class 1)
        j = matrix.sources.index("weak2")
        assert (matrix.votes[:, j] == 1).all()

    def test_sequence_multiclass_items_per_token(self):
        ds = dataset(2)
        matrix = build_label_matrix(ds.records, ds.schema, "POS")
        assert matrix.n_items == 16  # 8 tokens x 2 records
        assert matrix.item_index[0].tolist() == [0, 0]
        assert matrix.item_index[-1].tolist() == [1, 7]

    def test_select_matrix(self):
        ds = dataset(2)
        matrix = build_label_matrix(ds.records, ds.schema, "IntentArg")
        assert matrix.cardinality == 4  # max_members
        np.testing.assert_array_equal(matrix.item_cardinality, [2, 2])

    def test_exclude_sources(self):
        ds = dataset(1)
        matrix = build_label_matrix(
            ds.records, ds.schema, "Intent", exclude_sources=["crowd"]
        )
        assert matrix.sources == ["weak1", "weak2"]

    def test_no_sources_raises(self):
        ds = dataset(1)
        with pytest.raises(SupervisionError):
            build_label_matrix(
                ds.records,
                ds.schema,
                "Intent",
                exclude_sources=["crowd", "weak1", "weak2"],
            )

    def test_bitvector_requires_dedicated_builder(self):
        ds = dataset(1)
        with pytest.raises(SupervisionError):
            build_label_matrix(ds.records, ds.schema, "EntityType")

    def test_coverage_overlap_conflict(self):
        ds = dataset(2)
        matrix = build_label_matrix(ds.records, ds.schema, "Intent")
        np.testing.assert_allclose(matrix.coverage(), [1.0, 1.0, 1.0])
        assert matrix.overlap() == 1.0
        assert matrix.conflict() == 1.0  # weak2 disagrees on every record

    def test_empty_records(self):
        ds = dataset(1)
        matrix = build_label_matrix(ds.records[:0], ds.schema, "Intent", sources=["crowd"])
        assert matrix.n_items == 0
        assert matrix.coverage().tolist() == [0.0]
        assert matrix.overlap() == 0.0
        assert matrix.conflict() == 0.0


class TestBitvectorMatrices:
    def test_per_class_binary(self):
        ds = dataset(1)
        matrices = build_bitvector_matrices(ds.records, ds.schema, "EntityType")
        assert set(matrices) == set(ds.schema.task("EntityType").classes)
        loc = matrices["location"]
        assert loc.cardinality == 2
        # Token 7 ('us') is location+country; others 0 except title at 4.
        row_for_7 = 7
        assert loc.votes[row_for_7, 0] == 1
        assert matrices["country"].votes[row_for_7, 0] == 1
        assert matrices["person"].votes[row_for_7, 0] == 0

    def test_wrong_task_type(self):
        ds = dataset(1)
        with pytest.raises(SupervisionError):
            build_bitvector_matrices(ds.records, ds.schema, "Intent")


class TestCombineSupervision:
    def test_singleton_shapes(self):
        ds = dataset(4)
        combined = combine_supervision(ds.records, ds.schema, "Intent")
        assert combined.probs.shape == (4, 5)
        assert combined.weights.shape == (4,)
        assert combined.labeled_fraction == 1.0
        np.testing.assert_allclose(combined.probs.sum(axis=1), np.ones(4))

    def test_sequence_shapes(self):
        ds = dataset(3)
        combined = combine_supervision(ds.records, ds.schema, "POS")
        assert combined.probs.shape == (3, 12, 8)
        assert combined.weights.shape == (3, 12)
        # Padding positions carry zero weight.
        assert combined.weights[:, 8:].sum() == 0.0

    def test_select_shapes(self):
        ds = dataset(2)
        combined = combine_supervision(ds.records, ds.schema, "IntentArg")
        assert combined.probs.shape == (2, 4)
        # Invalid candidates get ~zero mass.
        assert combined.probs[:, 2:].sum() == pytest.approx(0.0, abs=1e-9)

    def test_bitvector_shapes(self):
        ds = dataset(2)
        combined = combine_supervision(ds.records, ds.schema, "EntityType")
        assert combined.probs.shape == (2, 12, 5)
        assert combined.weights.shape == (2, 12)
        et = ds.schema.task("EntityType")
        assert combined.probs[0, 7, et.class_index("location")] > 0.5

    def test_majority_method(self):
        ds = dataset(2)
        combined = combine_supervision(ds.records, ds.schema, "Intent", method="majority")
        assert combined.method == "majority"
        # 2 of 3 sources vote height -> majority height.
        height = ds.schema.task("Intent").class_index("height")
        assert combined.probs[:, height].min() > 0.5

    def test_unknown_method(self):
        ds = dataset(1)
        with pytest.raises(SupervisionError):
            combine_supervision(ds.records, ds.schema, "Intent", method="median")

    def test_source_accuracies_reported(self):
        ds = dataset(4)
        combined = combine_supervision(ds.records, ds.schema, "Intent")
        assert set(combined.source_accuracies) == {"crowd", "weak1", "weak2"}


class TestRebalancing:
    def test_rare_class_upweighted(self):
        probs = np.zeros((100, 2))
        probs[:95, 0] = 1.0
        probs[95:, 1] = 1.0
        weights = class_weights_from_probs(probs)
        assert weights[1] > weights[0]
        assert weights.mean() == pytest.approx(1.0)

    def test_max_ratio_cap(self):
        probs = np.zeros((1000, 2))
        probs[:999, 0] = 1.0
        probs[999:, 1] = 1.0
        weights = class_weights_from_probs(probs, max_ratio=5.0)
        assert weights.max() / weights.min() <= 5.0 + 1e-9

    def test_item_weights_respected(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        # Downweight the first item -> class 1 looks more common.
        weights = class_weights_from_probs(probs, item_weights=np.array([0.1, 1.0]))
        assert weights[0] > weights[1]

    def test_empty(self):
        np.testing.assert_allclose(class_weights_from_probs(np.zeros((0, 3))), np.ones(3))

    def test_requires_2d(self):
        with pytest.raises(SupervisionError):
            class_weights_from_probs(np.zeros(3))
