"""Tests for vocabularies and the tag table."""

import numpy as np
import pytest

from repro.data import (
    PAD,
    TagTable,
    UNK,
    Vocab,
    is_slice_tag,
    slice_name,
    slice_tag,
)


class TestVocab:
    def test_reserved_entries(self):
        v = Vocab()
        assert v.id(PAD) == 0
        assert v.id(UNK) == 1
        assert len(v) == 2

    def test_add_and_lookup(self):
        v = Vocab()
        idx = v.add("hello")
        assert v.id("hello") == idx
        assert v.symbol(idx) == "hello"
        assert v.add("hello") == idx  # idempotent

    def test_unseen_maps_to_unk(self):
        v = Vocab(["a"])
        assert v.id("zzz") == v.unk_id

    def test_ids_batch(self):
        v = Vocab(["a", "b"])
        assert v.ids(["a", "b", "c"]) == [2, 3, 1]

    def test_contains(self):
        v = Vocab(["a"])
        assert "a" in v
        assert "b" not in v

    def test_build_frequency_order(self):
        v = Vocab.build([["b", "a", "b"], ["b", "a", "c"]])
        # b (3) before a (2) before c (1)
        assert v.id("b") < v.id("a") < v.id("c")

    def test_build_min_count(self):
        v = Vocab.build([["a", "a", "b"]], min_count=2)
        assert "a" in v
        assert "b" not in v

    def test_save_load(self, tmp_path):
        v = Vocab(["x", "y"])
        path = tmp_path / "vocab.json"
        v.save(path)
        again = Vocab.load(path)
        assert again.id("y") == v.id("y")
        assert len(again) == len(v)


class TestSliceTags:
    def test_roundtrip(self):
        tag = slice_tag("nutrition")
        assert is_slice_tag(tag)
        assert slice_name(tag) == "nutrition"

    def test_slice_name_rejects_plain_tag(self):
        with pytest.raises(ValueError):
            slice_name("train")


class TestTagTable:
    def test_mask_indices_count(self):
        table = TagTable([["train"], ["test"], ["train", "slice:a"]])
        np.testing.assert_array_equal(table.mask("train"), [True, False, True])
        np.testing.assert_array_equal(table.indices("train"), [0, 2])
        assert table.count("slice:a") == 1

    def test_all_tags_sorted(self):
        table = TagTable([["z"], ["a"]])
        assert table.all_tags == ["a", "z"]

    def test_to_columns_pandas_compatible(self):
        table = TagTable([["train"], ["test"]])
        cols = table.to_columns()
        assert cols["record"] == [0, 1]
        assert cols["train"] == [True, False]
        assert cols["test"] == [False, True]
        lengths = {len(v) for v in cols.values()}
        assert lengths == {2}

    def test_len(self):
        assert len(TagTable([[], []])) == 2

    def test_indices_match_the_per_record_scan(self):
        from repro.workloads import build_workload

        records = build_workload("synth-medium", scale=150).dataset.records
        table = TagTable([r.tags for r in records])
        assert table.all_tags == sorted({t for r in records for t in r.tags})
        for tag in table.all_tags + ["no-such-tag"]:
            scan = [i for i, r in enumerate(records) if r.has_tag(tag)]
            np.testing.assert_array_equal(table.indices(tag), scan)
            np.testing.assert_array_equal(
                table.mask(tag), [r.has_tag(tag) for r in records]
            )
            assert table.count(tag) == len(scan)

    def test_a_repeated_tag_counts_its_record_once(self):
        table = TagTable([["train", "train"], ["test"]])
        np.testing.assert_array_equal(table.indices("train"), [0])
        assert table.count("train") == 1
