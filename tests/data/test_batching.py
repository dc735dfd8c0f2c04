"""Tests for input encoding, batch iteration, and gold-target extraction."""

import numpy as np
import pytest

from repro.data import Dataset, encode_inputs, extract_targets, iterate_batches
from repro.errors import DataError

from tests.fixtures import factoid_schema, sample_record


def dataset(n=3):
    return Dataset(factoid_schema(), [sample_record() for _ in range(n)])


class TestEncodeInputs:
    def test_sequence_payload_arrays(self):
        ds = dataset(2)
        vocabs = ds.build_vocabs()
        batch = encode_inputs([r.payloads for r in ds.records], ds.schema, vocabs)
        tokens = batch.payloads["tokens"]
        assert tokens.ids.shape == (2, 12)  # padded to max_length
        assert tokens.mask.shape == (2, 12)
        assert tokens.mask[0].sum() == 8  # 8 real tokens
        assert tokens.ids[0, 8:].sum() == 0  # padding ids

    def test_set_payload_arrays(self):
        ds = dataset(2)
        batch = encode_inputs([r.payloads for r in ds.records], ds.schema, ds.build_vocabs())
        ents = batch.payloads["entities"]
        assert ents.member_ids.shape == (2, 4)
        assert ents.spans.shape == (2, 4, 2)
        assert ents.member_mask[0].sum() == 2  # two candidates
        np.testing.assert_array_equal(ents.spans[0, 0], [4, 5])

    def test_derived_payload_not_encoded(self):
        ds = dataset(1)
        batch = encode_inputs([r.payloads for r in ds.records], ds.schema, ds.build_vocabs())
        assert "query" not in batch.payloads

    def test_missing_vocab_rejected(self):
        ds = dataset(1)
        with pytest.raises(DataError, match="vocabulary"):
            encode_inputs([r.payloads for r in ds.records], ds.schema, {})

    def test_unknown_token_becomes_unk(self):
        ds = dataset(1)
        vocabs = ds.build_vocabs()
        ds.records[0].payloads["tokens"][0] = "xylophone"
        batch = encode_inputs([r.payloads for r in ds.records], ds.schema, vocabs)
        assert batch.payloads["tokens"].ids[0, 0] == vocabs["tokens"].unk_id

    def test_batch_size_property(self):
        ds = dataset(3)
        batch = encode_inputs([r.payloads for r in ds.records], ds.schema, ds.build_vocabs())
        assert batch.size == 3

    def test_raw_singleton_features(self):
        from repro.core import Schema
        from repro.data import Record

        schema = Schema.from_dict(
            {
                "payloads": {"feat": {"type": "singleton", "dim": 3}},
                "tasks": {
                    "T": {"payload": "feat", "type": "multiclass", "classes": ["a", "b"]}
                },
            }
        )
        record = Record.from_dict(
            {"payloads": {"feat": [1.0, 2.0, 3.0]}, "tasks": {"T": {"gold": "a"}}}
        )
        batch = encode_inputs([record.payloads], schema, {})
        np.testing.assert_allclose(batch.payloads["feat"].features, [[1.0, 2.0, 3.0]])


class TestIterateBatches:
    def test_covers_everything_once(self):
        seen = np.concatenate(list(iterate_batches(10, 3)))
        np.testing.assert_array_equal(np.sort(seen), np.arange(10))

    def test_shuffled_with_rng(self):
        batches = list(iterate_batches(100, 100, rng=np.random.default_rng(0)))
        assert not np.array_equal(batches[0], np.arange(100))

    def test_sequential_without_rng(self):
        batches = list(iterate_batches(5, 2))
        np.testing.assert_array_equal(batches[0], [0, 1])
        np.testing.assert_array_equal(batches[2], [4])

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iterate_batches(5, 0))


class TestExtractTargets:
    def test_multiclass_singleton(self):
        ds = dataset(2)
        out = extract_targets(ds.records, ds.schema, "Intent", "crowd")
        assert out["labels"].tolist() == [0, 0]  # 'height' is class 0
        assert out["valid"].all()

    def test_missing_source_invalid(self):
        ds = dataset(2)
        out = extract_targets(ds.records, ds.schema, "Intent", "nobody")
        assert not out["valid"].any()

    def test_multiclass_sequence(self):
        ds = dataset(1)
        out = extract_targets(ds.records, ds.schema, "POS", "spacy")
        assert out["labels"].shape == (1, 12)
        assert out["valid"][0, :8].all()
        assert not out["valid"][0, 8:].any()
        # First POS label is ADV
        assert out["labels"][0, 0] == ds.schema.task("POS").class_index("ADV")

    def test_bitvector_sequence(self):
        ds = dataset(1)
        out = extract_targets(ds.records, ds.schema, "EntityType", "eproj")
        assert out["labels"].shape == (1, 12, 5)
        et = ds.schema.task("EntityType")
        assert out["labels"][0, 7, et.class_index("location")] == 1.0
        assert out["labels"][0, 7, et.class_index("country")] == 1.0
        assert out["labels"][0, 0].sum() == 0.0
        assert out["valid"][0, 0]  # empty list still counts as labeled

    def test_select(self):
        ds = dataset(2)
        out = extract_targets(ds.records, ds.schema, "IntentArg", "crowd")
        assert out["labels"].tolist() == [0, 0]
        assert out["valid"].all()

    def test_bitvector_singleton(self):
        from repro.core import Schema
        from repro.data import Record

        schema = Schema.from_dict(
            {
                "payloads": {"feat": {"type": "singleton", "dim": 2}},
                "tasks": {
                    "Flags": {
                        "payload": "feat",
                        "type": "bitvector",
                        "classes": ["x", "y", "z"],
                    }
                },
            }
        )
        record = Record.from_dict(
            {"payloads": {"feat": [0.0, 0.0]}, "tasks": {"Flags": {"g": ["x", "z"]}}}
        )
        out = extract_targets([record], schema, "Flags", "g")
        np.testing.assert_allclose(out["labels"], [[1.0, 0.0, 1.0]])
        assert out["valid"].all()
