"""EncodedDataset: cached encodings must be indistinguishable from fresh ones."""

import numpy as np

from repro.data import EncodedDataset, encode_inputs
from tests.fixtures import mini_dataset


def setup_data(n=30):
    dataset = mini_dataset(n=n, seed=3)
    return dataset.records, dataset.schema, dataset.build_vocabs()


class TestBatchParity:
    def assert_batches_equal(self, a, b):
        np.testing.assert_array_equal(a.indices, b.indices)
        assert set(a.payloads) == set(b.payloads)
        for name, pa in a.payloads.items():
            pb = b.payloads[name]
            for field in (
                "ids",
                "mask",
                "member_ids",
                "spans",
                "member_mask",
                "features",
            ):
                va, vb = getattr(pa, field), getattr(pb, field)
                assert (va is None) == (vb is None), (name, field)
                if va is not None:
                    np.testing.assert_array_equal(va, vb, err_msg=f"{name}.{field}")

    def test_sliced_batches_match_fresh_encoding(self):
        records, schema, vocabs = setup_data()
        encoded = EncodedDataset(records, schema, vocabs)
        assert len(encoded) == len(records)
        for idx in (np.arange(5), np.array([7, 2, 19, 2]), np.array([29])):
            fresh = encode_inputs(
                [records[int(i)].payloads for i in idx], schema, vocabs, indices=idx
            )
            self.assert_batches_equal(encoded.batch(idx), fresh)


class TestGoldTargets:
    def test_matches_fresh_extraction_and_memoizes(self):
        from repro.data import extract_targets

        records, schema, vocabs = setup_data()
        encoded = EncodedDataset(records, schema, vocabs)
        for task in schema.tasks:
            cached = encoded.gold_targets(task.name, "gold")
            fresh = extract_targets(records, schema, task.name, "gold")
            for key in fresh:
                np.testing.assert_array_equal(cached[key], fresh[key])
            # Second call returns the memoized object, no re-extraction.
            assert encoded.gold_targets(task.name, "gold") is cached
