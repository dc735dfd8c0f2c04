"""Tests for Dataset, tags, vocabs, and JSONL round trips."""

import pytest

from repro.data import Dataset, Record, read_records, write_records
from repro.errors import DataError

from tests.fixtures import factoid_schema, sample_record


def make_dataset(n: int = 5) -> Dataset:
    return Dataset(factoid_schema(), [sample_record() for _ in range(n)])


class TestDatasetBasics:
    def test_len_iter_getitem(self):
        ds = make_dataset(3)
        assert len(ds) == 3
        assert sum(1 for _ in ds) == 3
        assert ds[0].payloads["tokens"][0] == "how"

    def test_validation_reports_record_index(self):
        bad = sample_record()
        bad.tasks["Intent"]["weak1"] = "weather"
        with pytest.raises(DataError, match="record 1"):
            Dataset(factoid_schema(), [sample_record(), bad])

    def test_validate_skippable(self):
        bad = sample_record()
        bad.tasks["Intent"]["weak1"] = "weather"
        ds = Dataset(factoid_schema(), [bad], validate=False)
        assert len(ds) == 1

    def test_subset(self):
        ds = make_dataset(5)
        sub = ds.subset([0, 2])
        assert len(sub) == 2

    def test_file_roundtrip(self, tmp_path):
        ds = make_dataset(4)
        path = tmp_path / "data.jsonl"
        assert ds.save(path) == 4
        again = Dataset.from_file(factoid_schema(), path)
        assert len(again) == 4
        assert again[0].to_dict() == ds[0].to_dict()


class TestJsonl:
    def test_read_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            list(read_records(tmp_path / "missing.jsonl"))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(sample_record().to_json() + "\n\n" + sample_record().to_json() + "\n")
        assert len(list(read_records(path))) == 2

    def test_error_includes_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(sample_record().to_json() + "\n{broken\n")
        with pytest.raises(DataError, match=":2:"):
            list(read_records(path))

    def test_write_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "data.jsonl"
        assert write_records(path, [sample_record()]) == 1
        assert path.exists()


class TestSplitsAndTags:
    def test_with_tag_and_split(self):
        ds = make_dataset(3)
        ds[0].add_tag("slice:rare")
        assert len(ds.with_tag("slice:rare")) == 1
        assert len(ds.split("train")) == 3


class TestVocabsAndStats:
    def test_build_vocabs_covers_symbol_payloads(self):
        vocabs = make_dataset(2).build_vocabs()
        assert set(vocabs) == {"tokens", "entities"}
        assert vocabs["tokens"].id("how") >= 2
        assert vocabs["entities"].id("United_States") >= 2

    def test_supervision_stats(self):
        ds = make_dataset(3)
        stats = ds.supervision_stats()
        assert stats["Intent"]["crowd"] == 3
        assert stats["POS"]["spacy"] == 3
