"""Tests for the jq-style record query helper."""

import pytest

from repro.data import RecordQuery

from tests.fixtures import sample_record


def records(n=4):
    out = []
    for i in range(n):
        r = sample_record()
        if i % 2 == 0:
            r.add_tag("even")
        out.append(r)
    return out


class TestFilters:
    def test_with_tag(self):
        q = RecordQuery(records(4))
        assert q.with_tag("even").count() == 2
        assert q.with_tag("train").count() == 4

    def test_chaining(self):
        q = RecordQuery(records(4)).with_tag("train").with_tag("even")
        assert q.count() == 2

    def test_unlabeled(self):
        recs = records(2)
        recs[1].tasks.pop("Intent")
        assert RecordQuery(recs).unlabeled("Intent").count() == 1

    def test_where_task_label(self):
        q = RecordQuery(records(3))
        assert q.where_task_label("Intent", "weak2", "age").count() == 3
        assert q.where_task_label("Intent", "weak2", "height").count() == 0

    def test_conflicting(self):
        recs = records(2)
        # Make one record unanimous.
        recs[0].tasks["Intent"] = {"a": "height", "b": "height"}
        assert RecordQuery(recs).conflicting("Intent").count() == 1

    def test_conflicting_handles_list_labels(self):
        recs = records(1)
        assert RecordQuery(recs).conflicting("POS").count() == 0  # single source


class TestTerminals:
    def test_records_and_count(self):
        q = RecordQuery(records(3))
        assert len(q.records()) == q.count() == 3

    def test_sample(self):
        q = RecordQuery(records(10))
        assert len(q.sample(3, seed=0)) == 3
        assert len(q.sample(100)) == 10

    def test_project(self):
        rows = list(RecordQuery(records(1)).project("payloads.query", "tasks.Intent.crowd"))
        assert rows[0]["payloads.query"].startswith("how tall")
        assert rows[0]["tasks.Intent.crowd"] == "height"

    def test_project_missing_path(self):
        rows = list(RecordQuery(records(1)).project("payloads.ghost.deep"))
        assert rows[0]["payloads.ghost.deep"] is None

    def test_label_distribution(self):
        dist = RecordQuery(records(3)).label_distribution("Intent", "crowd")
        assert dist == {"height": 3}

    def test_label_distribution_list_labels(self):
        dist = RecordQuery(records(2)).label_distribution("POS", "spacy")
        (key, count), = dist.items()
        assert count == 2
        assert isinstance(key, tuple)
