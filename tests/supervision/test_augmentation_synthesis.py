"""Tests for augmentation policies and synthetic-data templates."""

import numpy as np
import pytest

from repro.errors import SupervisionError
from repro.supervision import (
    AUGMENT_TAG,
    AugmentationPolicy,
    Augmenter,
    SYNTHETIC_TAG,
    Template,
    TemplateGenerator,
    token_dropout,
)

from tests.fixtures import factoid_schema, sample_record


class TestTokenDropout:
    def test_produces_shorter_aligned_record(self):
        policy = token_dropout(rate=0.4)
        rng = np.random.default_rng(0)
        # Retry until a drop happens (policy may return None).
        new = None
        while new is None:
            new = policy.apply(sample_record(), rng)
        tokens = new.payloads["tokens"]
        assert len(tokens) < 8
        pos = new.label_from("POS", "augment:token_dropout")
        assert len(pos) == len(tokens)

    def test_lineage_and_tag(self):
        policy = token_dropout(rate=0.4)
        rng = np.random.default_rng(1)
        new = None
        while new is None:
            new = policy.apply(sample_record(), rng)
        assert new.has_tag(AUGMENT_TAG)
        assert all(
            source == "augment:token_dropout"
            for sources in new.tasks.values()
            for source in sources
        )

    def test_result_validates(self):
        policy = token_dropout(rate=0.3)
        rng = np.random.default_rng(2)
        schema = factoid_schema()
        produced = 0
        for _ in range(20):
            new = policy.apply(sample_record(), rng)
            if new is not None:
                new.validate(schema)
                produced += 1
        assert produced > 0

    def test_invalid_rate(self):
        with pytest.raises(SupervisionError):
            token_dropout(rate=0.0)

    def test_short_record_skipped(self):
        policy = token_dropout(rate=0.5)
        record = sample_record()
        record.payloads["tokens"] = ["hi", "there"]
        record.tasks = {}
        record.payloads["entities"] = []
        assert policy.apply(record, np.random.default_rng(0)) is None


class TestAugmentationPolicy:
    def test_original_untouched(self):
        policy = token_dropout(rate=0.4)
        record = sample_record()
        before = list(record.payloads["tokens"])
        rng = np.random.default_rng(0)
        new = None
        while new is None:
            new = policy.apply(record, rng)
        assert record.payloads["tokens"] == before


class TestAugmenter:
    def test_multiplies_data(self):
        identity = AugmentationPolicy(name="identity", fn=lambda record, rng: record)
        augmenter = Augmenter([identity], seed=0)
        out = augmenter.augment([sample_record()] * 3, copies=2)
        assert len(out) == 6

    def test_sources_listed(self):
        augmenter = Augmenter([token_dropout()])
        (source,) = augmenter.sources()
        assert source.kind == "augmentation"


class TestTemplates:
    def make_generator(self, **kwargs):
        template = Template(
            pattern=["how", "many", "calories", "in", "{food}"],
            slots={"food": ["pizza", "a large apple"]},
            labels={"Intent": "nutrition"},
            sequence_labels={"POS": ["ADV", "ADJ", "NOUN", "ADP", None]},
            slot_sequence_labels={"POS": {"food": "NOUN"}},
        )
        return TemplateGenerator([template], slice_name="nutrition", **kwargs)

    def test_generates_labeled_records(self):
        records = self.make_generator(seed=0).generate(10)
        assert len(records) == 10
        for r in records:
            assert r.label_from("Intent", "synthetic") == "nutrition"
            assert r.has_tag(SYNTHETIC_TAG)
            assert r.has_tag("train")
            assert r.has_tag("slice:nutrition")

    def test_slot_fill_aligns_sequence_labels(self):
        records = self.make_generator(seed=1).generate(20)
        multi = [r for r in records if len(r.payloads["tokens"]) == 7]
        assert multi  # 'a large apple' fills 3 tokens
        r = multi[0]
        pos = r.label_from("POS", "synthetic")
        assert len(pos) == 7
        assert pos[4:] == ["NOUN", "NOUN", "NOUN"]

    def test_empty_templates_rejected(self):
        with pytest.raises(SupervisionError):
            TemplateGenerator([])

    def test_missing_slot_options(self):
        template = Template(pattern=["{ghost}"], slots={})
        gen = TemplateGenerator([template])
        with pytest.raises(SupervisionError):
            gen.generate(1)
