"""Tests for the gazetteer and factoid generator."""

import numpy as np
import pytest

from repro.workloads import (
    FactoidGenerator,
    GAZETTEER,
    HARD_DISAMBIGUATION_SLICE,
    INTENT_CATEGORY,
    NUTRITION_SLICE,
    WorkloadConfig,
    by_surface,
    compatible,
    factoid_schema,
    is_ambiguous,
    surfaces_for_intent,
)
from repro.data.tags import slice_tag

from tests.fixtures import generate_dataset


class TestGazetteer:
    def test_surfaces_sorted_by_popularity(self):
        readings = by_surface("washington")
        assert len(readings) == 3
        assert readings[0].popularity == max(e.popularity for e in readings)

    def test_ambiguity(self):
        assert is_ambiguous("washington")
        assert not is_ambiguous("france")

    def test_every_intent_has_surfaces(self):
        for intent in INTENT_CATEGORY:
            assert surfaces_for_intent(intent), intent

    def test_compatible(self):
        person = by_surface("obama")[0]
        assert compatible(person, "age")
        assert not compatible(person, "capital")

    def test_gazetteer_ids_unique(self):
        ids = [e.id for e in GAZETTEER]
        assert len(set(ids)) == len(ids)


class TestFactoidGenerator:
    def test_records_validate_against_schema(self):
        ds = generate_dataset(n=50, seed=0)  # Dataset() validates on build
        assert len(ds) == 50

    def test_deterministic_for_seed(self):
        a = generate_dataset(n=20, seed=7)
        b = generate_dataset(n=20, seed=7)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_splits_assigned(self):
        ds = generate_dataset(n=300, seed=1)
        table = ds.tag_table()
        assert table.count("train") > table.count("dev") > 0
        assert table.count("test") > 0
        total = table.count("train") + table.count("dev") + table.count("test")
        assert total == 300

    def test_gold_intent_arg_is_compatible(self):
        ds = generate_dataset(n=100, seed=2)
        for r in ds.records:
            intent = r.label_from("Intent", "gold")
            arg = r.label_from("IntentArg", "gold")
            member = r.payloads["entities"][arg]
            entity = next(e for e in GAZETTEER if e.id == member["id"])
            assert compatible(entity, intent)

    def test_hard_slice_tagged_correctly(self):
        ds = generate_dataset(n=400, seed=3)
        tag = slice_tag(HARD_DISAMBIGUATION_SLICE)
        hard = ds.with_tag(tag)
        assert len(hard) > 0
        for r in hard.records:
            arg = r.label_from("IntentArg", "gold")
            members = r.payloads["entities"]
            popularity = []
            for m in members:
                entity = next(e for e in GAZETTEER if e.id == m["id"])
                popularity.append(entity.popularity)
            assert int(np.argmax(popularity)) != arg

    def test_nutrition_slice_rare(self):
        ds = generate_dataset(n=1000, seed=4, nutrition_rate=0.03)
        count = ds.tag_table().count(slice_tag(NUTRITION_SLICE))
        assert 5 <= count <= 70

    def test_hard_fraction_forcing(self):
        ds = FactoidGenerator(
            WorkloadConfig(n=200, seed=5, hard_fraction=0.9)
        ).generate()
        tag = slice_tag(HARD_DISAMBIGUATION_SLICE)
        assert ds.tag_table().count(tag) > 50

    def test_entity_spans_point_at_surface(self):
        ds = generate_dataset(n=50, seed=6)
        for r in ds.records:
            tokens = r.payloads["tokens"]
            for member in r.payloads["entities"]:
                start, end = member["range"]
                surface_token = tokens[start]
                entity = next(e for e in GAZETTEER if e.id == member["id"])
                assert entity.surface == surface_token

    def test_pos_alignment(self):
        ds = generate_dataset(n=50, seed=7)
        for r in ds.records:
            assert len(r.label_from("POS", "gold")) == len(r.payloads["tokens"])

    def test_intent_skew(self):
        skewed = FactoidGenerator(
            WorkloadConfig(n=600, seed=8, intent_skew=5.0)
        ).generate()
        intents = [r.label_from("Intent", "gold") for r in skewed.records]
        height_age = sum(1 for i in intents if i in ("height", "age"))
        assert height_age / len(intents) > 0.5
