"""Tests for serving signatures."""

import pytest

from repro.core import ServingSignature
from repro.errors import SchemaError

from tests.fixtures import factoid_schema


class TestServingSignature:
    def test_inputs_exclude_derived_payloads(self):
        sig = ServingSignature.from_schema(factoid_schema())
        names = [i.name for i in sig.inputs]
        assert "tokens" in names
        assert "entities" in names
        assert "query" not in names  # derived via base

    def test_outputs_cover_all_tasks(self):
        sig = ServingSignature.from_schema(factoid_schema())
        assert {o.name for o in sig.outputs} == {
            "POS",
            "EntityType",
            "Intent",
            "IntentArg",
        }

    def test_output_granularity(self):
        sig = ServingSignature.from_schema(factoid_schema())
        assert sig.output("POS").granularity == "sequence"
        assert sig.output("Intent").granularity == "singleton"
        assert sig.output("IntentArg").granularity == "set"

    def test_output_classes_preserved(self):
        sig = ServingSignature.from_schema(factoid_schema())
        assert "height" in sig.output("Intent").classes
        assert sig.output("IntentArg").classes == ()

    def test_unknown_output(self):
        sig = ServingSignature.from_schema(factoid_schema())
        with pytest.raises(SchemaError):
            sig.output("nope")

    def test_fingerprint_matches_schema(self):
        schema = factoid_schema()
        sig = ServingSignature.from_schema(schema)
        assert sig.schema_fingerprint == schema.fingerprint()
