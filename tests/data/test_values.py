"""The value rule: what each payload kind accepts, and the exact 400s.

One rule per input kind serves datasets (``Record.validate``) and
requests (``Endpoint.admit_payload``); these cases pin its messages and
its edges, where types are matched exactly as JSON decodes them.
"""

import pytest

from repro.core import PayloadSpec
from repro.data.values import value_rule
from repro.errors import DataError

from tests.fixtures import factoid_schema, sample_record

SCHEMA = factoid_schema()
TOKENS = SCHEMA.payload("tokens")
ENTITIES = SCHEMA.payload("entities")
FEAT = PayloadSpec(name="feat", type="singleton", dim=3)
SCALAR = "a JSON scalar (string, number, boolean or null)"
BAD_RANGE = "set payload 'entities' member 0: range must be [start, end) with 0 <= start < end, got "


@pytest.mark.parametrize(
    "spec, value, message",
    [
        (TOKENS, "how tall", "sequence payload 'tokens' must be a list"),
        (TOKENS, ["x"] * 13, "sequence payload 'tokens' has 13 items, max_length is 12"),
        (TOKENS, [["what"], "is"], f"sequence payload 'tokens' item 0 must be {SCALAR}, got list"),
        (TOKENS, ["what", {"is": 1}], f"sequence payload 'tokens' item 1 must be {SCALAR}, got dict"),
        (ENTITIES, [{"id": "x"}, "y"], "set payload 'entities' member 1 must be an object"),
        (ENTITIES, [{"id": ["Paris"]}], f"set payload 'entities' member 0: id must be {SCALAR}, got list"),
        (ENTITIES, [{"range": [False, True]}], BAD_RANGE + "[False, True]"),
        (ENTITIES, [{"range": [0.0, 1.0]}], BAD_RANGE + "[0.0, 1.0]"),
        (ENTITIES, [{"range": [0, 1, 2]}], BAD_RANGE + "[0, 1, 2]"),
        (FEAT, [1, True, 2], "singleton payload 'feat' must be a 3-vector of numbers"),
        (FEAT, [1, "2.5", 3], "singleton payload 'feat' must be a 3-vector of numbers"),
        (FEAT, [1, None, 3], "singleton payload 'feat' must be a 3-vector of numbers"),
        (FEAT, [1, 2], "singleton payload 'feat' must be a 3-vector of numbers"),
        (FEAT, [1, 2, 10**400], "singleton payload 'feat' has a number too large for a float"),
    ],
    ids=lambda v: v.name if isinstance(v, PayloadSpec) else None,
)
def test_rejected_values_name_the_field(spec, value, message):
    with pytest.raises(DataError) as caught:
        value_rule(spec)(value)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "spec, value",
    [
        (TOKENS, None),
        (TOKENS, ["a", 1, 2.5, True, None]),
        (ENTITIES, [{}, {"id": None, "range": None}, {"id": 7, "range": [3, 2**70]}]),
        (FEAT, [1, 2.5, -3]),
    ],
    ids=["null-sequence", "scalar-tokens", "member-edges", "int-and-float-vector"],
)
def test_accepted_values(spec, value):
    value_rule(spec)(value)


def test_datasets_go_through_the_same_rule():
    record = sample_record()
    record.payloads["tokens"] = [["what"], "is"]
    record.tasks = {}
    with pytest.raises(DataError, match="item 0 must be a JSON scalar"):
        record.validate(SCHEMA)
