"""Payload strategies derived from a serving signature.

For each input of a :class:`~repro.core.signature.ServingSignature`, a
value the value grammar allows (:func:`grammar_value`) or a near miss of
it (:func:`near_value`); :func:`payloads` draws one request payload.  The
admission property and the content-width property both draw from here.
"""

from __future__ import annotations

from hypothesis import strategies as st

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
numbers = st.integers(min_value=-(2**64), max_value=2**64) | st.floats(
    allow_nan=False, allow_infinity=False
)
any_json = st.recursive(
    scalars | st.floats(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
naturals = st.integers(min_value=0)
spans = st.tuples(naturals, st.integers(min_value=1)).map(lambda t: [t[0], t[0] + t[1]])
near_spans = (
    st.lists(st.integers() | st.booleans() | st.floats(), max_size=3)
    | st.tuples(st.booleans(), st.booleans()).map(list)
    | st.integers(min_value=2**63, max_value=2**80).map(lambda end: [0, end])
    | any_json
)


def members(near: bool):
    return st.fixed_dictionaries(
        {},
        optional={
            "id": any_json if near else scalars,
            "range": (st.none() | spans | near_spans) if near else (st.none() | spans),
        },
    )


def grammar_value(spec) -> st.SearchStrategy:
    """A value of ``spec``'s kind that the grammar allows."""
    if spec.type == "sequence":
        return st.none() | st.lists(scalars, max_size=spec.max_length)
    if spec.type == "set":
        return st.none() | st.lists(members(near=False), max_size=spec.max_members)
    return st.none() | st.lists(numbers, min_size=spec.dim, max_size=spec.dim)


def near_value(spec) -> st.SearchStrategy:
    """A value of ``spec``'s kind, a near miss of it, or any JSON."""
    if spec.type == "sequence":
        near = st.lists(scalars | any_json, max_size=spec.max_length + 2)
    elif spec.type == "set":
        near = st.lists(members(near=True) | any_json, max_size=spec.max_members + 2)
    else:
        near = st.lists(
            numbers
            | st.booleans()
            | st.none()
            | st.integers(min_value=2**1100, max_value=2**1200)
            | st.text(alphabet="0123456789.-e", max_size=5)
            | any_json,
            min_size=spec.dim - 1,
            max_size=spec.dim + 1,
        )
    return grammar_value(spec) | near | any_json


@st.composite
def payloads(draw, signature, near: bool):
    """One request payload for ``signature``.

    ``near=False`` draws every input from the grammar; ``near=True`` may
    also draw near-valid values, drop inputs and add unknown fields.
    """
    payload = {}
    for spec in signature.inputs:
        if near and draw(st.integers(0, 9)) == 0:
            continue  # missing
        payload[spec.name] = draw(near_value(spec) if near else grammar_value(spec))
    if near and draw(st.integers(0, 9)) == 0:
        payload[draw(st.text(max_size=4))] = draw(any_json)  # maybe unknown
    return payload
