"""What a payload value may hold: one rule per input kind.

A payload's kind in the schema (§2.1) is the contract between the data and
the model, and :func:`value_rule` is that contract for values.  The same
rule checks a dataset record (:meth:`Record.validate`) and a serving
request (:meth:`repro.api.Endpoint.admit_payload`), and it is exact: what
it accepts, :func:`~repro.data.batching.encode_inputs` encodes.

* sequence: null, or a list of at most ``max_length`` JSON scalars
  (string, number, boolean or null) — exactly the values the vocab lookup
  can hash;
* set: null, or a list of at most ``max_members`` objects; a member's
  ``id`` is absent or a JSON scalar, and its ``range`` is absent, null or
  ``[start, end)`` integers with ``0 <= start < end``;
* singleton with ``dim``: null, or exactly ``dim`` numbers (integers or
  floats; an integer too large for a float64 is not one).

Derived singletons (``base``) are computed by the model, so any value is
accepted and ignored.  Types are matched exactly: a boolean is not a
number, and ``"1.5"`` is not one either.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.core.payloads import PayloadSpec
from repro.errors import DataError

JSON_SCALARS = frozenset({str, int, float, bool, type(None)})
_NUMBERS = frozenset({int, float})
_SCALAR_TEXT = "a JSON scalar (string, number, boolean or null)"


def value_rule(spec: PayloadSpec) -> Callable[[Any], None]:
    """The check for one payload's values; raises :class:`DataError`.

    Build it once per payload and call it per value: the sequence check
    makes no Python call per item.
    """
    if spec.type == "sequence":
        return partial(_check_sequence, spec.name, spec.max_length)
    if spec.type == "set":
        return partial(_check_set, spec.name, spec.max_members)
    if spec.dim is not None:
        return partial(_check_vector, spec.name, spec.dim)
    return _accept


def _accept(value: Any) -> None:
    return None


def _check_sequence(name: str, max_length: int, value: Any) -> None:
    if value is None:
        return
    if not isinstance(value, list):
        raise DataError(f"sequence payload {name!r} must be a list")
    if len(value) > max_length:
        raise DataError(
            f"sequence payload {name!r} has {len(value)} items, "
            f"max_length is {max_length}"
        )
    if not JSON_SCALARS.issuperset(map(type, value)):
        i = next(i for i, item in enumerate(value) if type(item) not in JSON_SCALARS)
        raise DataError(
            f"sequence payload {name!r} item {i} must be {_SCALAR_TEXT}, "
            f"got {type(value[i]).__name__}"
        )


def _check_set(name: str, max_members: int, value: Any) -> None:
    if value is None:
        return
    if not isinstance(value, list):
        raise DataError(f"set payload {name!r} must be a list of members")
    if len(value) > max_members:
        raise DataError(
            f"set payload {name!r} has {len(value)} members, "
            f"max_members is {max_members}"
        )
    for i, member in enumerate(value):
        if not isinstance(member, dict):
            raise DataError(f"set payload {name!r} member {i} must be an object")
        if type(member.get("id")) not in JSON_SCALARS:
            raise DataError(
                f"set payload {name!r} member {i}: id must be {_SCALAR_TEXT}, "
                f"got {type(member['id']).__name__}"
            )
        span = member.get("range")
        if span is not None and not (
            isinstance(span, list)
            and len(span) == 2
            and type(span[0]) is int
            and type(span[1]) is int
            and 0 <= span[0] < span[1]
        ):
            raise DataError(
                f"set payload {name!r} member {i}: range must be "
                f"[start, end) with 0 <= start < end, got {span!r}"
            )


def _check_vector(name: str, dim: int, value: Any) -> None:
    if value is None:
        return
    if (
        not isinstance(value, list)
        or len(value) != dim
        or not _NUMBERS.issuperset(map(type, value))
    ):
        raise DataError(f"singleton payload {name!r} must be a {dim}-vector of numbers")
    try:
        list(map(float, value))
    except OverflowError:
        raise DataError(
            f"singleton payload {name!r} has a number too large for a float"
        ) from None
