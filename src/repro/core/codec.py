"""One codec for every declarative spec: dataclass fields to JSON and back.

Heal policies, tuning configs, fault plans, workload specs, breaker and
supervision policies, serving signatures and the store's records are all
plain dataclasses that operators write as JSON.  :class:`Spec` derives
their ``to_dict`` / ``from_dict`` / ``from_file`` / ``to_json`` from the
fields and type hints, so every one of them follows the same rule:

- fields appear in declaration order; tuples become lists, nested specs
  nest, and scalars pass through without coercion;
- a missing field takes its default; a missing *required* field, an
  unknown key, a non-object input or an unreadable file raises the
  error the class declares (``class HealPolicy(Spec,
  error=AutopilotError)``), naming the class and the key;
- ``to_json`` sorts keys, so equal specs are equal bytes.

A field may store under another JSON key with
``field(metadata={"json": "payloads"})`` (the tuning spec's Fig. 2a names).

:func:`replacing` is the one atomic writer (temp file + ``os.replace``)
behind the store index, the version log, the trial cache and the
decision journal's compaction.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import operator
import os
import threading
import types
import typing
from pathlib import Path
from typing import Any, Callable, ClassVar, NamedTuple

from repro.errors import ReproError

_JSON_TYPES = {list: "array", dict: "object"}


class Spec:
    """Mixin for a dataclass that reads and writes JSON through its fields."""

    _error: ClassVar[type[ReproError]] = ReproError

    def __init_subclass__(cls, error: type[ReproError] | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if error is not None:
            cls._error = error

    def to_dict(self) -> dict:
        """Plain-JSON form: fields in declaration order, tuples as lists."""
        return _writer(type(self))(self)

    def to_json(self, indent: int | None = 2) -> str:
        """Canonical JSON text (sorted keys) for files and content hashes."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, spec: dict) -> typing.Self:
        """Inverse of :meth:`to_dict`; malformed input raises the declared error."""
        fields = _fields(cls)
        name = cls.__name__
        if not isinstance(spec, dict):
            raise cls._error(f"{name} must be a JSON object, got {type(spec).__name__}")
        unknown = spec.keys() - fields.keys()
        if unknown:
            raise cls._error(
                f"unknown {name} keys {sorted(unknown)}; expected {list(fields)}"
            )
        missing = [key for key, f in fields.items() if f.required and key not in spec]
        if missing:
            raise cls._error(f"{name} is missing required keys {missing}")
        kwargs = {}
        for key, value in spec.items():
            f = fields[key]
            try:
                kwargs[f.name] = value if f.decode is None else f.decode(value)
            except TypeError as exc:
                raise cls._error(f"{name}.{key}: {exc}") from exc
            except ReproError as exc:
                raise type(exc)(f"{name}.{key}: {exc}") from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise cls._error(f"bad {name}: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> typing.Self:
        """Parse :meth:`to_json` text."""
        try:
            spec = json.loads(text)
        except ValueError as exc:
            raise cls._error(f"{cls.__name__} is not valid JSON: {exc}") from exc
        return cls.from_dict(spec)

    @classmethod
    def from_file(cls, path: str | Path) -> typing.Self:
        """Load a spec from a JSON file."""
        try:
            spec = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise cls._error(f"cannot read {cls.__name__} {path}: {exc}") from exc
        return cls.from_dict(spec)


class _Field(NamedTuple):
    name: str
    key: str
    required: bool
    encode: Callable[[Any], Any] | None
    decode: Callable[[Any], Any] | None


@functools.cache
def _fields(cls: type) -> dict[str, _Field]:
    """The JSON key -> field table of one spec class, resolved once."""
    hints = typing.get_type_hints(cls)
    table = {}
    for f in dataclasses.fields(cls):
        key = f.metadata.get("json", f.name)
        required = f.default is dataclasses.MISSING and (
            f.default_factory is dataclasses.MISSING
        )
        table[key] = _Field(f.name, key, required, *_coders(hints[f.name]))
    return table


@functools.cache
def _writer(cls: type) -> Callable[[Any], dict]:
    """``to_dict`` for one spec class: read every field at once, then encode
    only the fields that need it (tuning keys each trial through this)."""
    fields = tuple(_fields(cls).values())
    keys = tuple(f.key for f in fields)
    get = operator.attrgetter(*(f.name for f in fields))
    values = get if len(fields) > 1 else (lambda obj: (get(obj),))
    encoded = tuple((f.key, f.encode) for f in fields if f.encode is not None)

    def write(obj: Any) -> dict:
        out = dict(zip(keys, values(obj)))
        for key, encode in encoded:
            out[key] = encode(out[key])
        return out

    return write


def _coders(hint: Any) -> tuple[Callable | None, Callable | None]:
    """``(encode, decode)`` for one field type; ``None`` passes values through."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    inner = [a for a in args if a is not type(None)]
    if origin in (typing.Union, types.UnionType) and len(inner) == 1:
        encode, decode = _coders(inner[0])
        return (
            encode and (lambda v: None if v is None else encode(v)),
            decode and (lambda v: None if v is None else decode(v)),
        )
    if origin is tuple:
        encode, decode = _coders(args[0]) if args[-1] is Ellipsis else (None, None)
        if decode is None:
            return list, lambda v: tuple(_expect(v, list))
        return (
            (lambda v: [encode(x) for x in v]) if encode else list,
            lambda v: tuple(map(decode, _expect(v, list))),
        )
    if origin is dict or hint is dict:
        encode, decode = _coders(args[1]) if args else (None, None)
        if decode is None:
            return None, lambda v: _expect(v, dict)
        return (
            encode and (lambda v: {k: encode(x) for k, x in v.items()}),
            lambda v: {k: decode(x) for k, x in _expect(v, dict).items()},
        )
    if isinstance(hint, type) and issubclass(hint, Spec):
        return (lambda v: v.to_dict()), hint.from_dict
    return None, None


def _expect(value: Any, kind: type) -> Any:
    accepted = (list, tuple) if kind is list else kind
    if not isinstance(value, accepted):
        raise TypeError(
            f"expected a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}"
        )
    return value


@contextlib.contextmanager
def replacing(path: str | Path, mode: str = "w"):
    """Write a temp file beside ``path``, then rename it over ``path``.

    Readers see the old file or the new one, never a torn one: a writer
    that dies midway leaves only its temp file (``*.tmp``, named by
    process and thread so concurrent writers never share one), which it
    removes on the way out when it can.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
