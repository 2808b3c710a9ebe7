"""JSON documents derived from dataclass fields.

`decode(tp, value)` types a JSON value by the annotation `tp`: a float
takes a number, an int an integral number, a bool true or false, a str a
string, a tuple or sequence a list, a mapping an object, and a union the
alternative of the value's JSON type; where null is allowed, an empty list
is an error.  A dataclass takes an object with a key per field.  A field
without a default is required, except a nested dataclass, which reads a
missing object as {}, and any other key is an error.  A class may put
fields under other keys (`_json_keys`, "a.b" for key b of object a; an
object that only such keys read is required) and give a field its own
(decode, encode) pair (`_json_coders`).  `encode` is the inverse.  Each
class's field table is built once.
"""

from __future__ import annotations

import functools
import inspect
import types
import typing
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, fields, is_dataclass, replace
from typing import Any, Callable

# what a value of each scalar annotation must be
_SCALARS = {
    float: "a number",
    int: "an integer",
    bool: "true or false",
    str: "a string",
    type(None): "null",
}


class SchemaError(ValueError):
    """A document value of the wrong form; `path` leads to it from the
    innermost key out."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.path: list[str | int] = []

    def __str__(self) -> str:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in reversed(self.path))
        return f"{where.removeprefix('.')}: {self.args[0]}" if where else self.args[0]


def within(key: str | int, decode: Callable, *args: Any) -> Any:
    """`decode(*args)`, with `key` added to the path of a SchemaError."""
    try:
        return decode(*args)
    except SchemaError as exc:
        exc.path.append(key)
        raise


@functools.cache
def _hints(cls: type) -> dict[str, Any]:
    """The evaluated annotations of a class's own fields."""
    return inspect.get_annotations(cls, eval_str=True)


def _json_type(tp: Any) -> type | tuple[type, ...]:
    """The JSON type of the values of annotation `tp`."""
    origin = typing.get_origin(tp) or tp
    if is_dataclass(tp) or origin is Mapping:
        return dict
    if origin in (tuple, Sequence):
        return list
    return (int, float) if tp is float else tp


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _SCALARS:
        name = _SCALARS[tp]

        def scalar(value: Any) -> Any:
            if type(value) is tp:
                return value
            if tp is int and isinstance(value, float) and value.is_integer():
                return int(value)
            if tp is float and isinstance(value, int) and not isinstance(value, bool):
                return float(value)
            raise SchemaError(f"must be {name}, not {value!r}")

        return scalar
    if is_dataclass(tp):
        return _fields(tp).decode
    if origin in (typing.Union, types.UnionType):
        alternatives = [(_json_type(a), _decoder(a)) for a in args]
        nullable = type(None) in args

        def union(value: Any) -> Any:
            for kind, decode in alternatives:
                if isinstance(value, kind):
                    if nullable and value == []:
                        raise SchemaError("must not be empty (leave it out instead)")
                    return decode(value)
            raise SchemaError(f"cannot be {value!r}")

        return union
    if origin is Mapping:
        item = _decoder(args[1])

        def mapping(value: Any) -> dict:
            return {k: within(k, item, v) for k, v in _object(value).items()}

        return mapping
    if origin not in (tuple, Sequence):
        raise TypeError(f"no JSON form for {tp}")
    fixed = origin is tuple and args[-1] is not Ellipsis
    items = [_decoder(a) for a in (args if fixed else args[:1])]

    def sequence(value: Any) -> tuple:
        if not isinstance(value, list) or (fixed and len(value) != len(items)):
            raise SchemaError(f"must be a list of {len(items) if fixed else 'any'} items")
        return tuple(within(i, items[i if fixed else 0], v) for i, v in enumerate(value))

    return sequence


_SKIP, _REQUIRED = object(), object()


def _object(value: Any) -> dict:
    """A copy of a JSON object; `_REQUIRED` stands for a missing one."""
    if value is _REQUIRED:
        raise SchemaError("is required")
    if not isinstance(value, dict):
        raise SchemaError(f"must be an object, not {value!r}")
    return dict(value)


class _Fields:
    """Field table of one dataclass: a (name, key, subkey, decode, encode,
    value when absent) row per field, in field order, and the value of
    each object that sub-keys read when it is missing."""

    def __init__(self, cls: type) -> None:
        self.cls, self.rows = cls, []
        hints, keys = _hints(cls), getattr(cls, "_json_keys", {})
        for f in fields(cls):
            tp = hints[f.name]
            key, sub = keys.get(f.name, f.name).partition(".")[::2]
            coders = getattr(cls, "_json_coders", {}).get(f.name) or (_decoder(tp), encode)
            if f.default is not MISSING or f.default_factory is not MISSING:
                absent = _SKIP
            else:
                absent = {} if is_dataclass(tp) else _REQUIRED
            self.rows.append((f.name, key, sub, *coders, absent))
        whole = {key for _, key, sub, *_ in self.rows if not sub}
        self.groups = {
            key: {} if key in whole else _REQUIRED for _, key, sub, *_ in self.rows if sub
        }
        # sub-keys are taken out of their object before a field reads it whole
        self.decode_rows = sorted(self.rows, key=lambda row: not row[2])

    def decode(self, data: Any) -> Any:
        data, args = _object(data), {}
        for name, key, sub, decode, _, absent in self.decode_rows:
            if sub:
                group = data[key] = within(key, _object, data.get(key, self.groups[key]))
                value = group.pop(sub, absent)
            else:
                value = data.pop(key, absent)
            if value is not _SKIP:
                try:
                    if value is _REQUIRED:
                        raise SchemaError("is required")
                    args[name] = decode(value)
                except SchemaError as exc:
                    exc.path.extend((sub, key) if sub else (key,))
                    raise
        if data:  # unknown keys, or the objects that sub-keys read
            unknown = [f"{k}.{s}" for k in self.groups if k in data for s in data.pop(k)]
            unknown += data
            if unknown:
                raise SchemaError(f"unknown key(s) {', '.join(unknown)}")
        return self.cls(**args)

    def encode(self, obj: Any) -> dict:
        out: dict = {}
        for name, key, sub, _, enc, _ in self.rows:
            value = enc(getattr(obj, name))
            if sub:
                out.setdefault(key, {})[sub] = value
            else:
                out[key] = value
        return out


_fields = functools.cache(_Fields)


def decode(tp: Any, value: Any) -> Any:
    """The JSON `value` as annotation `tp` says; SchemaError if it has
    another form."""
    return _decoder(tp)(value)


def encode(value: Any) -> Any:
    """The JSON form of a value `decode` returns."""
    if is_dataclass(value):
        return _fields(type(value)).encode(value)
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, Mapping):
        return {k: encode(v) for k, v in value.items()}
    return value


def field_type(cls: type, path: str) -> Any:
    """Annotation of the field at dotted `path` below `cls`."""
    for name in path.split("."):
        cls = _hints(cls)[name]
    return cls


def replace_path(obj: Any, path: str, value: Any) -> Any:
    """`obj` with the field at dotted `path` set to `value`."""
    head, _, rest = path.partition(".")
    return replace(obj, **{head: replace_path(getattr(obj, head), rest, value) if rest else value})
