"""The wire codec: one field-driven mapping between records and JSON.

Every request and result that crosses a process boundary is a dataclass
whose ``WIRE`` :class:`Layout` lists its JSON keys in emitted order: a
:class:`Key` (or a plain name) holds one field, encoded and checked by the
field's annotation; a :class:`Group` nests keys of the same record; a
:class:`Derived` key is computed on encode and ignored on decode; a
:class:`Tag` is a constant that decoding checks (a union of tagged records
decodes by its tag).  ``Layout(label)`` alone lists every field.

The shared rules live here only: tuples become lists and back, a key with
``omit`` is left out while its field holds that value (other ``None``
fields are written as ``null``), a number is never a boolean or a string,
and a field with a default may be missing.  A decode error is an
:class:`~repro.errors.AnalysisError` naming the field's path.  A ``strict``
layout (a request) rejects keys it does not define; a result ignores them,
so readers take additive schema versions and the service's envelope.  Each
class's plan is built once; its encoder is generated as straight-line
Python, since a result is encoded on every service request.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import json
import numbers
import typing
from typing import (
    Callable, ClassVar, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from ..errors import AnalysisError

_KEEP = object()  # Key.omit default: always written


class Key(NamedTuple):
    """The key ``name`` holding the field ``attr`` (default: ``name``).

    ``omit``: left out while the field equals it; a missing key decodes to
    it.  ``detail``: left out of brief encodings and required on decode.
    ``brief``: the field's record is encoded brief.  ``aliases``: other keys
    a decoder accepts.
    """

    name: str
    attr: Optional[str] = None
    omit: object = _KEEP
    detail: bool = False
    brief: bool = False
    aliases: Tuple[str, ...] = ()


class Derived(NamedTuple):
    """An encode-only key: attribute ``get`` (default: ``name``) or ``get(record)``."""

    name: str
    get: Union[str, Callable[[object], object], None] = None


class Tag(NamedTuple):
    """A constant key that decoding checks."""

    name: str
    value: str


class Group:
    """A nested JSON object ``name`` whose entries hold fields of the same record."""

    def __init__(self, name: str, *entries: object) -> None:
        self.name = name
        self.entries = tuple(map(_entry, entries))


class Layout:
    """The wire keys of one record class; ``label`` names it in errors."""

    def __init__(self, label: str, *entries: object, strict: bool = False) -> None:
        self.label = label
        self.entries = tuple(map(_entry, entries))
        self.strict = strict


def _entry(entry: object):
    return Key(entry) if isinstance(entry, str) else entry


class Record:
    """``to_dict``/``to_json``/``from_dict`` of a dataclass with a ``WIRE`` layout.

    ``include_steps=False`` is the brief encoding: it leaves out the
    per-step composition records, the one ``detail`` key.
    """

    WIRE: ClassVar[Layout]

    def to_dict(self, include_steps: bool = True) -> Dict[str, object]:
        return encode(self, brief=not include_steps)

    def to_json(self, indent: Optional[int] = 2, include_steps: bool = True) -> str:
        return json.dumps(self.to_dict(include_steps), indent=indent)

    @classmethod
    def from_dict(cls, payload: object):
        return decode(cls, payload)


def check_fields(payload: object, where: str, known: Iterable[str]) -> Dict[str, object]:
    """``payload`` as a dict, or an error unless it is an object of ``known`` fields."""
    if not _is_object(payload):
        raise AnalysisError(f"the {where} must be a JSON object")
    known = sorted(known)
    unknown = sorted(str(name) for name in payload if name not in known)
    if unknown:
        raise AnalysisError(
            f"unknown {where} field(s): {', '.join(unknown)} (expected a subset of {known})"
        )
    return dict(payload)


def encode(record: object, brief: bool = False) -> Dict[str, object]:
    """The JSON object of ``record``."""
    return _plan(type(record)).encode(record, brief)


def decode(cls, payload: object, envelope: Sequence[str] = ()):
    """A ``cls`` from its JSON object; ``envelope`` names keys the caller reads."""
    plan = _plan(cls)
    if not _is_object(payload):
        raise AnalysisError(f"the {plan.label} must be a JSON object")
    try:
        return plan.decode(payload, envelope)
    except _Bad as bad:
        raise AnalysisError(f"{plan.label} field {bad.where()!r} {bad.message}") from None


class _Bad(Exception):
    """A decode error on its way out, collecting the field path."""

    def __init__(self, message: str, expected: str = "") -> None:
        super().__init__(message)
        self.message, self.expected = message, expected
        self.path: List[str] = []

    def at(self, part: str) -> "_Bad":
        self.path.append(part)
        return self

    def where(self) -> str:
        parts = self.path[::-1]
        return parts[0] + "".join(p if p.startswith("[") else "." + p for p in parts[1:])


def _is_object(value: object) -> bool:
    return type(value) is dict or isinstance(value, collections.abc.Mapping)


def _object(value: object) -> typing.Mapping:
    if not _is_object(value):
        raise _wrong("a JSON object", value)
    return value


def _wrong(expected: str, value: object) -> _Bad:
    shown = repr(value)
    shown = shown if len(shown) <= 60 else shown[:57] + "..."
    return _Bad(f"must be {expected}, got {shown}", expected)


class _Plan:
    """One record class's generated encoder and its decode steps."""

    def __init__(self, cls) -> None:
        layout: Layout = cls.WIRE
        fields = dataclasses.fields(cls)
        self.cls, self.label, self.strict = cls, layout.label, layout.strict
        self.tags: Dict[str, str] = {}
        entries = layout.entries or tuple(Key(f.name) for f in fields)
        hints = typing.get_type_hints(cls)
        names: Dict[str, object] = {}
        lines = ["def encode(record, brief=False):"]
        self._emit(entries, "out", hints, names, lines)
        exec("\n".join(lines + ["    return out"]), names)  # noqa: S102 - from the layout
        self.encode = names["encode"]
        defaults = {f.name for f in fields if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING}
        self.readers = [self._reader(entry, hints, defaults)
                        for entry in entries if not isinstance(entry, Derived)]
        self.known = [key for keys, *_ in self.readers for key in keys]
        self.known += [entry.name for entry in entries if isinstance(entry, Derived)]

    def decode(self, payload: typing.Mapping, envelope: Sequence[str] = ()):
        if self.strict:
            check_fields(payload, self.label, self.known + list(envelope))
        return self.cls(**_read(payload, self.readers, {}))

    def _emit(self, entries, target: str, hints, names: Dict[str, object], lines: List[str]):
        """Append the statements that write ``entries`` into ``target``."""

        def ref(value: object) -> str:
            names[f"_{len(names)}"] = value
            return f"_{len(names) - 1}"

        lines.append(f"    {target} = {{}}")
        for entry in entries:
            slot = f"{target}[{entry.name!r}]"
            if isinstance(entry, Tag):
                self.tags[entry.name] = entry.value
                lines.append(f"    {slot} = {entry.value!r}")
            elif isinstance(entry, Derived):
                get = entry.get or entry.name
                value = f"{ref(get)}(record)" if callable(get) else f"record.{get}"
                lines.append(f"    {slot} = {value}")
            elif isinstance(entry, Group):
                nested = f"{target}_{len(lines)}"
                self._emit(entry.entries, nested, hints, names, lines)
                lines.append(f"    {slot} = {nested}")
            else:
                attr = entry.attr or entry.name
                value = _encoding(hints[attr], "value", "True" if entry.brief else "brief", ref, 0)
                test = ["not brief"] if entry.detail else []
                if entry.omit is None:
                    test.append("value is not None")
                elif entry.omit is not _KEEP:
                    test.append(f"value != {ref(entry.omit)}")
                lines.append(f"    value = record.{attr}")
                lines.append(f"    if {' and '.join(test)}:" if test else "    if True:")
                lines.append(f"        {slot} = {value}")

    def _reader(self, entry, hints, defaults) -> Tuple[Tuple[str, ...], Callable, bool, Dict]:
        """How ``entry`` is read: its keys, the step that puts its value into
        the constructor's fields, whether it is required and the fields it
        gives when missing."""
        if isinstance(entry, Tag):

            def tag(value, fields):
                if value != entry.value:
                    raise _wrong(repr(entry.value), value)

            return (entry.name,), tag, True, {}
        if isinstance(entry, Group):
            readers = [self._reader(inner, hints, defaults)
                       for inner in entry.entries if not isinstance(inner, Derived)]

            def group(value, fields):
                _read(_object(value), readers, fields)

            return (entry.name,), group, True, {}
        attr = entry.attr or entry.name
        convert = _decoder_of(hints[attr])

        def key(value, fields):
            fields[attr] = convert(value)

        required = entry.detail or (entry.omit is _KEEP and attr not in defaults)
        missing = {} if entry.omit is _KEEP else {attr: entry.omit}
        return (entry.name,) + entry.aliases, key, required, missing


def _read(payload: typing.Mapping, readers, fields: Dict[str, object]) -> Dict[str, object]:
    """``fields`` with the constructor fields ``readers`` take from ``payload``."""
    for keys, read, required, missing in readers:
        found = [key for key in keys if key in payload]
        if len(found) > 1:
            raise _Bad(f"is given as both {' and '.join(found)}").at(keys[0])
        if not found:
            if required:
                raise _Bad("is missing").at(keys[0])
            fields.update(missing)
            continue
        try:
            read(payload[found[0]], fields)
        except _Bad as bad:
            raise bad.at(found[0])
    return fields


#: Plans by record class; threads racing on a first use build equal plans.
_PLANS: Dict[type, _Plan] = {}


def _plan(cls) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _Plan(cls)
    return plan


def _is_record(tp: object) -> bool:
    return isinstance(tp, type) and isinstance(getattr(tp, "WIRE", None), Layout)


_SEQUENCES = (tuple, list, collections.abc.Sequence)
_MAPPINGS = (dict, collections.abc.Mapping)


def _encoding(tp: object, value: str, brief: str, ref, depth: int) -> str:
    """The expression that writes ``value``, of annotation ``tp``, as JSON."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if _is_record(tp):
        return f"{ref(_plan(tp).encode)}({value}, {brief})"
    if origin is Union:
        members = [arg for arg in args if arg is not type(None)]
        if len(members) > 1:
            return f"{ref(_encode_any)}({value}, {brief})"
        inner = _encoding(members[0], value, brief, ref, depth)
        return value if inner == value else f"(None if {value} is None else {inner})"
    item = f"item{depth}"
    if origin in _SEQUENCES:
        inner = _encoding(args[0], item, brief, ref, depth + 1)
        return f"list({value})" if inner == item else f"[{inner} for {item} in {value}]"
    if origin in _MAPPINGS:
        inner = _encoding(args[1], item, brief, ref, depth + 1)
        if inner == item:
            return f"dict({value})"
        return f"{{key{depth}: {inner} for key{depth}, {item} in {value}.items()}}"
    return value


def _encode_any(value: object, brief: bool) -> object:
    """A value of a union type, written by its runtime type."""
    if _is_record(type(value)):
        return encode(value, brief)
    if isinstance(value, (tuple, list)):
        return [_encode_any(item, brief) for item in value]
    return value


def _scalar(kind: type, expected: str, number: Union[type, tuple] = ()) -> Callable:
    """A check that takes a ``kind``, or a ``number`` other than a boolean."""

    def check(value: object) -> object:
        if type(value) is kind:
            return value
        if isinstance(value, number) and not isinstance(value, bool):
            return kind(value)
        raise _wrong(expected, value)

    return check


_SCALARS: Dict[object, Callable[[object], object]] = {
    float: _scalar(float, "a number", numbers.Real),
    int: _scalar(int, "an integer", numbers.Integral),
    bool: _scalar(bool, "true or false"),
    str: _scalar(str, "a string"),
    object: lambda value: value,
}


def _decoder_of(tp: object) -> Callable[[object], object]:
    """How a JSON value is checked and turned into a value of annotation ``tp``."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if _is_record(tp):
        return lambda value: _plan(tp).decode(_object(value))
    if origin is Union:
        members = [arg for arg in args if arg is not type(None)]
        inner = _decoder_of(members[0]) if len(members) == 1 else _union(members)
        return inner if len(members) == len(args) else (lambda v: None if v is None else inner(v))
    if origin in _SEQUENCES:
        item, make = _decoder_of(args[0]), list if origin is list else tuple

        def sequence(value):
            if not isinstance(value, (list, tuple)):
                raise _wrong("a list", value)
            items = []
            for index, entry in enumerate(value):
                try:
                    items.append(item(entry))
                except _Bad as bad:
                    raise bad.at(f"[{index}]")
            return make(items)

        return sequence
    if origin in _MAPPINGS:
        item = _decoder_of(args[1])

        def mapping(value):
            items = {}
            for key, entry in _object(value).items():
                try:
                    items[_SCALARS[str](key)] = item(entry)
                except _Bad as bad:
                    raise bad.at(str(key))
            return items

        return mapping
    raise TypeError(f"no wire decoder for {tp!r}")


def _union(members: Sequence[object]) -> Callable[[object], object]:
    """A value of one of ``members``: by the tag every member record carries,
    else the first member that takes it."""
    plans = [_plan(member) for member in members if _is_record(member)]
    tags = set.intersection(*(set(plan.tags) for plan in plans)) if plans else set()
    if len(plans) == len(members) and tags:
        tag = min(tags)
        by_tag = {plan.tags[tag]: plan for plan in plans}

        def dispatch(value):
            name = _object(value).get(tag)
            if not isinstance(name, str) or name not in by_tag:
                raise _wrong(f"one of {sorted(by_tag)}", name).at(tag)
            return by_tag[name].decode(value)

        return dispatch
    decoders = [_decoder_of(member) for member in members]

    def first(value):
        errors = []
        for decoder in decoders:
            try:
                return decoder(value)
            except _Bad as bad:
                errors.append(bad)
        if any(bad.path for bad in errors):
            raise next(bad for bad in errors if bad.path)
        raise _wrong(" or ".join(bad.expected for bad in errors), value)

    return first
