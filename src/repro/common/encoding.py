"""Canonical, deterministic encoding of protocol values.

Digests and signatures are only meaningful if every node encodes the same
logical value to the same bytes.  This module provides a small canonical
encoder: values are converted to a JSON-compatible tree (dataclasses become
``{"__type__": ..., fields...}`` objects, byte strings become hex) and then
serialized with sorted keys and no whitespace.  The encoding is intentionally
simple and human-inspectable; it is a stand-in for the protobuf/CBOR encoding
a production deployment would use.

The same canonical text is the wire and disk format: a frame payload and a
stored record are exactly these bytes (:mod:`repro.storage.codec`), so a
value is serialized once per hop and hashed from that one serialization.

One type-keyed table produces the text; an oracle checks it:

* ``_ENCODERS[type(value)]`` is the only dispatch.  Each entry pairs a
  **fragment encoder**, ``value -> (text, cacheable)``, behind
  :func:`canonical_encode` / :func:`encoded_size` and the only writer of
  memos, with an **emitter** behind :func:`flat_encode` (frames, disk
  records) that reads memos, writes none and appends flat chunks for one
  final ``join``.  One classifier (``_classify``) fills a missing entry
  once per type, in the original decision order: ``None``, ``bool``,
  ``str``, ``int``, ``float`` (subclasses included, so ``str``/``int``-mixin
  enums encode as their plain value, as ``json.dumps`` renders them), then
  ``bytes``, enums, dataclasses, lists/tuples, frozensets, dicts.  A
  dataclass gets a straight-line encoder **generated from its layout**
  (:func:`class_layout`, which also generates the strict decoder in
  :mod:`repro.storage.codec`): exact ``str``/``int``/``bytes``/finite
  ``float``/``None``/``bool`` fields render in line, anything else goes
  back through the table, and one ``%`` interpolation builds the text.  A
  **frozen** dataclass memoizes its text on the instance when everything
  beneath it is immutable (scalars, bytes, tuples, enums, frozen
  dataclasses), so the repeated requests for one value's encoding
  (digests, signatures, ``wire_size``) cost an attribute read; lists,
  dicts, sets and non-frozen dataclasses are re-encoded on every call.
  Memos are read with ``getattr``, never through ``value.__dict__``: on
  CPython 3.11 that materializes a per-instance dict, which costs every
  stored record its memory.
* :func:`to_jsonable` + ``json.dumps`` (:func:`reference_encode`) is the
  memo-free, table-free oracle every test compares the table against, and
  the tool for debugging what was signed.

Canonical text is ASCII-escaped, so its byte length equals the fragment
string length — which makes :func:`encoded_size` O(1) for memoized values.

Trust-model note: a fragment memo is consulted by every digest and signature
check, so where a memo can come from is part of the trust argument.

* Memos **do** survive the wire.  The strict decoder
  (:func:`repro.storage.codec.decode_record`) attaches to the objects a
  receiver hashes the very span of received bytes each was decoded from.
  That is sound because the decoder accepts a span for an object only if it
  is *the* canonical encoding of that object — fixed key order, no
  whitespace, one spelling per string, number and byte string, every field
  present — and refuses the frame otherwise.  Accepted texts and decoded
  values correspond one to one, so ``H(memo) = d`` implies the object is
  the unique preimage of ``d``: hashing the span and hashing a fresh
  re-encoding give the same verdict on every input, the span just costs
  one pass instead of two.  An honest sender always emits canonical text;
  a dishonest one can only get its own frame rejected and its connection
  dropped.  The one value whose received text is not its encoding — a
  page, rebuilt under a fresh process-local ``page_id`` — never gets a
  span, and neither does anything that contains one.
* The simulator delivers messages by reference, so there a memo is state
  the sender could have attached (this has always been true of
  ``Block.digest()``'s cache, which verifiers consult).  The modeled
  adversaries (:mod:`repro.nodes.malicious`) tamper with *content*, never
  with caches.  Code that must not rely on this simulation artifact (e.g.
  forensic tooling) should use :func:`reference_encode`, which ignores all
  memos.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from json.encoder import encode_basestring_ascii as _str_text
from typing import Any, Callable

from .errors import SerializationError

#: Attribute name used to memoize canonical fragments on frozen dataclass
#: instances (set via ``object.__setattr__``; invisible to ``fields()``,
#: equality, and the encoding itself).
FRAGMENT_ATTR = "_canonical_fragment"

#: Per-dataclass precompiled layout: the literal text between the field
#: slots in canonical (sorted-key) order — braces, keys, the ``__type__`` tag,
#: assembled once — the field names feeding those slots, and the same
#: literals as one ``%``-template.  The layout generates the encoders below
#: and the strict decoder in :mod:`repro.storage.codec`, so one layout
#: defines both directions.
_CLASS_LAYOUTS: dict[type, tuple[str, tuple[str, ...], tuple[str, ...]]] = {}

#: Canonical fragments of enum members (enum members are singletons).
_ENUM_FRAGMENTS: dict[Enum, str] = {}

#: ``value -> (text, cacheable)`` and ``(value, out) -> None``.
_Fragment = Callable[[Any], tuple[str, bool]]
_Pair = tuple[_Fragment, Callable[[Any, list], None]]


def class_layout(cls: type) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """``(template, field_names, literals)`` of dataclass *cls*.

    ``literals`` has one more element than ``field_names``: the canonical
    text of an instance is ``literals[0] + f0 + literals[1] + f1 + ... +
    literals[-1]`` with ``fi`` the canonical text of field ``i``.
    """

    compiled = _CLASS_LAYOUTS.get(cls)
    if compiled is None:
        names = sorted([field.name for field in dataclasses.fields(cls)] + ["__type__"])
        literals: list[str] = []
        field_names: list[str] = []
        pending = "{"
        for index, name in enumerate(names):
            if index:
                pending += ","
            pending += _str_text(name) + ":"
            if name == "__type__":
                pending += _str_text(cls.__name__)
            else:
                literals.append(pending)
                field_names.append(name)
                pending = ""
        literals.append(pending + "}")
        template = "%s".join(literal.replace("%", "%%") for literal in literals)
        compiled = (template, tuple(field_names), tuple(literals))
        _CLASS_LAYOUTS[cls] = compiled
    return compiled


class _EncoderTable(dict):
    """``type -> (fragment, emitter)``, filled once per type on first use."""

    def __missing__(self, cls: type) -> _Pair:
        pair = self[cls] = _classify(cls)
        return pair


_ENCODERS = _EncoderTable()


def _leaf(fragment: _Fragment) -> _Pair:
    def emit(value: Any, out: list) -> None:
        out.append(fragment(value)[0])

    return fragment, emit


def _float_fragment(value: float) -> tuple[str, bool]:
    if value - value == 0.0:  # finite
        return float.__repr__(value), True
    return ("NaN" if value != value else "Infinity" if value > 0 else "-Infinity"), True


def _enum_fragment(value: Enum) -> tuple[str, bool]:
    cached = _ENUM_FRAGMENTS.get(value)
    if cached is not None:
        return cached, True
    inner, cacheable = _ENCODERS[type(value.value)][0](value.value)
    text = '{"__enum__":' + _str_text(type(value).__name__) + ',"value":' + inner + "}"
    if cacheable:
        _ENUM_FRAGMENTS[value] = text
    return text, cacheable


def _frozenset_fragment(value: frozenset) -> tuple[str, bool]:
    # The oracle's own text (unorderable items raise TypeError, which the
    # callers rewrap); cacheable only when every item is a scalar.
    items = to_jsonable(value)
    cacheable = all(item is None or isinstance(item, (bool, int, float, str)) for item in items)
    return _reference_text(items), cacheable


def _sequence(cacheable_kind: bool) -> _Pair:
    def fragment(value: Any) -> tuple[str, bool]:
        cacheable = cacheable_kind
        parts = []
        for item in value:
            if type(item) is str:
                parts.append(_str_text(item))
            else:
                text, item_cacheable = _ENCODERS[type(item)][0](item)
                cacheable = cacheable and item_cacheable
                parts.append(text)
        return "[" + ",".join(parts) + "]", cacheable

    def emit(value: Any, out: list) -> None:
        separator = "["
        for item in value:
            out.append(separator)
            _ENCODERS[type(item)][1](item, out)
            separator = ","
        out.append("[]" if separator == "[" else "]")

    return fragment, emit


def _string_keyed(value: dict) -> dict[str, Any]:
    """*value* with its keys coerced to strings (later duplicates of a
    coerced key win, as on the reference path)."""

    coerced: dict[str, Any] = {}
    for key, item in value.items():
        if not isinstance(key, (str, int, float, bool)):
            key = str(key)
        coerced[str(key)] = item
    return coerced


def _dict_fragment(value: dict) -> tuple[str, bool]:
    coerced = _string_keyed(value)
    parts = [
        _str_text(key) + ":" + _ENCODERS[type(item)][0](item)[0]
        for key, item in sorted(coerced.items())
    ]
    return "{" + ",".join(parts) + "}", False


def _dict_emit(value: dict, out: list) -> None:
    separator = "{"
    for key, item in sorted(_string_keyed(value).items()):
        out.append(separator + _str_text(key) + ":")
        _ENCODERS[type(item)][1](item, out)
        separator = ","
    out.append("{}" if separator == "{" else "}")


#: Field values a generated encoder renders in line: exact types only, so
#: a subclass (an ``int`` enum, say) always goes through the table.
_INLINE = (
    ("t is str", "_str_text(x)"),
    ("t is int", "_repr(x)"),
    ("t is bytes", "'{\"__bytes__\":\"' + x.hex() + '\"}'"),
    ("t is float and x - x == 0.0", "_repr(x)"),  # finite
    ("x is None", "'null'"),
    ("t is bool", "'true' if x else 'false'"),
)


def _field_lines(name: str, store: str, fallback: list[str]) -> list[str]:
    lines = [f"x = value.{name}", "t = type(x)"]
    for number, (test, text) in enumerate(_INLINE):
        lines += [f"{'elif' if number else 'if'} {test}:", "    " + store.format(text)]
    return lines + ["else:"] + ["    " + line for line in fallback]


def _compile_dataclass(cls: type) -> _Pair:
    """Generate the straight-line fragment encoder and emitter of *cls*."""

    template, field_names, literals = class_layout(cls)
    frozen = cls.__dataclass_params__.frozen
    read_memo = ["text = getattr(value, FRAGMENT_ATTR, None)", "if text is not None:"]
    fragment = read_memo + ["    return text, True"] if frozen else []
    emit = read_memo + ["    out.append(text)", "    return"] if frozen else []
    fragment.append(f"cacheable = {frozen}")
    for index, name in enumerate(field_names):
        fallback = [f"f{index}, ok = table[t][0](x)", "cacheable = cacheable and ok"]
        fragment += _field_lines(name, f"f{index} = {{}}", fallback)
        fallback = [f"out.append(L{index})", "table[t][1](x, out)"]
        emit += _field_lines(name, f"out.append(L{index} + ({{}}))", fallback)
    fragment.append(f"text = TEMPLATE % ({''.join(f'f{i},' for i in range(len(field_names)))})")
    if frozen:
        fragment += [
            "if cacheable:",
            "    try:",
            "        _setattr(value, FRAGMENT_ATTR, text)",
            "    except AttributeError:",
            "        return text, False  # slotted: nowhere to keep a memo",
        ]
    fragment.append("return text, cacheable")
    emit.append(f"out.append(L{len(field_names)})")
    scope: dict[str, Any] = {
        "FRAGMENT_ATTR": FRAGMENT_ATTR,
        "TEMPLATE": template,
        "table": _ENCODERS,
        "_str_text": _str_text,
        "_repr": repr,
        "_setattr": object.__setattr__,
    }
    scope.update((f"L{index}", literal) for index, literal in enumerate(literals))
    for head, lines in (("fragment(value)", fragment), ("emit(value, out)", emit)):
        exec(f"def {head}:\n" + "\n".join("    " + line for line in lines), scope)
    return scope["fragment"], scope["emit"]


def _classify(cls: type) -> _Pair:
    """The encoder pair of *cls*: the one place a value's kind is decided."""

    if cls is type(None):
        return _leaf(lambda value: ("null", True))
    if cls is bool:
        return _leaf(lambda value: ("true" if value else "false", True))
    if issubclass(cls, str):
        return _leaf(lambda value: (_str_text(value), True))
    if issubclass(cls, int):
        return _leaf(lambda value: (int.__repr__(value), True))
    if issubclass(cls, float):
        return _leaf(_float_fragment)
    if issubclass(cls, bytes):
        return _leaf(lambda value: ('{"__bytes__":"' + value.hex() + '"}', True))
    if issubclass(cls, Enum):
        return _leaf(_enum_fragment)
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _compile_dataclass(cls)
    if issubclass(cls, (list, tuple)):
        return _sequence(issubclass(cls, tuple))
    if issubclass(cls, frozenset):
        return _leaf(_frozenset_fragment)
    if issubclass(cls, dict):
        return _dict_fragment, _dict_emit
    raise SerializationError(f"cannot canonically encode value of type {cls!r}")


def to_jsonable(value: Any) -> Any:
    """Convert *value* to a tree of JSON-compatible primitives.

    Supports dataclasses, enums, ``bytes``, ``tuple``/``list``, ``dict`` with
    string-convertible keys, and the usual scalars.  Unknown types raise
    :class:`~repro.common.errors.SerializationError` rather than silently
    producing unstable encodings.
    """

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        payload["__type__"] = type(value).__name__
        return payload
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(to_jsonable(item) for item in value)
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, (str, int, float, bool)):
                key = str(key)
            encoded[str(key)] = to_jsonable(item)
        return encoded
    raise SerializationError(f"cannot canonically encode value of type {type(value)!r}")


def _reference_text(tree: Any) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def _canonical_text(value: Any) -> str:
    try:
        return _ENCODERS[type(value)][0](value)[0]
    except (TypeError, ValueError) as exc:
        raise SerializationError(str(exc)) from exc


def canonical_encode(value: Any) -> bytes:
    """Encode *value* into canonical bytes suitable for hashing and signing."""

    return _canonical_text(value).encode("ascii")


def flat_encode(value: Any) -> bytes:
    """Canonical bytes of *value* for a frame or a disk record.

    Byte-identical to :func:`canonical_encode`, with the other cost
    profile: memos are read wherever a signer, digester or the strict
    decoder left them and none are created, and the text is assembled by
    one ``join`` over flat chunks — a container without a memo contributes
    its layout literals around its children's chunks, so no level of the
    tree builds (or retains) a full-size copy of the text beneath it.
    """

    out: list[str] = []
    try:
        _ENCODERS[type(value)][1](value, out)
    except (TypeError, ValueError) as exc:
        raise SerializationError(str(exc)) from exc
    return "".join(out).encode("ascii")


def reference_encode(value: Any) -> bytes:
    """Encode via the memo-free reference path (``to_jsonable`` + dumps).

    Used by tests to assert that the encoder table is byte-identical to
    the original implementation, and available to callers that must not
    trust any cached state attached to a received object.
    """

    try:
        return _reference_text(to_jsonable(value)).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SerializationError(str(exc)) from exc


def canonical_decode(data: bytes) -> Any:
    """Decode canonical bytes back into the JSON-compatible tree.

    The decoder does not reconstruct dataclass instances; it is primarily
    used by tests and debugging tools to inspect what was signed.
    """

    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(str(exc)) from exc


def encoded_size(value: Any) -> int:
    """Return the canonical encoded size of *value* in bytes.

    The simulator uses this to charge bandwidth for messages; it is the
    single place where "message size" is defined so that data-free
    certification (sending digests) and full-data transfer (sending blocks)
    are compared consistently.  Canonical text is pure ASCII, so the byte
    size equals the fragment length — O(1) for memoized values.
    """

    return len(_canonical_text(value))
