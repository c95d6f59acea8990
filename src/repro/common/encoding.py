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

Three functions produce byte-identical output:

* a fragment encoder (:func:`canonical_encode`) that serializes each value
  directly to its canonical JSON text through a **per-class precompiled
  layout** (one C-level ``%`` interpolation per dataclass instead of
  per-field joins) and **memoizes the fragment on frozen dataclass
  instances**.  Records, pages, blocks, and messages are frozen and deeply
  immutable, but their encodings are requested over and over (digests,
  signatures, ``wire_size`` accounting), so the memo turns repeated
  full-tree walks into a dictionary lookup.  A fragment is only cached when
  everything beneath it is immutable (scalars, bytes, tuples, enums, other
  frozen dataclasses); values containing lists, dicts, sets, or non-frozen
  dataclasses are re-encoded on every call, exactly like the reference
  path;
* a flat encoder (:func:`flat_encode`) for frames and records, which reads
  those memos, writes none, and assembles the text with a single join;
* :func:`to_jsonable` + ``json.dumps`` (:func:`reference_encode`) — the
  memo-free oracle every test compares the other two against, and the tool
  for debugging what was signed.

Because ``json.dumps`` is used with ``ensure_ascii=True``, canonical text is
pure ASCII and the encoded byte length equals the fragment string length —
which makes :func:`encoded_size` O(1) for memoized values.

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
from typing import Any

from .errors import SerializationError

#: Attribute name used to memoize canonical fragments on frozen dataclass
#: instances (set via ``object.__setattr__``; invisible to ``fields()``,
#: equality, and the encoding itself).
FRAGMENT_ATTR = "_canonical_fragment"

#: Canonical JSON text of scalars: identical to how ``json.dumps`` renders
#: them inside a larger document (separators only affect containers).
_scalar_text = json.dumps

#: Per-dataclass precompiled layout: the literal text between the field
#: slots in canonical (sorted-key) order — braces, keys, the ``__type__`` tag,
#: assembled once — the field names feeding those slots, and the same
#: literals as one ``%``-template.  One C-level interpolation replaces the
#: per-field prefix concatenations and the final join of the naive plan (the
#: "single precompiled fast path" of the canonical block-digest encoding);
#: the literals drive the flat encoder below and the strict decoder in
#: :mod:`repro.storage.codec`, so one layout defines both directions.
_CLASS_LAYOUTS: dict[type, tuple[str, tuple[str, ...], tuple[str, ...]]] = {}

#: Canonical fragments of enum members (enum members are singletons).
_ENUM_FRAGMENTS: dict[Enum, str] = {}


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
            pending += _scalar_text(name) + ":"
            if name == "__type__":
                pending += _scalar_text(cls.__name__)
            else:
                literals.append(pending)
                field_names.append(name)
                pending = ""
        literals.append(pending + "}")
        template = "%s".join(literal.replace("%", "%%") for literal in literals)
        compiled = (template, tuple(field_names), tuple(literals))
        _CLASS_LAYOUTS[cls] = compiled
    return compiled


def _fragment(value: Any) -> tuple[str, bool]:
    """Return ``(canonical JSON text, cacheable)`` for *value*.

    ``cacheable`` is ``True`` only when the value (and everything beneath
    it) is immutable, i.e. when memoizing the fragment can never observe a
    stale encoding.
    """

    if value is None or isinstance(value, (bool, int, float, str)):
        return _scalar_text(value), True
    if isinstance(value, bytes):
        return '{"__bytes__":' + _scalar_text(value.hex()) + "}", True
    if isinstance(value, Enum):
        cached = _ENUM_FRAGMENTS.get(value)
        if cached is not None:
            return cached, True
        inner, inner_cacheable = _fragment(value.value)
        text = (
            '{"__enum__":'
            + _scalar_text(type(value).__name__)
            + ',"value":'
            + inner
            + "}"
        )
        if inner_cacheable:
            _ENUM_FRAGMENTS[value] = text
        return text, inner_cacheable
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        frozen = type(value).__dataclass_params__.frozen
        if frozen:
            cached = getattr(value, FRAGMENT_ATTR, None)
            if cached is not None:
                return cached, True
        template, field_names, _ = class_layout(type(value))
        cacheable = frozen
        fragments: list[str] = []
        for field_name in field_names:
            child_text, child_cacheable = _fragment(getattr(value, field_name))
            cacheable = cacheable and child_cacheable
            fragments.append(child_text)
        text = template % tuple(fragments)
        if cacheable:
            try:
                object.__setattr__(value, FRAGMENT_ATTR, text)
            except AttributeError:
                # Slotted dataclasses have nowhere to stash the memo.
                cacheable = False
        return text, cacheable
    if isinstance(value, (list, tuple)):
        parts = []
        cacheable = isinstance(value, tuple)
        for item in value:
            text, child_cacheable = _fragment(item)
            cacheable = cacheable and child_cacheable
            parts.append(text)
        return "[" + ",".join(parts) + "]", cacheable
    if isinstance(value, frozenset):
        # Matches the reference path: items become jsonable trees, are sorted,
        # and serialize as a list (mixed/unorderable items raise TypeError,
        # which canonical_encode rewraps, exactly like the reference).
        items = sorted(to_jsonable(item) for item in value)
        parts = [
            json.dumps(item, sort_keys=True, separators=(",", ":"))
            for item in items
        ]
        cacheable = all(
            item is None or isinstance(item, (bool, int, float, str))
            for item in items
        )
        return "[" + ",".join(parts) + "]", cacheable
    if isinstance(value, dict):
        coerced = _string_keyed(value)
        parts = [
            _scalar_text(key) + ":" + _fragment(coerced[key])[0]
            for key in sorted(coerced)
        ]
        return "{" + ",".join(parts) + "}", False
    raise SerializationError(f"cannot canonically encode value of type {type(value)!r}")


def _string_keyed(value: dict) -> dict[str, Any]:
    """*value* with its keys coerced to strings.

    Coercing through a dict mirrors the reference path's key-collision
    semantics (later duplicates of a coerced key win).
    """

    coerced: dict[str, Any] = {}
    for key, item in value.items():
        if not isinstance(key, (str, int, float, bool)):
            key = str(key)
        coerced[str(key)] = item
    return coerced


def _emit(value: Any, out: list[str]) -> None:
    """Append the canonical text of *value* to *out* as flat chunks.

    Reads every fragment memo and writes none: a container that carries no
    memo contributes its layout literals around its children's chunks, so
    the caller's single ``join`` is the only place the text of a large
    message is assembled (nested ``%`` interpolation would build one
    full-size transient string per nesting level), and no level of the tree
    retains a copy of the text beneath it that nothing will hash.
    """

    compiled = _CLASS_LAYOUTS.get(type(value))
    if compiled is None and (
        dataclasses.is_dataclass(value)
        and not isinstance(value, (type, bool, int, float, str, bytes, Enum))
    ):
        compiled = class_layout(type(value))
    if compiled is not None:
        cached = getattr(value, FRAGMENT_ATTR, None)
        if cached is not None:
            out.append(cached)
            return
        _, field_names, literals = compiled
        for literal, field_name in zip(literals, field_names):
            out.append(literal)
            _emit(getattr(value, field_name), out)
        out.append(literals[-1])
    elif isinstance(value, (list, tuple)):
        separator = "["
        for item in value:
            out.append(separator)
            _emit(item, out)
            separator = ","
        out.append("[]" if separator == "[" else "]")
    elif isinstance(value, dict):
        coerced = _string_keyed(value)
        separator = "{"
        for key in sorted(coerced):
            out.append(separator + _scalar_text(key) + ":")
            _emit(coerced[key], out)
            separator = ","
        out.append("{}" if separator == "{" else "}")
    else:
        out.append(_fragment(value)[0])


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


def canonical_encode(value: Any) -> bytes:
    """Encode *value* into canonical bytes suitable for hashing and signing."""

    try:
        text, _ = _fragment(value)
    except (TypeError, ValueError) as exc:
        raise SerializationError(str(exc)) from exc
    return text.encode("utf-8")


def flat_encode(value: Any) -> bytes:
    """Canonical bytes of *value* for a frame or a disk record.

    Byte-identical to :func:`canonical_encode`, with the other cost
    profile: memos are read wherever a signer, digester or the strict
    decoder left them and none are created, and the text is assembled by
    one ``join`` over flat chunks (see :func:`_emit`).
    """

    out: list[str] = []
    try:
        _emit(value, out)
    except (TypeError, ValueError) as exc:
        raise SerializationError(str(exc)) from exc
    return "".join(out).encode("ascii")


def reference_encode(value: Any) -> bytes:
    """Encode via the memo-free reference path (``to_jsonable`` + dumps).

    Used by tests to assert that the fragment encoder is byte-identical to
    the original implementation, and available to callers that must not
    trust any cached state attached to a received object.
    """

    try:
        tree = to_jsonable(value)
        return json.dumps(tree, sort_keys=True, separators=(",", ":")).encode("utf-8")
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

    try:
        text, _ = _fragment(value)
    except (TypeError, ValueError) as exc:
        raise SerializationError(str(exc)) from exc
    return len(text)
