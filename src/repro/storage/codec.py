"""Round-trip codec for protocol values: the disk format and the wire format.

The canonical encoding (:mod:`repro.common.encoding`) is what digests and
signatures are computed over.  This module makes the same text the stored
and transmitted form — :func:`encode_record` *is* the canonical encoder, in
its memo-reading flat variant — and adds the way back: a segment record, a
page file or a frame payload becomes the same
``Block``/``PhaseOneReceipt``/``BlockProof``/``SignedGlobalRoot``/message
object it was written from, against an explicit registry of the storable
classes.  The registry covers every class in
:data:`repro.messages.WIRE_MESSAGE_TYPES` together with the statement and
evidence types nested inside them, because the live service harness
(:mod:`repro.service`) frames these exact records;
``tests/test_wire_codec_roundtrip.py`` enforces coverage,
``encode → decode → encode`` byte-identity and equality with the memo-free
``reference_encode`` oracle.

Decoding is one strict positional pass over the canonical grammar, not a
JSON parse followed by a tree walk.  Each registered class gets a decoder
generated from its layout: the ``__type__`` tag first, then every field in
sorted order behind its exact literal, scalars delegated to the C scanner,
the instance built through its ordinary (validating) constructor.  The
decoder knows each value's byte span, and for the units a receiver hashes
whole (see :func:`_keeps_span`) it attaches that span as the object's
fragment memo, so ``Block.digest()``, ``Page.digest()``, statement
verification and any forwarding re-encode start warm instead of
re-serializing what just arrived.

That is only sound because the decoder accepts nothing but canonical text:
inserted whitespace, reordered, duplicated, missing or extra keys, an
escape or number spelled another way, upper-case hex, an unknown class or
enum, trailing bytes, a nesting bomb, or a value that fails its class's own
``__post_init__`` validation all raise
:class:`~repro.common.errors.StorageCorruptionError` — storage never hands
back an object the constructors would have refused to build, nor a memo
that is not the encoding of the object carrying it
(``tests/test_codec_strictness.py``).  All JSON arrays decode to tuples,
matching how every frozen protocol dataclass declares its sequence fields.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from enum import Enum
from typing import Any

from ..common.encoding import (
    FRAGMENT_ATTR,
    canonical_encode,
    class_layout,
    flat_encode,
)
from ..common.errors import StorageCorruptionError
from ..common.identifiers import NodeId, NodeRole, OperationId, OperationKind
from ..crypto.signatures import BatchRootStatement, Signature
from ..log.block import Block
from ..log.entry import EntryBody, LogEntry
from ..log.proofs import (
    BatchCertificate,
    BatchedBlockProof,
    BlockProof,
    BlockProofStatement,
    PhaseOneReceipt,
    PhaseOneStatement,
)
from ..lsm.page import Page
from ..lsm.records import KeyFence, KVRecord
from ..lsmerkle.merge import MergeOutcome, MergeProposal
from ..lsmerkle.mlsm import GlobalRootStatement, SignedGlobalRoot
from ..lsmerkle.read_proof import GetProof, LevelPageEvidence, LevelZeroEvidence
from ..merkle.tree import InclusionProof, ProofStep
from ..messages import (
    kv_messages as _kv_messages,
    log_messages as _log_messages,
    shard_messages as _shard_messages,
    txn_messages as _txn_messages,
)

#: Dataclasses the store is allowed to reconstruct.  Every entry decodes
#: through its ordinary (validating) constructor.
_TYPES: dict[str, type] = {}
#: Generated positional decoder per class name, compiled on first use.
_DECODERS: dict[str, Any] = {}

_STORED_CLASSES = (
    NodeId,
    OperationId,
    Signature,
    EntryBody,
    LogEntry,
    Block,
    PhaseOneStatement,
    PhaseOneReceipt,
    BlockProofStatement,
    BlockProof,
    BatchRootStatement,
    BatchCertificate,
    ProofStep,
    InclusionProof,
    BatchedBlockProof,
    GlobalRootStatement,
    SignedGlobalRoot,
    KVRecord,
    KeyFence,
    Page,
    # Nested evidence/proposal types that ride inside wire messages.
    LevelZeroEvidence,
    LevelPageEvidence,
    GetProof,
    MergeProposal,
    MergeOutcome,
)

#: Node identities recur in every message; decoding hands out one shared
#: instance per distinct text instead of rebuilding each occurrence.
_INTERNED = (NodeId,)
#: Distinct texts an interned class may hold before its table is dropped,
#: and the longest text it holds (a hostile sender can neither grow the
#: table without bound nor make every lookup scan its whole frame).
_INTERN_LIMIT = 1024
_INTERN_MAX_CHARS = 256

_ENUMS: dict[str, type[Enum]] = {NodeRole.__name__: NodeRole}

#: Fields whose declared type is a ``str``-subclass enum.  The canonical
#: encoding flattens those to their plain string value (``isinstance(x, str)``
#: wins before the enum check), so the decoder re-wraps them here — an
#: unknown value raises inside the enum constructor, -> corruption.
_ENUM_FIELDS: dict[type, dict[str, type[Enum]]] = {
    NodeId: {"role": NodeRole},
    _log_messages.AppendBatchRequest: {"kind": OperationKind},
}


def register_storable(cls: type) -> type:
    """Register *cls* as decodable; rejects ``__name__`` collisions.

    The codec keys records by class name, so two distinct classes sharing a
    name would silently decode into the wrong one — refuse instead.
    """

    existing = _TYPES.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"storable name collision: {cls.__name__!r} already registered "
            f"for {existing.__module__}.{existing.__qualname__}"
        )
    if not class_layout(cls)[2][0].startswith(_head_of(cls)):
        raise ValueError(
            f"{cls.__name__}: a field name sorting before '__type__' is not storable"
        )
    _TYPES[cls.__name__] = cls
    return cls


def encode_record(value: Any) -> bytes:
    """Encode *value* (a storable object or a plain tree of them) to bytes."""

    return flat_encode(value)


# ----------------------------------------------------------------------
# The strict positional decoder
# ----------------------------------------------------------------------
#: Canonical text of a scalar, as the encoder spells it.
_scalar_text = json.dumps
_scanstring = json.decoder.scanstring
_scan_scalar = json.JSONDecoder().scan_once
_set_memo = object.__setattr__

_TYPE_HEAD = '{"__type__":"'
_BYTES_HEAD = '{"__bytes__":"'
_ENUM_HEAD = '{"__enum__":"'
#: Keys the tagged forms own; a plain mapping may not carry them.
_RESERVED_KEYS = frozenset(("__type__", "__bytes__", "__enum__"))
#: The only scalar tokens that are not ``repr`` of the number they denote.
_CONSTANT_TEXT = frozenset(("NaN", "Infinity", "-Infinity"))
#: Pages decoded so far, ever.  A page is rebuilt under a fresh ``page_id``,
#: so the span it was decoded from is not the encoding of what was decoded,
#: and neither is any span around it: a decoder that keeps spans reads this
#: before and after and keeps nothing if it moved.  It only ever grows, so
#: concurrent decodes can at worst drop a memo, never keep a wrong one.
_pages_decoded = [0]


def _head_of(cls: type) -> str:
    return '{"__type__":' + _scalar_text(cls.__name__)


def _corrupt(what: str, pos: int) -> StorageCorruptionError:
    return StorageCorruptionError(f"not a canonical record: {what} at offset {pos}")


def _string(text: str, pos: int) -> tuple[str, int]:
    """The string whose opening quote is at *pos*."""

    value, end = _scanstring(text, pos + 1)
    # An escape is longer than what it stands for, so equal lengths mean the
    # span is the string itself (the C scanner refuses raw control
    # characters, decode_record refuses DEL and non-ASCII); otherwise it
    # must be the escaping the encoder would have chosen.
    if end - pos - 2 != len(value) and _scalar_text(value) != text[pos:end]:
        raise _corrupt("non-canonical string escape", pos)
    return value, end


def _require_constant(value: Any, text: str, pos: int, end: int) -> None:
    """Accept the scalar tokens that are not ``repr`` of what they denote."""

    if not (
        value is None
        or value is True
        or value is False
        or text[pos:end] in _CONSTANT_TEXT
    ):
        raise _corrupt("non-canonical number", pos)


def _decoder_at(text: str, pos: int):
    """``(decoder, position past the head)`` of the tagged object at *pos*."""

    name_end = text.index('"', pos + 13)
    name = text[pos + 13 : name_end]
    decoder = _DECODERS.get(name)
    if decoder is None:
        cls = _TYPES.get(name)
        if cls is None:
            raise _corrupt(f"unknown type {name!r}", pos)
        decoder = _decoder_of(cls)
    return decoder, name_end + 1


def _value(text: str, pos: int) -> tuple[Any, int]:
    """Decode the canonical value starting at *pos*: ``(value, end)``."""

    first = text[pos]
    if first == '"':
        return _string(text, pos)
    if first == "{":
        tag = text[pos + 4 : pos + 5]
        if tag == "t" and text.startswith(_TYPE_HEAD, pos):
            decoder, past_head = _decoder_at(text, pos)
            return decoder(text, pos, past_head)
        if tag == "b" and text.startswith(_BYTES_HEAD, pos):
            end = text.index('"', pos + 14)
            digits = text[pos + 14 : end]
            value = bytes.fromhex(digits)
            # fromhex also takes upper case and embedded whitespace.
            if value.hex() != digits or not text.startswith("}", end + 1):
                raise _corrupt("malformed byte string", pos)
            return value, end + 2
        if tag == "e" and text.startswith(_ENUM_HEAD, pos):
            return _enum(text, pos)
        return _mapping(text, pos)
    if first == "[":
        return _array(text, pos)
    # A number, ``null``, ``true`` or ``false``.
    value, end = _scan_scalar(text, pos)
    if repr(value) != text[pos:end]:
        _require_constant(value, text, pos, end)
    return value, end


def _array(text: str, pos: int) -> tuple[tuple, int]:
    pos += 1
    if text[pos] == "]":
        return (), pos + 1
    items = []
    # Arrays are mostly runs of one class (entries, records, proof steps):
    # an item that opens with the previous item's head goes straight to the
    # previous item's decoder.
    head = decoder = None
    while True:
        if head is not None and text.startswith(head, pos):
            item, pos = decoder(text, pos, pos + len(head))
        elif text.startswith(_TYPE_HEAD, pos):
            decoder, past_head = _decoder_at(text, pos)
            head = text[pos:past_head]
            item, pos = decoder(text, pos, past_head)
        else:
            item, pos = _value(text, pos)
        items.append(item)
        separator = text[pos]
        pos += 1
        if separator == "]":
            return tuple(items), pos
        if separator != ",":
            raise _corrupt("malformed array", pos - 1)


def _enum(text: str, pos: int) -> tuple[Enum, int]:
    name_end = text.index('"', pos + 13)
    enum_cls = _ENUMS.get(text[pos + 13 : name_end])
    if enum_cls is None or not text.startswith(',"value":', name_end + 1):
        raise _corrupt("unknown or malformed enum", pos)
    raw, end = _value(text, name_end + 10)
    member = enum_cls(raw)
    # A str- or int-mixin member encodes as its plain value, never as this
    # tagged form, so the span must be what the encoder emits for it.
    if text[pos : end + 1] != canonical_encode(member).decode("ascii"):
        raise _corrupt("non-canonical enum", pos)
    return member, end + 1


def _mapping(text: str, pos: int) -> tuple[dict, int]:
    """A plain (untagged) mapping: string keys, strictly ascending."""

    pos += 1
    result: dict[str, Any] = {}
    if text[pos] == "}":
        return result, pos + 1
    previous = None
    while True:
        if text[pos] != '"':
            raise _corrupt("mapping key is not a string", pos)
        key, pos = _string(text, pos)
        if key in _RESERVED_KEYS or (previous is not None and key <= previous):
            raise _corrupt(f"misplaced mapping key {key!r}", pos)
        if text[pos] != ":":
            raise _corrupt("malformed mapping", pos)
        result[key], pos = _value(text, pos + 1)
        previous = key
        separator = text[pos]
        pos += 1
        if separator == "}":
            return result, pos
        if separator != ",":
            raise _corrupt("malformed mapping", pos - 1)


def _keeps_span(cls: type) -> bool:
    """Whether decoded *cls* instances keep their byte span as fragment memo.

    A memo above the level a receiver hashes only retains one more copy of
    the text beneath it, so exactly the units hashed whole keep theirs: what
    a block digest is built from (entry bodies and signatures), what a page
    digest is built from (records), every signed statement (the message of
    a signature check), and the interned identities (their table key *is*
    the span).  Re-sending anything above them is a join of these.  A span
    around a page never qualifies (see ``_pages_decoded``).
    """

    return (
        cls in (EntryBody, Signature, KVRecord)
        or cls in _INTERNED
        or cls.__name__.endswith("Statement")
    )


def _decoder_of(cls: type):
    decoder = _DECODERS.get(cls.__name__)
    if decoder is None:
        decoder = _DECODERS[cls.__name__] = _compile_decoder(cls)
    return decoder


def _field_lines(cls: type, name: str, literal: str, hint: Any, scope: dict) -> list[str]:
    """Source lines decoding field *name*: ``pos`` is at *literal*, the
    value lands in ``v_<name>`` and ``pos`` past it.

    The declared type only picks a fast path that checks the literal and the
    opening of the expected value in one ``startswith`` and scans the value
    in line (what :func:`_value` does for that kind of value, minus the
    call and the dispatch); whatever the text actually holds still decodes
    (or fails) through the generic lines after it.
    """

    if typing.get_origin(hint) is typing.Union:
        narrowed = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        hint = narrowed[0] if len(narrowed) == 1 else None
    var, at = f"v_{name}", len(literal)
    what = repr(f"{cls.__name__} field {name}")
    generic = [
        f"if not text.startswith({literal!r}, pos):",
        f"    raise _corrupt({what}, pos)",
        f"{var}, pos = _value(text, pos + {at})",
    ]
    if hint is str:
        fast = [
            f"{var}, end = _scanstring(text, pos + {at + 1})",
            f"if end - pos - {at + 2} != len({var}) and (",
            f"    _scalar_text({var}) != text[pos + {at} : end]",
            "):",
            f"    raise _corrupt({what}, pos)",
            "pos = end",
        ]
        opening = '"'
    elif hint is bytes:
        at += len(_BYTES_HEAD)
        fast = [
            f"end = text.index('\"', pos + {at})",
            f"digits = text[pos + {at} : end]",
            f"{var} = _fromhex(digits)",
            f"if {var}.hex() != digits or not text.startswith('}}', end + 1):",
            f"    raise _corrupt({what}, pos)",
            "pos = end + 2",
        ]
        opening = _BYTES_HEAD
    elif isinstance(hint, type) and _TYPES.get(hint.__name__) is hint:
        scope[f"decode_{name}"] = _decoder_of(hint)
        opening = _head_of(hint)
        fast = [
            f"{var}, pos = decode_{name}(text, pos + {at}, pos + {at + len(opening)})"
        ]
    elif hint in (int, float, bool):
        return generic[:2] + [
            f"pos += {at}",
            "if text[pos] in '\"{[':",
            f"    {var}, pos = _value(text, pos)",
            "else:",
            f"    {var}, end = _scan_scalar(text, pos)",
            f"    if repr({var}) != text[pos:end]:",
            f"        _require_constant({var}, text, pos, end)",
            "    pos = end",
        ]
    else:
        return generic
    return (
        [f"if text.startswith({literal + opening!r}, pos):"]
        + ["    " + line for line in fast]
        + ["else:"]
        + ["    " + line for line in generic]
    )


def _compile_decoder(cls: type):
    """Generate the positional decoder of *cls* from its canonical layout.

    The generated function is called with *pos* just past
    ``{"__type__":"<name>"``; it checks each layout literal in place, decodes
    the field value after it, and builds the instance through the ordinary
    validating constructor — straight-line code, no per-field dict or loop.
    """

    _, field_names, literals = class_layout(cls)
    literals = (literals[0][len(_head_of(cls)) :],) + literals[1:]
    try:
        hints = typing.get_type_hints(cls)
    except (NameError, TypeError):
        # A forward reference behind TYPE_CHECKING, say.  Hints only pick
        # fast paths, so none is as correct as all.
        hints = {}
    scope = {
        "cls": cls,
        "_value": _value,
        "_scanstring": _scanstring,
        "_scan_scalar": _scan_scalar,
        "_scalar_text": _scalar_text,
        "_require_constant": _require_constant,
        "_fromhex": bytes.fromhex,
        "_corrupt": _corrupt,
        "_set_memo": _set_memo,
        "FRAGMENT_ATTR": FRAGMENT_ATTR,
        "_INTERN_LIMIT": _INTERN_LIMIT,
        "_INTERN_MAX_CHARS": _INTERN_MAX_CHARS,
        "pages": _pages_decoded,
        "interned": {},
    }
    interned = cls in _INTERNED
    keeps_span = _keeps_span(cls)
    body: list[str] = []
    if interned:
        # A complete canonical object text is prefix-free: if a text this
        # table holds starts at *start*, the object there is that object.
        body += [
            "leaf_end = text.find('}', pos, start + _INTERN_MAX_CHARS) + 1",
            "hit = interned.get(text[start:leaf_end])",
            "if hit is not None:",
            "    return hit, leaf_end",
        ]
    if keeps_span:
        body.append("pages_before = pages[0]")
    arguments = {}
    for name, literal in zip(field_names, literals):
        body += _field_lines(cls, name, literal, hints.get(name), scope)
        arguments[name] = f"v_{name}"
        enum_cls = _ENUM_FIELDS.get(cls, {}).get(name)
        if enum_cls is not None:
            scope[f"enum_{name}"] = enum_cls
            arguments[name] = f"enum_{name}(v_{name})"
    if cls is Page:
        # page_id is a process-local counter, never round-tripped; the
        # validating constructor assigns a fresh one (and, by re-checking
        # sort order and fences, refuses to rebuild a tampered page).
        del arguments["page_id"]
        body.append("pages[0] += 1")
        call = ", ".join(f"{name}={source}" for name, source in arguments.items())
    else:
        call = ", ".join(arguments[field.name] for field in dataclasses.fields(cls))
    body += [
        f"if not text.startswith({literals[-1]!r}, pos):",
        f"    raise _corrupt({cls.__name__ + ' end'!r}, pos)",
        f"pos += {len(literals[-1])}",
        f"value = cls({call})",
    ]
    if keeps_span:
        body += [
            "if pages[0] == pages_before:",
            "    span = text[start:pos]",
            "    _set_memo(value, FRAGMENT_ATTR, span)",
        ]
        if interned:
            body += [
                "    if pos == leaf_end:",
                "        if len(interned) >= _INTERN_LIMIT:",
                "            interned.clear()",
                "        interned[span] = value",
            ]
    body.append("return value, pos")
    source = "def decode(text, start, pos):\n" + "\n".join("    " + line for line in body)
    exec(source, scope)
    return scope["decode"]


def decode_record(data: bytes) -> Any:
    """Decode bytes written by :func:`encode_record` back into objects.

    Raises :class:`StorageCorruptionError` unless *data* is exactly the
    canonical encoding of the value returned — whitespace, reordered,
    duplicated, missing or extra keys, a non-canonical escape or number,
    unknown tags, trailing bytes, or field values the target class rejects.
    """

    try:
        text = data.decode("ascii")
        if "\x7f" in text:
            raise _corrupt("raw DEL", text.index("\x7f"))
        value, end = _value(text, 0)
    except StorageCorruptionError:
        raise
    except Exception as exc:
        # Truncation (IndexError), a scanner refusal, a nesting bomb
        # (RecursionError) and a constructor's own validation all mean the
        # same thing here.
        raise StorageCorruptionError(
            f"stored record failed to rebuild: {type(exc).__name__}: {exc}"
        ) from exc
    if end != len(text):
        raise _corrupt("trailing bytes", end)
    return value


# The live transport frames these exact records over sockets, so every
# message dataclass — envelopes and the signed statements nested inside
# them — must decode.  Scanning the defining modules keeps a future message
# class from silently missing the registry (and the round-trip test pins
# coverage of WIRE_MESSAGE_TYPES explicitly).
for _cls in _STORED_CLASSES:
    register_storable(_cls)
for _module in (_kv_messages, _log_messages, _shard_messages, _txn_messages):
    for _obj in vars(_module).values():
        if (
            isinstance(_obj, type)
            and dataclasses.is_dataclass(_obj)
            and _obj.__module__ == _module.__name__
        ):
            register_storable(_obj)
