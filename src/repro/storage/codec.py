"""Round-trip codec for protocol values: the disk format and the wire format.

The canonical encoding (:mod:`repro.common.encoding`) is what digests and
signatures are computed over.  This module makes the same text the stored
and transmitted form — :func:`encode_record` *is* the canonical encoder, in
its memo-reading flat variant — and adds the way back: a segment record, a
page file or a frame payload becomes the same object it was written from,
against an explicit registry of the storable classes.  The registry covers
every class in :data:`repro.messages.WIRE_MESSAGE_TYPES` together with the
statement and evidence types nested inside them, because the live service
harness (:mod:`repro.service`) frames these exact records;
``tests/test_wire_codec_roundtrip.py`` enforces coverage,
``encode → decode → encode`` byte-identity and equality with the memo-free
``reference_encode`` oracle.

Decoding is one strict positional pass over the canonical grammar.  Each
registered class gets a decoder generated from its layout and its resolved
annotations, which are the wire schema: the ``__type__`` tag, then every
field in sorted order behind its exact literal, read by the one path its
declared kind has (:func:`_field_lines`), then the ordinary (validating)
constructor.  Text of another kind — a page where bytes are declared, a
class outside a union — is refused, never built into an object the
protocol would later trip on.  For the units a receiver hashes whole
(:func:`_keeps_span`) the decoder attaches the value's byte span as its
fragment memo, so digests, signature checks and forwarding start warm.

That is only sound because the decoder accepts nothing but canonical text:
inserted whitespace, reordered, duplicated, missing or extra keys, an
escape or number spelled another way, upper-case hex, an unknown class or
enum value, a value not of its declared kind, trailing bytes, a nesting
bomb, or a value its class's ``__post_init__`` refuses all raise
:class:`~repro.common.errors.StorageCorruptionError`
(``tests/test_codec_strictness.py``).  JSON arrays decode to tuples, as
every frozen protocol dataclass declares its sequences; values outside any
registered class (a storage or frame envelope) decode through :func:`_value`.

Some decoders hand back an object the receiver already has, each only when
that object's whole canonical text recurs byte for byte where the decoder
stands: a ``NodeId`` (interned by text, process-wide) and, through the
receiving node's :class:`HeldSet`, a ``LogEntry``, a ``KVRecord`` or a
``Block``.  Canonical text is prefix-free and a held object's text is the
canonical encoding of that very object, so a hit is what a strict decode
would build, with the memos the receiving node computed itself.  Any miss
decodes strictly.

Retention:

* The ``NodeId`` intern table keeps at most 1024 texts of at most 256
  characters.
* A node's held set keeps references only, under the rules of the node that
  fills it (a client's in :mod:`repro.nodes.client`, an edge's in
  :mod:`repro.nodes.edge`, the cloud's in :mod:`repro.nodes.cloud`).  The span and header text of a held object are
  built on the first lookup after it is held and dropped with it, so a node
  that decodes nothing (the simulator) pays one reference per held
  sequence.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from enum import Enum
from typing import Any, Optional

from ..common.encoding import FRAGMENT_ATTR, class_layout, flat_encode, flat_text
from ..common.errors import StorageCorruptionError
from ..common.identifiers import NodeId, OperationId
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

#: Node identities recur in every message, so decoding hands out one
#: shared ``NodeId`` per distinct text: at most this many texts before the
#: table is dropped, none longer than that (a hostile sender can neither
#: grow the table without bound nor make every lookup scan its frame).
_INTERN_LIMIT = 1024
_INTERN_MAX_CHARS = 256

#: A held object's header is its text before this (id, creation time and
#: edge of a block; key and sequence of a record; payload of an entry): it
#: is looked for no further than ``_HEADER_MAX_CHARS`` past the object's
#: start.
_HEADER_ENDS = {
    Block: ',"entries":[',
    KVRecord: ',"value":',
    LogEntry: ',"produced_at":',
}
_HEADER_MAX_CHARS = 512


class HeldSet:
    """The objects one receiving node holds, which its decoder may hand back.

    A node holds what it expects to see again: a client the entries of an
    append (the edge echoes them in the block it answers with) and the
    level-0 blocks of its latest verified get per edge (every get between
    merges repeats them), an edge the records a merge takes in (the merged
    pages the cloud answers with are made of them), the cloud the records
    of the merged pages it last answered each partition with, above the
    bottom level (the partition's next merges re-send them).  A block a
    merge took out of level 0 keeps neither decoded records nor canonical
    text (:func:`~repro.lsmerkle.codec.forget_records`), so no node holds
    one for its decoder.  The decoders of
    ``LogEntry``, ``KVRecord`` and ``Block`` look an object up by its
    header text and return the held object only when its whole canonical
    span recurs byte for byte at ``start``; a miss decodes strictly.  A
    complete canonical object text is prefix-free, so the object at
    ``start`` is then that object — the argument the ``NodeId`` intern
    table rests on.

    Retention is the holding node's.  :meth:`hold` stores references only;
    the first lookup after it encodes each newly held object once without
    memoising (:func:`~repro.common.encoding.flat_text`) to index it by
    header, an object the key already held keeps its entry, and
    :meth:`release` drops the references and that text alike.  Two held
    objects with one header keep the first; the other decodes strictly.
    One node's set is never consulted for another's frames.
    """

    def __init__(self) -> None:
        #: hold key -> (the class of what it holds, the sequences held).
        self._holds: dict[Any, tuple[type, tuple]] = {}
        #: class -> the hold keys holding objects not indexed yet.
        self._fresh: dict[type, dict[Any, None]] = {}
        #: class -> header -> (span, object), and per hold key the header
        #: each of its objects put there, by the object's identity.
        self._index: dict[type, dict[str, tuple[str, Any]]] = {}
        self._indexed: dict[Any, dict[int, str]] = {}

    def hold(self, key: Any, *groups: typing.Sequence) -> None:
        """Hold every object of *groups*, all of one class, under *key*
        (replacing what *key* held; an object it still holds stays
        indexed, so holding the same objects again encodes nothing)."""

        indexed = self._indexed.get(key)
        kept = {}
        if indexed:
            kept = {
                id(item): indexed.pop(id(item))
                for group in groups
                for item in group
                if id(item) in indexed
            }
        self.release(key)
        first = next((group[0] for group in groups if group), None)
        if first is not None:
            self._holds[key] = (type(first), groups)
            self._indexed[key] = kept
            if len(kept) < sum(map(len, groups)):
                self._fresh.setdefault(type(first), {})[key] = None

    def release(self, key: Any) -> None:
        """Drop what *key* holds; a key holding nothing is a no-op."""

        held = self._holds.pop(key, None)
        if held is None:
            return
        self._fresh[held[0]].pop(key, None)
        index = self._index.get(held[0])
        for header in self._indexed.pop(key).values():
            del index[header]

    def objects(self) -> list:
        """Every object held under a key, in holding order."""

        return [
            item
            for _cls, groups in self._holds.values()
            for group in groups
            for item in group
        ]

    def _index_fresh(self, cls: type, fresh: dict) -> None:
        end_text = _HEADER_ENDS[cls]
        index = self._index.setdefault(cls, {})
        for key in fresh:
            indexed = self._indexed[key]
            for group in self._holds[key][1]:
                for item in group:
                    if id(item) in indexed:
                        continue
                    # The memo, where the node left one, is that same text.
                    span = getattr(item, FRAGMENT_ATTR, None) or flat_text(item)
                    end = span.find(end_text, 0, _HEADER_MAX_CHARS)
                    header = span[:end]
                    if end > 0 and header not in index:
                        index[header] = (span, item)
                        indexed[id(item)] = header
        fresh.clear()

    def reuse(self, cls: type, text: str, start: int) -> Optional[tuple[Any, int]]:
        """``(object, end)`` of the held *cls* object at *start*, or None."""

        fresh = self._fresh.get(cls)
        if fresh:
            self._index_fresh(cls, fresh)
        index = self._index.get(cls)
        if not index:
            return None
        end = text.find(_HEADER_ENDS[cls], start, start + _HEADER_MAX_CHARS)
        kept = index.get(text[start:end]) if end >= 0 else None
        if kept is None or not text.startswith(kept[0], start):
            return None
        return kept[1], start + len(kept[0])


def register_storable(cls: type) -> type:
    """Register *cls* as decodable; rejects ``__name__`` collisions and a
    class whose annotations, the wire schema, do not resolve.

    The codec keys records by class name, so two distinct classes sharing a
    name would silently decode into the wrong one — refuse instead.  A name
    imported only for type checking resolves against the registry, so
    register a class after the classes such names denote.
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
    try:
        typing.get_type_hints(cls, localns=_TYPES)
    except NameError as exc:
        raise ValueError(f"{cls.__name__}: unresolvable annotation: {exc}") from exc
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
_fromhex = bytes.fromhex
_set_memo = object.__setattr__

_TYPE_HEAD = '{"__type__":"'
_BYTES_HEAD = '{"__bytes__":"'
#: Keys the tagged forms own; a plain mapping may not carry them (an enum
#: is never tagged: the registered ones are str mixins, which encode as
#: their plain value, so ``__enum__`` only ever meets this refusal).
_RESERVED_KEYS = frozenset(("__type__", "__bytes__", "__enum__"))
#: The number tokens that are not ``repr`` of the number they denote.
_CONSTANT_TEXT = frozenset(("NaN", "Infinity", "-Infinity"))


def _head_of(cls: type) -> str:
    return '{"__type__":' + _scalar_text(cls.__name__)


def _corrupt(what: str, pos: int) -> StorageCorruptionError:
    return StorageCorruptionError(f"not a canonical record: {what} at offset {pos}")


def _value(text: str, pos: int, held: Optional[HeldSet]) -> tuple[Any, int]:
    """Decode the canonical value starting at *pos*, of no declared kind:
    ``(value, end)``."""

    first = text[pos]
    if first == '"':
        return _string(text, pos)
    if first == "{":
        tag = text[pos + 4 : pos + 5]
        if tag == "t" and text.startswith(_TYPE_HEAD, pos):
            name_end = text.index('"', pos + 13)
            cls = _TYPES.get(text[pos + 13 : name_end])
            if cls is None:
                raise _corrupt(f"unknown type {text[pos + 13 : name_end]!r}", pos)
            return _decoder_of(cls)(text, pos, name_end + 1, held)
        if tag == "b" and text.startswith(_BYTES_HEAD, pos):
            return _bytes(text, pos)
        return _mapping(text, pos, held)
    if first == "[":
        return _array(text, pos, held)
    return _scalar(text, pos)


def _array(text: str, pos: int, held: Optional[HeldSet]) -> tuple[tuple, int]:
    pos += 1
    if text[pos] == "]":
        return (), pos + 1
    items = []
    while True:
        item, pos = _value(text, pos, held)
        items.append(item)
        separator = text[pos]
        pos += 1
        if separator == "]":
            return tuple(items), pos
        if separator != ",":
            raise _corrupt("malformed array", pos - 1)


def _mapping(text: str, pos: int, held: Optional[HeldSet]) -> tuple[dict, int]:
    """A plain (untagged) mapping: string keys, strictly ascending."""

    pos += 1
    result: dict[str, Any] = {}
    if text[pos] == "}":
        return result, pos + 1
    previous = None
    while True:
        key, pos = _string(text, pos)
        if key in _RESERVED_KEYS or (previous is not None and key <= previous):
            raise _corrupt(f"misplaced mapping key {key!r}", pos)
        if text[pos] != ":":
            raise _corrupt("malformed mapping", pos)
        result[key], pos = _value(text, pos + 1, held)
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
    the span).  Re-sending anything above them is a join of these.  A page
    is rebuilt under a fresh ``page_id``, so a span around one is not the
    encoding of what was decoded; none of these classes declares a page at
    any depth, so none can hold one (``tests/test_codec_strictness.py``).
    """

    hashed_whole = cls in (EntryBody, Signature, KVRecord, NodeId)
    return hashed_whole or cls.__name__.endswith("Statement")


def _decoder_of(cls: type):
    decoder = _DECODERS.get(cls.__name__)
    if decoder is None:
        decoder = _DECODERS[cls.__name__] = _compile_decoder(cls)
    return decoder


def _field_lines(var: str, hint: Any, prefix: str, what: str, scope: dict) -> list[str]:
    """Source lines decoding a value of the kind *hint* declares: ``pos`` is
    at the literal *prefix* (a field's key, an array's ``[`` or ``,``), the
    value lands in *var* and ``pos`` past it.

    Each kind has one accepting path, and any other text raises: ``str``
    and ``bytes``; ``int``, ``float`` and ``bool``, each only a token of its
    own type (``1.0`` is no ``int``, ``1`` no ``float``, ``true`` no
    number); a registered class; a str-mixin enum, wrapped from its
    string; ``Optional[K]``, ``null`` or K; a union of registered classes;
    ``tuple[K, ...]``; and a fixed-shape tuple, such as the ``tuple[int,
    str]`` items of ``BatchCertificateMessage.blocks``, ``WriterHeartbeat.
    shards``' ``tuple[int, int]`` or ``ReplicaLogShipment.level_pages``'
    ``tuple[int, tuple[Page, ...]]``.  Any other kind is a ``TypeError``
    here.  The prefix and the value's opening are one ``startswith``.
    """

    refuse = f"    raise _corrupt({what}, pos)"
    at = len(prefix)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    members = [hint]
    if origin is typing.Union or origin is types.UnionType:
        members = [arg for arg in args if arg is not type(None)]
        if len(members) < len(args):
            rest = members[0] if len(members) == 1 else typing.Union[tuple(members)]
            null = prefix + "null"
            return [
                f"if text.startswith({null!r}, pos):",
                f"    {var} = None",
                f"    pos += {len(null)}",
                "else:",
            ] + ["    " + line for line in _field_lines(var, rest, prefix, what, scope)]
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            item = f"{var}_item"
            return [
                f"if not text.startswith({prefix + '['!r}, pos):",
                refuse,
                f"pos += {at + 1}",
                f"{var} = []",
                "if text[pos] == ']':",
                "    pos += 1",
                "else:",
                "    while True:",
                *("        " + line for line in _field_lines(item, args[0], "", what, scope)),
                f"        {var}.append({item})",
                "        separator = text[pos]",
                "        pos += 1",
                "        if separator == ']':",
                "            break",
                "        if separator != ',':",
                "        " + refuse,
                f"{var} = tuple({var})",
            ]
        lines, names, opening = [], [], prefix + "["
        for index, arg in enumerate(args):
            names.append(f"{var}_{index}")
            lines += _field_lines(names[-1], arg, opening, what, scope)
            opening = ","
        return lines + [
            "if text[pos] != ']':",
            refuse,
            "pos += 1",
            f"{var} = ({', '.join(names)},)",
        ]
    if hint is str or (isinstance(hint, type) and issubclass(hint, Enum)):
        # An escape is longer than what it stands for, so equal lengths mean
        # the span is the string itself (the C scanner refuses raw control
        # characters, decode_record refuses DEL and non-ASCII); otherwise it
        # must be the escaping the encoder would have chosen.
        opening = prefix + '"'
        lines = [
            f"if not text.startswith({opening!r}, pos):",
            refuse,
            f"{var}, end = _scanstring(text, pos + {at + 1})",
            f"if end - pos - {at + 2} != len({var}) and (",
            f"    _scalar_text({var}) != text[pos + {at} : end]",
            "):",
            refuse,
            "pos = end",
        ]
        if hint is str:
            return lines
        if not issubclass(hint, str):
            raise TypeError(f"{what}: only a str-mixin enum is storable, not {hint!r}")
        scope[f"enum_{hint.__name__}"] = hint
        return lines + [f"{var} = enum_{hint.__name__}({var})"]
    if hint is bytes:
        # fromhex also takes upper case and embedded whitespace.
        opening = prefix + _BYTES_HEAD
        return [
            f"if not text.startswith({opening!r}, pos):",
            refuse,
            f"end = text.index('\"', pos + {len(opening)})",
            f"digits = text[pos + {len(opening)} : end]",
            f"{var} = _fromhex(digits)",
            f"if {var}.hex() != digits or not text.startswith('}}', end + 1):",
            refuse,
            "pos = end + 2",
        ]
    if hint in (int, float, bool, _Scalar):
        lines = [
            f"if not text.startswith({prefix!r}, pos) or text[pos + {at}] in '\"{{[n':",
            refuse,
            f"{var}, end = _scan_scalar(text, pos + {at})",
            # Only these tokens are not ``repr`` of what they denote.
            f"if repr({var}) != text[pos + {at} : end] and not (",
            f"    type({var}) is bool or text[pos + {at} : end] in _CONSTANT_TEXT",
            "):",
            refuse,
            "pos = end",
        ]
        if hint is _Scalar:
            return lines
        return lines + [f"if type({var}) is not {hint.__name__}:", refuse]
    # A registered class, or a union of them: the head names which.
    lines: list[str] = []
    for cls in members:
        if not isinstance(cls, type) or _TYPES.get(cls.__name__) is not cls:
            raise TypeError(f"{what}: no decoder for the declared kind {cls!r}")
        scope[f"decode_{cls.__name__}"] = _decoder_of(cls)
        head = prefix + _head_of(cls)
        lines += [
            f"{'elif' if lines else 'if'} text.startswith({head!r}, pos):",
            f"    {var}, pos = decode_{cls.__name__}(text, pos + {at}, pos + {len(head)}, held)",
        ]
    return lines + ["else:", refuse]


def _reader(hint: Any, what: str):
    """A standalone decoder of one value of kind *hint* at ``pos``:
    ``(value, end)``."""

    scope = dict(globals())
    body = _field_lines("value", hint, "", repr(what), scope) + ["return value, pos"]
    exec("def read(text, pos):\n" + "\n".join("    " + line for line in body), scope)
    return scope["read"]


class _Scalar:
    """The kind of the untyped decoder's scalars: any number or boolean."""


#: The untyped decoder's strings (mapping keys included), byte strings and
#: scalars (a number, ``null``, ``true`` or ``false``).
_string = _reader(str, "string")
_bytes = _reader(bytes, "byte string")
_scalar = _reader(typing.Optional[_Scalar], "scalar")


def _compile_decoder(cls: type):
    """Generate the positional decoder of *cls* from its canonical layout
    and its resolved annotations.

    The generated function is called with *pos* just past
    ``{"__type__":"<name>"``; it checks each layout literal in place, decodes
    the field value after it as its declared kind, and builds the instance
    through the ordinary validating constructor — straight-line code, no
    per-field dict or dispatch.
    """

    _, field_names, literals = class_layout(cls)
    literals = (literals[0][len(_head_of(cls)) :],) + literals[1:]
    hints = typing.get_type_hints(cls, localns=_TYPES)
    # The generated source reads this module's names, plus its own.
    scope = dict(globals(), cls=cls, interned={})
    interned = cls is NodeId
    body: list[str] = []
    if cls in _HEADER_ENDS:
        # The receiving node's own object, if it holds this very text.
        body += [
            "if held is not None:",
            "    hit = held.reuse(cls, text, start)",
            "    if hit is not None:",
            "        return hit",
        ]
    if interned:
        # A complete canonical object text is prefix-free: if a text this
        # table holds starts at *start*, the object there is that object.
        body += [
            "leaf_end = text.find('}', pos, start + _INTERN_MAX_CHARS) + 1",
            "hit = interned.get(text[start:leaf_end])",
            "if hit is not None:",
            "    return hit, leaf_end",
        ]
    for name, literal in zip(field_names, literals):
        what = repr(f"{cls.__name__} field {name}")
        body += _field_lines(f"v_{name}", hints[name], literal, what, scope)
    if cls is Page:
        # page_id is a process-local counter, never round-tripped; the
        # validating constructor assigns a fresh one (and, by re-checking
        # sort order and fences, refuses to rebuild a tampered page).
        call = ", ".join(f"{name}=v_{name}" for name in field_names if name != "page_id")
    else:
        call = ", ".join(f"v_{field.name}" for field in dataclasses.fields(cls))
    body += [
        f"if not text.startswith({literals[-1]!r}, pos):",
        f"    raise _corrupt({cls.__name__ + ' end'!r}, pos)",
        f"pos += {len(literals[-1])}",
        f"value = cls({call})",
    ]
    if _keeps_span(cls):
        body += [
            "span = text[start:pos]",
            "_set_memo(value, FRAGMENT_ATTR, span)",
        ]
        if interned:
            body += [
                "if pos == leaf_end:",
                "    if len(interned) >= _INTERN_LIMIT:",
                "        interned.clear()",
                "    interned[span] = value",
            ]
    body.append("return value, pos")
    source = "def decode(text, start, pos, held):\n" + "\n".join("    " + line for line in body)
    exec(source, scope)
    return scope["decode"]


def decode_record(data: bytes, held: Optional[HeldSet] = None) -> Any:
    """Decode bytes written by :func:`encode_record` back into objects.

    Raises :class:`StorageCorruptionError` unless *data* is exactly the
    canonical encoding of the value returned — whitespace, reordered,
    duplicated, missing or extra keys, a non-canonical escape or number,
    unknown tags, trailing bytes, a field value not of its declared kind,
    or field values the target class rejects.  With *held*, the decoders
    may hand back objects that set holds (:class:`HeldSet`).
    """

    try:
        text = data.decode("ascii")
        if "\x7f" in text:
            raise _corrupt("raw DEL", text.index("\x7f"))
        value, end = _value(text, 0, held)
    except StorageCorruptionError:
        raise
    except Exception as exc:
        # Truncation (IndexError), a scanner refusal, a nesting bomb
        # (RecursionError), an enum value outside the enum and a
        # constructor's own validation all mean the same thing here.
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
# coverage of WIRE_MESSAGE_TYPES explicitly).  ``shard_messages`` goes
# before ``kv_messages``, whose ``GetResponse.lease`` names a shard class
# it only imports for type checking.
for _cls in _STORED_CLASSES:
    register_storable(_cls)
for _module in (_shard_messages, _kv_messages, _log_messages, _txn_messages):
    for _obj in vars(_module).values():
        if (
            isinstance(_obj, type)
            and dataclasses.is_dataclass(_obj)
            and _obj.__module__ == _module.__name__
        ):
            register_storable(_obj)
