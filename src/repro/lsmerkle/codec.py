"""Encoding of key-value put operations inside WedgeChain log entries.

LSMerkle reuses the logging layer as its level-0 buffer: every ``put`` is a
log entry whose payload encodes the key and value.  Both the edge node and
the clients derive the level-0 *page* for a block deterministically from the
block itself (``page_from_block``), so the digest certified for the block by
the cloud also authenticates the page — exactly the "same block-certify and
block-proof message exchange" described in Section V-B.

Record recency is a global sequence number derived from ``(block id, index
within block)``; later blocks therefore always carry newer versions, and two
records never share a sequence number.
"""

from __future__ import annotations

from typing import Optional

from ..common.encoding import FRAGMENT_ATTR, flat_text
from ..common.errors import SerializationError
from ..log.block import Block
from ..lsm.page import Page, build_page
from ..lsm.records import KVRecord

#: Maximum number of entries per block assumed by the sequence numbering.
SEQUENCE_STRIDE = 1_000_000

_PUT_PREFIX = b"kvput\x00"


def encode_put(key: str, value: bytes) -> bytes:
    """Encode a put operation as a log entry payload."""

    if "\x00" in key:
        raise SerializationError("keys must not contain NUL characters")
    key_bytes = key.encode("utf-8")
    return _PUT_PREFIX + len(key_bytes).to_bytes(4, "big") + key_bytes + value


def is_put_payload(payload: bytes) -> bool:
    """Whether a log entry payload encodes a put operation."""

    return payload.startswith(_PUT_PREFIX)


def decode_put(payload: bytes) -> tuple[str, bytes]:
    """Decode a put payload into ``(key, value)``."""

    if not is_put_payload(payload):
        raise SerializationError("payload does not encode a put operation")
    key, key_end = _put_key(payload)
    return key, payload[key_end:]


_KEY_START = len(_PUT_PREFIX) + 4


def _put_key(payload: bytes) -> tuple[str, int]:
    """``(key, offset past the key)`` of a payload that starts with the put
    prefix."""

    key_length = int.from_bytes(payload[len(_PUT_PREFIX) : _KEY_START], "big")
    key_end = _KEY_START + key_length
    if key_end > len(payload):
        raise SerializationError("truncated put payload")
    try:
        return payload[_KEY_START:key_end].decode("utf-8"), key_end
    except UnicodeDecodeError as exc:
        raise SerializationError(f"put key is not UTF-8: {exc}") from None


def malformed_put(payload: bytes) -> bool:
    """Whether *payload* has the put prefix but no decodable key (a cut
    length field, or a key that is not UTF-8)."""

    if not payload.startswith(_PUT_PREFIX):
        return False
    try:
        _put_key(payload)
    except SerializationError:
        return True
    return False


def record_sequence(block_id: int, index_in_block: int) -> int:
    """Global sequence number of the ``index_in_block``-th put of a block."""

    if index_in_block >= SEQUENCE_STRIDE:
        raise SerializationError(
            f"block index {index_in_block} exceeds sequence stride {SEQUENCE_STRIDE}"
        )
    return block_id * SEQUENCE_STRIDE + index_in_block


#: Attribute that memoizes :func:`records_from_block` on a block instance.
_RECORDS_ATTR = "_records_cache"


def records_from_block(block: Block, memoize: bool = True) -> tuple[KVRecord, ...]:
    """Decode every put entry of *block* into key-value records.

    Blocks are immutable and the edge derives the same level-0 pages from
    them until a merge consumes them, so the decoded records are memoized
    on the block instance until :func:`forget_records` releases them.
    ``memoize=False`` (the cloud's merge check) reads a memo the block
    carries but attaches none: on the simulator a block a node receives is
    the sender's own object, and a memo attached after the sender released
    its own would outlive the merge.  A read-proof verifier looks for one
    key and calls :func:`records_with_key` instead, which decodes (and
    checks) every put entry the same way, attaches nothing either, and
    builds only that key's records.
    """

    cached = getattr(block, _RECORDS_ATTR, None)
    if cached is not None:
        return cached
    result = _put_records(block, None)
    if memoize:
        object.__setattr__(block, _RECORDS_ATTR, result)
    return result


def records_with_key(block: Block, key: str) -> tuple[KVRecord, ...]:
    """``records_from_block(block, memoize=False)`` filtered by *key*.

    Every put entry's key is decoded with :func:`decode_put`'s checks, so a
    truncated or non-UTF-8 put raises exactly what it raises there; only
    the records of other keys are never built.  A block too long for the
    sequence numbering takes the unfiltered path, which raises on its first
    put beyond the stride.  Like ``memoize=False``, it attaches nothing to
    the block: a client that reads the same blocks again keeps their
    :func:`key_map` itself (:mod:`repro.nodes.client`).
    """

    cached = getattr(block, _RECORDS_ATTR, None)
    if cached is None and len(block.entries) <= SEQUENCE_STRIDE:
        return _put_records(block, key)
    records = cached if cached is not None else _put_records(block, None)
    return tuple(record for record in records if record.key == key)


def key_map(block: Block) -> dict[str, tuple[KVRecord, ...]]:
    """``records_from_block(block, memoize=False)`` grouped by key.

    ``key_map(block).get(key, ())`` is ``records_with_key(block, key)`` for
    every key, in the same order, and building the map raises exactly where
    :func:`records_with_key` raises (a malformed put, a block beyond the
    sequence stride), since both decode every put entry's key with the
    same checks.  Like it, the map attaches nothing to the block.
    """

    grouped: dict[str, list[KVRecord]] = {}
    for record in records_from_block(block, memoize=False):
        grouped.setdefault(record.key, []).append(record)
    return {key: tuple(records) for key, records in grouped.items()}


def _put_records(block: Block, key: Optional[str]) -> tuple[KVRecord, ...]:
    """The put records of *block*, only those of *key* unless it is None."""

    records: list[KVRecord] = []
    for index, entry in enumerate(block.entries):
        body = entry.body
        payload = body.payload
        if not payload.startswith(_PUT_PREFIX):
            continue
        found, key_end = _put_key(payload)
        if key is None or found == key:
            records.append(
                KVRecord(
                    key=found,
                    sequence=record_sequence(block.block_id, index),
                    value=payload[key_end:],
                    written_at=body.produced_at,
                )
            )
    return tuple(records)


def keep_text(block: Block) -> None:
    """Memoize *block*'s canonical text on it as its fragment memo.

    The edge calls this on a block it formed that enters level 0: every
    ``AppendBatchResponse`` echo, ``GetResponse`` and level-0
    ``MergeRequest`` that sends the block then joins this one string
    instead of walking its entries.  The text is read without memoizing
    anything beneath it (:func:`~repro.common.encoding.flat_text`), so it
    is the only copy the block adds; :func:`forget_records` drops it.
    """

    object.__setattr__(block, FRAGMENT_ATTR, flat_text(block))


def forget_records(block: Block) -> None:
    """Release what *block* memoized for level 0, keeping only what was
    signed: its decoded records, its own canonical text and the
    canonical-text memos of its entries, their bodies and their signatures.

    The edge calls this once a merge has consumed the block (a replica
    once its shipment leaves the block out of level 0): the merged pages
    hold its surviving records, no read proof or merge sends a block
    outside level 0 again, and its digest stays cached on the block.  A
    later encoding of the block (a log read, a dispute) re-encodes it.
    """

    for attr in (_RECORDS_ATTR, FRAGMENT_ATTR):
        if getattr(block, attr, None) is not None:
            object.__delattr__(block, attr)
    for entry in block.entries:
        for part in (entry, entry.body, entry.signature):
            if getattr(part, FRAGMENT_ATTR, None) is not None:
                object.__delattr__(part, FRAGMENT_ATTR)


def page_from_block(block: Block, memoize: bool = True) -> Optional[Page]:
    """Derive the level-0 page corresponding to a block of put operations.

    Returns ``None`` when the block contains no put entries (pure logging
    blocks never enter the index).  The derivation is deterministic, so any
    party holding the block can reproduce the page and, transitively, trust
    it through the block's certification.  *memoize* is passed to
    :func:`records_from_block`.
    """

    records = records_from_block(block, memoize)
    if not records:
        return None
    return build_page(
        records,
        created_at=block.created_at,
        source_block_id=block.block_id,
    )
