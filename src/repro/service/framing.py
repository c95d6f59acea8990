"""Length-prefixed framing of canonical codec records.

A frame is ``4-byte big-endian length || payload`` where the payload is the
canonical text (:func:`repro.storage.codec.encode_record`) of the envelope
``{"sender": NodeId, "message": <wire message>}``.  The destination is
implied by the socket the frame arrives on (each node owns one server), so
the envelope carries only what the receiver cannot infer.

One serialization pass per hop.  Framing joins the fragment memos the
sender's own signing and digesting left on the message — it walks only the
levels above them — and unframing is the storage codec's strict positional
decoder, which hands the receiver the spans it will hash as warm memos.  A
payload that is not byte for byte the canonical encoding of what it decodes
to — whitespace, reordered or duplicated keys, a lenient escape or number,
an unknown type, a value a constructor refuses — is a :class:`FrameError`
and the connection is dropped: bytes from a socket are hostile, and the
live path inherits "storage never hands back an object the constructors
would refuse" together with "no memo that is not canonical text".
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Tuple

from ..common.errors import StorageCorruptionError, TransportError
from ..common.identifiers import NodeId
from ..storage.codec import decode_record, encode_record

#: Upper bound on a single frame's payload.  Generous — the largest
#: protocol artifacts (shard transfers carrying pages and certified
#: blocks) are far below this — but finite, so a corrupt or hostile
#: length prefix cannot make a reader allocate unboundedly.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class FrameError(TransportError):
    """A frame violated the length/shape contract (not a clean EOF)."""


def encode_frame(sender: NodeId, message: Any) -> bytes:
    """Frame *message* from *sender* for the wire."""

    payload = encode_record({"sender": sender, "message": message})
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Tuple[NodeId, Any]:
    """Decode a frame payload back into ``(sender, message)``."""

    try:
        envelope = decode_record(payload)
    except StorageCorruptionError as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(envelope, dict) or set(envelope) != {"sender", "message"}:
        raise FrameError(f"malformed frame envelope: {type(envelope).__name__}")
    sender = envelope["sender"]
    if not isinstance(sender, NodeId):
        raise FrameError("frame sender is not a NodeId")
    return sender, envelope["message"]


async def read_frame(reader: asyncio.StreamReader) -> Tuple[NodeId, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    A connection that ends mid-frame, or a length prefix above the cap,
    raises :class:`FrameError` — silent truncation never looks like a
    delivered message.
    """

    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed mid-length-prefix") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from exc
    return decode_payload(payload)
