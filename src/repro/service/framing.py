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
would refuse" together with "no memo that is not canonical text".  The
socket names the receiver, so its held set
(:class:`~repro.storage.codec.HeldSet`) goes down to the decoder, which may
hand back an object the receiver holds where its exact text recurs.

Receiving is one :class:`FrameReceiver` per connection, an
:class:`asyncio.BufferedProtocol`.  It reads the 4-byte prefix, refuses a
length above :data:`MAX_FRAME_BYTES` (or of zero) before allocating, then
hands the event loop a view of one ``bytearray`` of exactly that length, so
the socket reads the payload in place — in one read when the sender wrote
it in one ``send`` — with no buffer in between to copy it out of or to
pause and resume on.  A bad frame (oversize or empty length, an
undecodable payload, a connection that ends mid-frame) delivers nothing
and nothing after it: the receiver shuts its write side, so the peer reads
a clean EOF, and discards the rest of the stream until the peer closes.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Callable, Optional, Tuple

from ..common.errors import StorageCorruptionError, TransportError
from ..common.identifiers import NodeId
from ..storage.codec import HeldSet, decode_record, encode_record

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


def decode_payload(
    payload: bytes, held: Optional[HeldSet] = None
) -> Tuple[NodeId, Any]:
    """Decode a frame payload back into ``(sender, message)``, reusing what
    the receiver's *held* set holds."""

    try:
        envelope = decode_record(payload, held)
    except StorageCorruptionError as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(envelope, dict) or set(envelope) != {"sender", "message"}:
        raise FrameError(f"malformed frame envelope: {type(envelope).__name__}")
    sender = envelope["sender"]
    if not isinstance(sender, NodeId):
        raise FrameError("frame sender is not a NodeId")
    return sender, envelope["message"]


#: Where a receiver that dropped its stream discards what still arrives.
_SINK_BYTES = 64 * 1024


class FrameReceiver(asyncio.BufferedProtocol):
    """Assemble frames from one connection and deliver each as it completes.

    *deliver* gets ``(sender, message)`` per frame, decoded with the
    receiver's *held* set.  The first error ends the stream and is kept in
    :attr:`error`: a :class:`FrameError` is the peer's fault and goes no
    further; any other exception (a crashing decoder or *deliver*) goes to
    *fail* as well, or is raised where there is none.  While connected the
    receiver sits in *open_receivers*, so its owner can close it.

    Without a socket, feed it as the loop does: fill what
    :meth:`get_buffer` returns, call :meth:`buffer_updated` with the count,
    and :meth:`eof_received` at the end.
    """

    def __init__(
        self,
        deliver: Callable[[NodeId, Any], None],
        held: Optional[HeldSet] = None,
        fail: Optional[Callable[[Exception], None]] = None,
        open_receivers: Optional[set] = None,
    ) -> None:
        self._deliver = deliver
        self._held = held
        self._fail = fail
        self._open = open_receivers
        self._prefix = memoryview(bytearray(_LENGTH.size))
        # The prefix or the payload being filled, and how much of it is.
        self._target = self._prefix
        self._filled = 0
        self._sink: Optional[memoryview] = None
        self.transport: Optional[asyncio.BaseTransport] = None
        #: The exception that ended this stream, if one did.
        self.error: Optional[Exception] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        if self._open is not None:
            self._open.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._open is not None:
            self._open.discard(self)
        self.transport = None

    def get_buffer(self, sizehint: int) -> memoryview:
        if self.error is not None:
            if self._sink is None:
                self._sink = memoryview(bytearray(_SINK_BYTES))
            return self._sink
        return self._target[self._filled :]

    def buffer_updated(self, nbytes: int) -> None:
        if self.error is not None:
            return
        self._filled += nbytes
        if self._filled < len(self._target):
            return
        try:
            if self._target is self._prefix:
                (length,) = _LENGTH.unpack(self._prefix)
                if length > MAX_FRAME_BYTES:
                    raise FrameError(
                        f"frame length {length} exceeds cap {MAX_FRAME_BYTES}"
                    )
                if length == 0:
                    raise FrameError("empty frame payload")
                self._target = memoryview(bytearray(length))
                self._filled = 0
                return
            payload = self._target.obj
            self._target, self._filled = self._prefix, 0
            # A module-level lookup per frame, so a test can swap it.
            self._deliver(*decode_payload(payload, self._held))
        except Exception as exc:
            self._drop(exc)

    def eof_received(self) -> bool:
        if self.error is None:
            try:
                self._check_frame_boundary()
            except FrameError as exc:
                self._drop(exc)
        return False

    def _check_frame_boundary(self) -> None:
        """Raise unless the stream ended between two frames: silent
        truncation never looks like a delivered message."""

        if self._target is not self._prefix:
            raise FrameError(
                f"connection closed mid-frame "
                f"({self._filled}/{len(self._target)} bytes)"
            )
        if self._filled:
            raise FrameError("connection closed mid-length-prefix")

    def _drop(self, exc: Exception) -> None:
        """End the stream on *exc*: nothing more is delivered, and the peer
        reads a clean EOF (closing with unread bytes would reset it)."""

        self.error = exc
        self._target = self._prefix
        if self.transport is not None and not self.transport.is_closing():
            self.transport.write_eof()
        if isinstance(exc, FrameError):
            return
        if self._fail is None:
            raise exc
        self._fail(exc)
