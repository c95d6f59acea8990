"""The wall-clock socket transport behind the :mod:`repro.transport` boundary.

Every registered node owns one server socket (unix-domain by default, TCP
optionally).  A send from ``src`` to ``dst`` enqueues a frame on the
``(src, dst)`` link; a writer pump per link keeps one outgoing connection
to the destination's server and writes frames in order, so per-sender-pair
FIFO delivery matches the simulator's single uplink lane.  ``send`` itself
is synchronous — node handlers run inside the event loop and never await —
which is what lets the exact same protocol code drive both substrates.

Each pump asks for a :data:`SEND_BUFFER_BYTES` send buffer on its socket,
so a frame up to that size (a merge request or a get response included)
leaves in one ``send``; the kernel caps the request at
``net.core.wmem_max``.  Each server connection is read by a
:class:`~repro.service.framing.FrameReceiver`, which reads such a frame's
payload in one socket read, straight into the buffer the decoder reads.
A bad frame ends that connection's deliveries (the sender reads EOF); a
reader or pump that fails for any other reason is recorded through the
endpoint's ``fail``, as a crashed handler is.  A pump whose socket fails
leaves the link table, so the next send on that link reconnects; the
frames still queued behind the failure are counted in
:attr:`AsyncioTransport.frames_lost`.

Where the boundary fixes the semantics they are not mirrored from
:class:`repro.sim.network.SimNetwork` but inherited, with it, from
:class:`repro.transport.BaseTransport` (registration, named hooks, the
offline set, the send preamble):

* send hooks run in registration order before any bytes move; a veto counts
  a ``dropped_send`` and the send reports ``inf``;
* an offline source emits nothing (``dropped_send``); frames addressed to a
  node that is offline when they *arrive* are counted as
  ``dropped_deliveries`` and discarded — in-flight traffic to a crashed
  node is lost, exactly like the sim;
* :class:`~repro.transport.NetworkStats` records the same modeled
  ``wire_size`` bytes the simulator accounts (so live and sim byte counters
  are comparable); the real framed byte count is kept separately in
  :attr:`AsyncioTransport.frame_bytes_sent`.
"""

from __future__ import annotations

import asyncio
import os
import socket
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..common.errors import TransportError
from ..common.identifiers import NodeId
from ..transport import BaseTransport, NetworkEndpoint
from .framing import FrameReceiver, encode_frame

#: How long a writer pump keeps retrying to reach a destination server
#: before declaring the link broken.
_CONNECT_TIMEOUT_S = 5.0
_CONNECT_RETRY_S = 0.02

#: The send buffer each pump asks for, so a multi-megabyte frame leaves in
#: one ``send`` rather than trickling out as the receiver drains it.  The
#: kernel caps the request at ``net.core.wmem_max`` — 4 MiB on the Linux
#: host the e2e benchmark numbers were taken on — and doubles what it
#: grants for its own bookkeeping; under a smaller cap a large frame takes
#: more sends.
SEND_BUFFER_BYTES = 4 * 1024 * 1024


@dataclass
class _Link:
    """One FIFO outgoing link from a source node to a destination node."""

    queue: asyncio.Queue
    task: Optional[asyncio.Task] = None


class AsyncioTransport(BaseTransport):
    """Socket-backed implementation of :class:`repro.transport.BaseTransport`."""

    def __init__(
        self,
        mode: str = "unix",
        socket_dir: Optional[str] = None,
        host: str = "127.0.0.1",
    ) -> None:
        if mode not in ("unix", "tcp"):
            raise TransportError(f"unknown transport mode {mode!r}")
        super().__init__()
        self._mode = mode
        self._host = host
        self._socket_dir = socket_dir
        self._owns_socket_dir = False
        self._addresses: Dict[NodeId, Any] = {}
        self._servers: Dict[NodeId, asyncio.AbstractServer] = {}
        self._links: Dict[Tuple[NodeId, NodeId], _Link] = {}
        self._receivers: set[FrameReceiver] = set()
        self._started = False
        self._stopping = False
        #: Real framed bytes written to sockets (prefix + payload); the
        #: ``stats`` counters carry the modeled ``wire_size`` for parity
        #: with the simulator's accounting.
        self.frames_sent = 0
        self.frame_bytes_sent = 0
        #: Frames counted in ``frames_sent`` that were still queued on a
        #: link when its pump failed, and so never reached a socket.
        self.frames_lost = 0

    # ------------------------------------------------------------------
    # Registration and lifecycle
    # ------------------------------------------------------------------
    def register(self, node: NetworkEndpoint) -> None:
        # Servers are bound once, at start: a later endpoint would have none.
        if self._started:
            raise TransportError("register before the transport is started")
        super().register(node)

    async def start(self) -> None:
        """Bind one server per registered node; must run inside the loop."""

        if self._started:
            return
        if self._mode == "unix" and self._socket_dir is None:
            self._socket_dir = tempfile.mkdtemp(prefix="wedge-fleet-")
            self._owns_socket_dir = True
        loop = asyncio.get_running_loop()
        for index, (node_id, endpoint) in enumerate(self._nodes.items()):
            factory = self._receiver_factory(endpoint)
            if self._mode == "unix":
                path = os.path.join(self._socket_dir, f"n{index}.sock")
                server = await loop.create_unix_server(factory, path=path)
                self._addresses[node_id] = path
            else:
                server = await loop.create_server(factory, host=self._host, port=0)
                port = server.sockets[0].getsockname()[1]
                self._addresses[node_id] = (self._host, port)
            self._servers[node_id] = server
        self._started = True

    async def stop(self) -> None:
        """Tear down pumps, receivers, servers, and (owned) socket paths."""

        self._stopping = True
        for link in self._links.values():
            if link.task is not None:
                link.task.cancel()
        for link in self._links.values():
            if link.task is not None:
                try:
                    await link.task
                except (asyncio.CancelledError, Exception):
                    pass
        self._links.clear()
        for receiver in tuple(self._receivers):
            receiver.transport.close()
        # Closed transports report their loss on the next loop pass.
        await asyncio.sleep(0)
        self._receivers.clear()
        for server in self._servers.values():
            server.close()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
        if self._mode == "unix":
            for address in self._addresses.values():
                try:
                    os.unlink(address)
                except OSError:
                    pass
            if self._owns_socket_dir and self._socket_dir is not None:
                try:
                    os.rmdir(self._socket_dir)
                except OSError:
                    pass
        self._addresses.clear()
        # The endpoints point at the runtime that owns this transport; see
        # LiveEnvironment.stop for why a stopped fleet must hold no cycle.
        self._nodes.clear()
        self._started = False
        self._stopping = False

    def address_of(self, node_id: NodeId):
        """The bound socket address of *node_id* (after :meth:`start`)."""

        try:
            return self._addresses[node_id]
        except KeyError as exc:
            raise TransportError(f"no address for {node_id}") from exc

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        src_id: NodeId,
        dst_id: NodeId,
        message: Any,
        depart_at: Optional[float] = None,
    ) -> float:
        """Frame and enqueue *message* on the ``(src, dst)`` link.

        Returns the wall-clock enqueue time as the delivery estimate (the
        real delivery completes asynchronously), or ``inf`` when vetoed.
        ``depart_at`` is accepted for interface parity and ignored — real
        CPU time has already elapsed by the time the handler sends.
        """

        if not self._started:
            raise TransportError("transport not started")
        if self._admit(src_id, dst_id, message) is None:
            return float("inf")

        frame = encode_frame(src_id, message)
        link = self._links.get((src_id, dst_id))
        if link is None:
            link = _Link(queue=asyncio.Queue())
            link.task = asyncio.get_running_loop().create_task(
                self._pump(src_id, dst_id, link),
                name=f"pump:{src_id}->{dst_id}",
            )
            self._links[(src_id, dst_id)] = link
        link.queue.put_nowait(frame)
        self.frames_sent += 1
        self.frame_bytes_sent += len(frame)
        return asyncio.get_running_loop().time()

    async def _connect(self, dst_id: NodeId):
        address = self.address_of(dst_id)
        deadline = asyncio.get_running_loop().time() + _CONNECT_TIMEOUT_S
        while True:
            try:
                if self._mode == "unix":
                    return await asyncio.open_unix_connection(path=address)
                return await asyncio.open_connection(
                    host=address[0], port=address[1]
                )
            except OSError:
                if (
                    self._stopping
                    or asyncio.get_running_loop().time() >= deadline
                ):
                    raise
                await asyncio.sleep(_CONNECT_RETRY_S)

    async def _pump(
        self, src_id: NodeId, dst_id: NodeId, link: _Link
    ) -> None:
        """Write queued frames to the destination's server, in order."""

        writer = None
        try:
            _, writer = await self._connect(dst_id)
            sock = writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SEND_BUFFER_BYTES)
            while True:
                frame = await link.queue.get()
                writer.write(frame)
                await writer.drain()
        except asyncio.CancelledError:
            pass
        except (OSError, ConnectionError) as exc:
            if not self._stopping:
                self._link_failed(src_id, dst_id, link, exc)
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError):
                    pass

    def _link_failed(
        self, src_id: NodeId, dst_id: NodeId, link: _Link, exc: Exception
    ) -> None:
        """A dead link is loud, not quiet: the source records the failure,
        the frames stuck behind it are counted, and the next send on the
        pair opens a new link."""

        del self._links[(src_id, dst_id)]
        self.frames_lost += link.queue.qsize()
        fail = getattr(self._nodes.get(src_id), "fail", None)
        if fail is None:
            raise exc
        fail(exc)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _receiver_factory(self, endpoint: NetworkEndpoint):
        # What the receiving node holds, for its decoder to hand back.
        held = getattr(endpoint, "held", None)
        # A reader that crashes must be loud, not a link that goes quiet:
        # the endpoint records it as it records a crashed handler.
        fail = getattr(endpoint, "fail", None)

        def deliver(sender: NodeId, message: Any) -> None:
            if endpoint.node_id in self._offline:
                # The destination crashed while this was in flight.
                self.stats.dropped_deliveries += 1
                return
            endpoint.deliver(sender, message)

        return lambda: FrameReceiver(deliver, held, fail, self._receivers)
