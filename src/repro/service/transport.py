"""The wall-clock socket transport behind the ``Transport`` boundary.

Every registered node owns one server socket (unix-domain by default, TCP
optionally).  A send from ``src`` to ``dst`` enqueues a frame on the
``(src, dst)`` link; a writer pump per link keeps one outgoing connection
to the destination's server and writes frames in order, so per-sender-pair
FIFO delivery matches the simulator's single uplink lane.  ``send`` itself
is synchronous — node handlers run inside the event loop and never await —
which is what lets the exact same protocol code drive both substrates.

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
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..common.errors import TransportError
from ..common.identifiers import NodeId
from ..transport import BaseTransport, NetworkEndpoint
from .framing import FrameError, encode_frame, read_frame

#: How long a writer pump keeps retrying to reach a destination server
#: before declaring the link broken.
_CONNECT_TIMEOUT_S = 5.0
_CONNECT_RETRY_S = 0.02


@dataclass
class _Link:
    """One FIFO outgoing link from a source node to a destination node."""

    queue: asyncio.Queue
    task: Optional[asyncio.Task] = None


class AsyncioTransport(BaseTransport):
    """Socket-backed implementation of :class:`repro.transport.Transport`."""

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
        self._conn_tasks: set[asyncio.Task] = set()
        self._started = False
        self._stopping = False
        #: Real framed bytes written to sockets (prefix + payload); the
        #: ``stats`` counters carry the modeled ``wire_size`` for parity
        #: with the simulator's accounting.
        self.frames_sent = 0
        self.frame_bytes_sent = 0

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
        for index, (node_id, endpoint) in enumerate(self._nodes.items()):
            handler = self._make_connection_handler(endpoint)
            if self._mode == "unix":
                path = os.path.join(self._socket_dir, f"n{index}.sock")
                server = await asyncio.start_unix_server(handler, path=path)
                self._addresses[node_id] = path
            else:
                server = await asyncio.start_server(handler, host=self._host, port=0)
                port = server.sockets[0].getsockname()[1]
                self._addresses[node_id] = (self._host, port)
            self._servers[node_id] = server
        self._started = True

    async def stop(self) -> None:
        """Tear down pumps, servers, and (owned) socket paths."""

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
        for task in tuple(self._conn_tasks):
            task.cancel()
        for task in tuple(self._conn_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._conn_tasks.clear()
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
                self._pump(src_id, dst_id, link.queue),
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
        self, src_id: NodeId, dst_id: NodeId, queue: asyncio.Queue
    ) -> None:
        """Write queued frames to the destination's server, in order."""

        writer = None
        try:
            _, writer = await self._connect(dst_id)
            while True:
                frame = await queue.get()
                writer.write(frame)
                await writer.drain()
        except (asyncio.CancelledError, OSError, ConnectionError):
            pass
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError):
                    pass

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _make_connection_handler(self, endpoint: NetworkEndpoint):
        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            task = asyncio.current_task()
            self._conn_tasks.add(task)
            try:
                while True:
                    decoded = await read_frame(reader)
                    if decoded is None:
                        break
                    sender, message = decoded
                    if endpoint.node_id in self._offline:
                        # The destination crashed while this was in flight.
                        self.stats.dropped_deliveries += 1
                        continue
                    endpoint.deliver(sender, message)
            except (FrameError, asyncio.CancelledError, ConnectionError):
                pass
            finally:
                self._conn_tasks.discard(task)
                writer.close()

        return handle
