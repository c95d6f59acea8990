"""A live WedgeChain fleet: cloud + edges + clients as asyncio tasks.

:class:`LiveFleet` is the wall-clock twin of
:class:`repro.core.system.WedgeChainSystem`: the same wiring (clients
assigned to edges round-robin, gossip targets registered on the cloud, an
``edge_factory`` hook for sharded or adversarial edge variants — literally
the same :func:`repro.core.system.wire_fleet`), but nodes exchange frames
over real sockets and timers fire on real time.

Usage is a start → load → report → clean-shutdown story::

    fleet = LiveFleet(num_edges=2, num_clients=2)
    await fleet.start()
    op = fleet.client(0).put_batch([("k", b"v")])
    await fleet.wait_for(fleet.client(0), op, CommitPhase.PHASE_TWO)
    await fleet.stop()

``async with LiveFleet(...)`` handles start/stop; see
``examples/live_fleet.py`` for the full walk-through with open-loop load.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..common.config import SystemConfig
from ..common.errors import ConfigurationError
from ..common.identifiers import NodeId, OperationId
from ..common.regions import Region
from ..core.system import edge_factory_for, settled, wire_fleet
from ..log.proofs import CommitPhase
from ..nodes.client import Client
from ..nodes.cloud import CloudNode
from ..nodes.edge import EdgeNode
from ..sim.parameters import SimulationParameters
from .runtime import LiveEnvironment
from .transport import AsyncioTransport

#: Edge factory signature — same shape as the sim system's, so sharded or
#: malicious variants plug into either substrate unchanged.
LiveEdgeFactory = Callable[[LiveEnvironment, NodeId, SystemConfig, str, Region], EdgeNode]

_POLL_S = 0.002


@dataclass
class LiveFleetStats:
    """Counters collected from a live run (same shape as the sim's)."""

    phase_one_commits: int
    phase_two_commits: int
    failed_operations: int
    blocks_formed: int
    certifications: int
    wan_bytes: int
    lan_bytes: int
    frames_sent: int
    frame_bytes_sent: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class LiveFleet:
    """A full live deployment with clean start/stop lifecycle."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        num_clients: int = 1,
        num_edges: Optional[int] = None,
        params: Optional[SimulationParameters] = None,
        edge_factory: Optional[LiveEdgeFactory] = None,
        seed: int = 7,
        enable_gossip: bool = False,
        transport_mode: str = "unix",
        socket_dir: Optional[str] = None,
        host: str = "127.0.0.1",
    ) -> None:
        if num_clients <= 0:
            raise ConfigurationError("num_clients must be positive")
        self.config = config if config is not None else SystemConfig.paper_default()
        if num_edges is not None:
            self.config = self.config.with_overrides(num_edge_nodes=num_edges)
        self._num_clients = num_clients
        self._params = params
        self._edge_factory = (
            edge_factory if edge_factory is not None else edge_factory_for(EdgeNode)
        )
        self._seed = seed
        self._enable_gossip = enable_gossip
        self._transport_mode = transport_mode
        self._socket_dir = socket_dir
        self._host = host
        self.env: Optional[LiveEnvironment] = None
        self.cloud: Optional[CloudNode] = None
        self.edges: list[EdgeNode] = []
        self.clients: list[Client] = []
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "LiveFleet":
        """Construct the fleet and bring sockets, workers, and timers up."""

        if self._running:
            return self
        transport = AsyncioTransport(
            mode=self._transport_mode,
            socket_dir=self._socket_dir,
            host=self._host,
        )
        self.env = LiveEnvironment(
            transport=transport,
            params=self._params,
            signature_scheme=self.config.security.signature_scheme,
            seed=self._seed,
        )
        self.cloud, self.edges, self.clients = wire_fleet(
            self.env, self.config, self._num_clients, self._edge_factory
        )
        await self.env.start()
        if self._enable_gossip:
            self.cloud.start_gossip()
        self._running = True
        return self

    async def stop(self) -> None:
        if self.env is not None:
            await self.env.stop()
        self._running = False

    async def __aenter__(self) -> "LiveFleet":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Access helpers
    # ------------------------------------------------------------------
    def client(self, index: int = 0) -> Client:
        return self.clients[index]

    def edge(self, index: int = 0) -> EdgeNode:
        return self.edges[index]

    # ------------------------------------------------------------------
    # Waiting (wall-clock analogue of the sim's run_until_condition)
    # ------------------------------------------------------------------
    async def await_condition(
        self, condition: Callable[[], bool], timeout_s: float = 30.0
    ) -> bool:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while True:
            if condition():
                return True
            if loop.time() >= deadline:
                return condition()
            await asyncio.sleep(_POLL_S)

    async def wait_for(
        self,
        client: Client,
        operation_id: OperationId,
        phase: CommitPhase = CommitPhase.PHASE_TWO,
        timeout_s: float = 30.0,
    ) -> CommitPhase:
        await self.await_condition(
            lambda: settled(client, operation_id, phase), timeout_s
        )
        return client.tracker.get(operation_id).phase

    async def wait_for_all(
        self,
        operations: Iterable[tuple[Client, OperationId]],
        phase: CommitPhase = CommitPhase.PHASE_TWO,
        timeout_s: float = 60.0,
    ) -> bool:
        pairs = list(operations)
        return await self.await_condition(
            lambda: all(settled(client, op, phase) for client, op in pairs), timeout_s
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def trackers(self) -> list:
        return [client.tracker for client in self.clients]

    def stats(self) -> LiveFleetStats:
        transport = self.env.transport
        return LiveFleetStats(
            phase_one_commits=sum(
                tracker.count_in_phase(CommitPhase.PHASE_ONE)
                for tracker in self.trackers()
            ),
            phase_two_commits=sum(
                tracker.count_in_phase(CommitPhase.PHASE_TWO)
                for tracker in self.trackers()
            ),
            failed_operations=sum(
                tracker.count_in_phase(CommitPhase.FAILED)
                for tracker in self.trackers()
            ),
            blocks_formed=sum(edge.stats["blocks_formed"] for edge in self.edges),
            certifications=self.cloud.stats["certifications"],
            wan_bytes=transport.stats.wan_bytes,
            lan_bytes=transport.stats.lan_bytes,
            frames_sent=transport.frames_sent,
            frame_bytes_sent=transport.frame_bytes_sent,
        )
