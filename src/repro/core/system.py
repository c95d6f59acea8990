"""The top-level WedgeChain system facade.

:class:`WedgeChainSystem` wires a cloud node, one or more edge nodes, and a
set of clients onto a shared simulated environment, and offers the small
convenience API (issue operations, run the simulation, wait for commit
phases, collect statistics) that the examples and the benchmark harness use.

Every deployment — WedgeChain, both baselines, the sharded fleet and the
wall-clock :class:`repro.service.harness.LiveFleet` — is one cloud, a list
of edges (empty for the cloud-only baseline, whose store is its cloud) and
a list of clients on one environment, and shares what is written once here:

* :class:`Deployment`: the ``client`` / ``edge`` / ``trackers`` accessors
  and :meth:`~Deployment.stats`, the same :class:`SystemStats` on either
  substrate;
* :func:`wire_fleet` (cloud → edges → round-robin clients) and
  :func:`edge_factory_for`, which the sim systems and the live fleet build
  with;
* :func:`simulation_environment`, the sim builders' common preamble;
* :func:`settled`, the predicate every wait helper polls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from ..common.config import SystemConfig
from ..common.errors import ConfigurationError
from ..common.identifiers import NodeId, OperationId
from ..common.regions import Region
from ..log.proofs import CommitPhase
from ..nodes.client import Client
from ..nodes.cloud import CloudNode
from ..nodes.edge import EdgeNode
from ..sim.environment import Environment
from ..sim.parameters import SimulationParameters
from ..sim.topology import Topology
from .commit import CommitTracker

#: Signature of a factory that builds an edge node (lets callers substitute
#: malicious variants without changing the wiring code).
EdgeFactory = Callable[[Environment, NodeId, SystemConfig, str, Region], EdgeNode]


def edge_factory_for(edge_class: type) -> EdgeFactory:
    """The factory that builds plain *edge_class* nodes."""

    def factory(env, cloud: NodeId, config: SystemConfig, name: str, region: Region):
        return edge_class(env=env, cloud=cloud, config=config, name=name, region=region)

    return factory


def wire_fleet(
    env: Any,
    config: SystemConfig,
    num_clients: int,
    edge_factory: EdgeFactory,
    cloud_class: type = CloudNode,
) -> tuple[CloudNode, list[EdgeNode], list[Client]]:
    """Build one cloud, ``config.num_edge_nodes`` edges and *num_clients*
    clients on *env* (either substrate).

    Clients are placed in ``config.placement.client_region``, assigned to
    edge nodes round-robin (each client belongs to exactly one partition,
    Section III), and registered as the cloud's gossip targets.
    """

    cloud = cloud_class(env=env, config=config, name="cloud-0")
    edges = [
        edge_factory(
            env,
            cloud.node_id,
            config,
            f"edge-{index}",
            config.placement.edge_region,
        )
        for index in range(config.num_edge_nodes)
    ]
    clients = []
    for index in range(num_clients):
        edge = edges[index % len(edges)]
        client = Client(
            env=env,
            edge=edge.node_id,
            cloud=cloud.node_id,
            config=config,
            name=f"client-{index}",
            region=config.placement.client_region,
        )
        clients.append(client)
        cloud.register_gossip_target(client.node_id)
    return cloud, edges, clients


_PHASE_RANK = {
    CommitPhase.PENDING: 0,
    CommitPhase.FAILED: 0,
    CommitPhase.PHASE_ONE: 1,
    CommitPhase.PHASE_TWO: 2,
}


def settled(client: Client, operation_id: OperationId, phase: CommitPhase) -> bool:
    """Whether an operation reached *phase* — or failed, which is final."""

    current = client.tracker.get(operation_id).phase
    return _PHASE_RANK[current] >= _PHASE_RANK[phase] or current is CommitPhase.FAILED


def simulation_environment(
    config: SystemConfig,
    num_clients: int,
    env: Optional[Environment],
    topology: Optional[Topology],
    params: Optional[SimulationParameters],
    seed: int,
) -> Environment:
    """*env*, or a new one for *config*, once *num_clients* is checked."""

    if num_clients <= 0:
        raise ConfigurationError("num_clients must be positive")
    if env is not None:
        return env
    return Environment(
        topology=topology,
        params=params,
        signature_scheme=config.security.signature_scheme,
        seed=seed,
    )


@dataclass
class SystemStats:
    """Aggregated counters collected from every node of a deployment."""

    phase_one_commits: int
    phase_two_commits: int
    failed_operations: int
    blocks_formed: int
    certifications: int
    punishments: int
    wan_bytes: int
    lan_bytes: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Deployment:
    """What every deployment offers over its ``cloud``, ``edges``,
    ``clients`` and ``env`` (either substrate)."""

    def client(self, index: int = 0) -> Client:
        return self.clients[index]

    def edge(self, index: int = 0) -> EdgeNode:
        return self.edges[index]

    def trackers(self) -> list[CommitTracker]:
        return [client.tracker for client in self.clients]

    def stats(self) -> SystemStats:
        """Counters summed over the nodes.  Blocks are counted wherever
        they form — at the edges, or at the cloud-only store — and a counter
        a node does not keep (the store certifies and punishes nothing)
        counts as zero."""

        def count(phase: CommitPhase) -> int:
            return sum(tracker.count_in_phase(phase) for tracker in self.trackers())

        network = self.env.network.stats
        return SystemStats(
            phase_one_commits=count(CommitPhase.PHASE_ONE),
            phase_two_commits=count(CommitPhase.PHASE_TWO),
            failed_operations=count(CommitPhase.FAILED),
            blocks_formed=sum(
                node.stats.get("blocks_formed", 0) for node in (self.cloud, *self.edges)
            ),
            certifications=self.cloud.stats.get("certifications", 0),
            punishments=self.cloud.stats.get("punishments", 0),
            wan_bytes=network.wan_bytes,
            lan_bytes=network.lan_bytes,
        )


class WedgeChainSystem(Deployment):
    """A full WedgeChain deployment: cloud + edge nodes + clients."""

    #: The node classes :meth:`build` wires (the edge-baseline swaps both).
    cloud_class = CloudNode
    edge_class = EdgeNode

    def __init__(
        self,
        env: Environment,
        config: SystemConfig,
        cloud: CloudNode,
        edges: Sequence[EdgeNode],
        clients: Sequence[Client],
    ) -> None:
        self.env = env
        self.config = config
        self.cloud = cloud
        self.edges = list(edges)
        self.clients = list(clients)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: Optional[SystemConfig] = None,
        num_clients: int = 1,
        env: Optional[Environment] = None,
        topology: Optional[Topology] = None,
        params: Optional[SimulationParameters] = None,
        edge_factory: Optional[EdgeFactory] = None,
        seed: int = 7,
        enable_gossip: bool = False,
    ) -> "WedgeChainSystem":
        """Create a deployment according to *config* (see :func:`wire_fleet`)."""

        config = config if config is not None else SystemConfig.paper_default()
        env = simulation_environment(config, num_clients, env, topology, params, seed)
        if edge_factory is None:
            edge_factory = edge_factory_for(cls.edge_class)
        cloud, edges, clients = wire_fleet(
            env, config, num_clients, edge_factory, cls.cloud_class
        )
        system = cls(env=env, config=config, cloud=cloud, edges=edges, clients=clients)
        if enable_gossip:
            cloud.start_gossip()
        return system

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the event queue."""

        return self.env.run(max_events)

    def run_for(self, duration_s: float) -> int:
        """Run the simulation for *duration_s* seconds of simulated time."""

        return self.env.run_until(self.env.now() + duration_s)

    def wait_for(
        self,
        client: Client,
        operation_id: OperationId,
        phase: CommitPhase = CommitPhase.PHASE_TWO,
        max_time_s: float = 120.0,
    ) -> CommitPhase:
        """Run the simulation until an operation reaches *phase* (or times out)."""

        self.env.run_until_condition(
            lambda: settled(client, operation_id, phase), self.env.now() + max_time_s
        )
        return client.tracker.get(operation_id).phase

    def wait_for_all(
        self,
        operations: Iterable[tuple[Client, OperationId]],
        phase: CommitPhase = CommitPhase.PHASE_TWO,
        max_time_s: float = 300.0,
    ) -> bool:
        """Run until every listed operation reaches *phase*; returns success."""

        pairs = list(operations)
        return self.env.run_until_condition(
            lambda: all(settled(client, op, phase) for client, op in pairs),
            self.env.now() + max_time_s,
        )
