"""The sharded-fleet facade: N edges, one cloud, shard-aware clients.

:class:`ShardedWedgeSystem` is the multi-edge counterpart of
:class:`~repro.core.system.WedgeChainSystem`: it wires a fleet of
:class:`~repro.sharding.edge.ShardedEdgeNode`\\ s, installs the cloud-signed
shard map, hands every client a router, and exposes rebalancing (manual
``rebalance_shard`` and the load-triggered ``maybe_rebalance``) on top of
the certified handoff protocol.

The paper's :class:`~repro.workloads.driver.ClosedLoopDriver` drives the
fleet as it drives one edge — one outstanding *batch* per client; it already
tracks the set of operations a batch that spans shards fans out into (one
append per owning edge) and issues the next batch when the last commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..common.config import ShardingConfig, SystemConfig
from ..common.errors import ConfigurationError
from ..common.identifiers import NodeId, ShardId, edge_id
from ..core.system import WedgeChainSystem
from ..sim.environment import Environment
from ..sim.parameters import SimulationParameters
from ..sim.topology import Topology
from .client import ShardedClient
from .cloud import ShardedCloudNode
from .edge import ShardedEdgeNode
from .partitioner import KeyPartitioner, make_partitioner

#: Factory signature for sharded edge nodes (lets tests substitute the
#: malicious variants without changing the wiring code).
ShardedEdgeFactory = Callable[..., ShardedEdgeNode]

#: An edge whose logged-entry share exceeds this many times the fleet mean
#: is eligible for a shard handoff when ``maybe_rebalance`` runs.
REBALANCE_HOT_FACTOR = 1.5


@dataclass(frozen=True)
class RebalanceAction:
    """One shard movement decided by the load trigger."""

    shard_id: ShardId
    source: NodeId
    dest: NodeId
    reason: str


class ShardedWedgeSystem(WedgeChainSystem):
    """A sharded WedgeChain fleet: cloud + N sharded edges + routed clients."""

    def __init__(
        self,
        env: Environment,
        config: SystemConfig,
        cloud: ShardedCloudNode,
        edges: Sequence[ShardedEdgeNode],
        clients: Sequence[ShardedClient],
        partitioner: KeyPartitioner,
    ) -> None:
        super().__init__(env=env, config=config, cloud=cloud, edges=edges, clients=clients)
        self.partitioner = partitioner
        #: Per-edge ``entries_logged`` snapshot taken at the last rebalance,
        #: so the trigger reacts to load since the last move, not lifetime
        #: totals (which would keep indicting an edge that already shed its
        #: hotspot).
        self._rebalance_baseline: dict[NodeId, int] = {}

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
        edge_factory: Optional[ShardedEdgeFactory] = None,
        seed: int = 7,
        enable_gossip: bool = False,
    ) -> "ShardedWedgeSystem":
        """Create a sharded deployment.

        ``config.sharding`` selects the partitioner and shard count (a
        default :class:`~repro.common.config.ShardingConfig` is attached
        when absent); ``config.num_edge_nodes`` sizes the fleet.  Shards are
        assigned to edges round-robin, and every node starts from the same
        cloud-signed version-1 shard map.
        """

        config = config if config is not None else SystemConfig.paper_default()
        if config.sharding is None:
            config = config.with_overrides(sharding=ShardingConfig())
        sharding = config.sharding
        if num_clients <= 0:
            raise ConfigurationError("num_clients must be positive")
        if env is None:
            env = Environment(
                topology=topology,
                params=params,
                signature_scheme=config.security.signature_scheme,
                seed=seed,
            )
        partitioner = make_partitioner(
            sharding.partitioner, sharding.num_shards, key_space=sharding.key_space
        )
        factory = edge_factory if edge_factory is not None else ShardedEdgeNode

        # The cloud is the map's authority from construction, so ownership is
        # laid out over the edges' ids before the edges themselves exist.
        edge_names = [f"edge-{index}" for index in range(config.num_edge_nodes)]
        edge_ids = [edge_id(name) for name in edge_names]
        assignments = {
            shard_id: edge_ids[shard_id % len(edge_ids)]
            for shard_id in range(sharding.num_shards)
        }
        # replication_factor - 1 read replicas per shard, round-robin over
        # the edges after the writer.  The paper-default factor of 1 leaves
        # the map (and its signed bytes) exactly as the unreplicated fleet.
        replicas = None
        extra = min(sharding.replication_factor - 1, len(edge_ids) - 1)
        if extra > 0:
            replicas = {
                shard_id: tuple(
                    edge_ids[(shard_id + offset) % len(edge_ids)]
                    for offset in range(1, extra + 1)
                )
                for shard_id in range(sharding.num_shards)
            }
        cloud = ShardedCloudNode(
            env=env,
            config=config,
            partitioner=partitioner,
            assignments=assignments,
            replicas=replicas,
        )
        edges = [
            factory(
                env=env,
                cloud=cloud.node_id,
                config=config,
                name=name,
                region=config.placement.edge_region,
                partitioner=partitioner,
            )
            for name in edge_names
        ]
        if [edge.node_id for edge in edges] != edge_ids:
            raise ConfigurationError("edge_factory must name each edge as asked")
        map_message = cloud.current_shard_map()
        for edge in edges:
            edge.adopt_shard_map(map_message)

        clients = []
        for index in range(num_clients):
            client = ShardedClient(
                env=env,
                edges=edge_ids,
                cloud=cloud.node_id,
                partitioner=partitioner,
                config=config,
                name=f"client-{index}",
                region=config.placement.client_region,
                shard_map=map_message,
            )
            clients.append(client)
            cloud.register_gossip_target(client.node_id)
        system = cls(
            env=env,
            config=config,
            cloud=cloud,
            edges=edges,
            clients=clients,
            partitioner=partitioner,
        )
        if enable_gossip:
            cloud.start_gossip()
        return system

    # ------------------------------------------------------------------
    # Shard management
    # ------------------------------------------------------------------
    def shard_owner(self, shard_id: ShardId) -> Optional[NodeId]:
        """The authoritative current owner (cloud registry)."""

        return self.cloud.shard_registry.owner_of(shard_id)

    def edge_by_id(self, node_id: NodeId) -> ShardedEdgeNode:
        for edge in self.edges:
            if edge.node_id == node_id:
                return edge
        raise ConfigurationError(f"unknown edge {node_id}")

    def rebalance_shard(self, shard_id: ShardId, dest: "NodeId | int") -> None:
        """Order a certified handoff of *shard_id* to *dest* (edge or index)."""

        dest_id = self.edges[dest].node_id if isinstance(dest, int) else dest
        self.cloud.request_shard_handoff(shard_id, dest_id)

    def maybe_rebalance(self) -> Optional[RebalanceAction]:
        """Move one shard off the hottest edge when load is skewed enough.

        The trigger compares per-edge logged entries against the fleet mean;
        an edge beyond :data:`REBALANCE_HOT_FACTOR` times the mean
        hands its busiest shard to the least-loaded edge.  Returns the
        action taken (the handoff itself completes asynchronously) or
        ``None`` when the fleet is balanced or no move is possible.
        """

        loads = {
            edge.node_id: edge.stats["entries_logged"]
            - self._rebalance_baseline.get(edge.node_id, 0)
            for edge in self.edges
        }
        if len(loads) < 2:
            return None
        mean_load = sum(loads.values()) / len(loads)
        if mean_load <= 0:
            return None
        hottest = max(self.edges, key=lambda edge: loads[edge.node_id])
        if loads[hottest.node_id] < REBALANCE_HOT_FACTOR * mean_load:
            return None
        candidates = {
            shard_id: hottest.shard_entry_counts.get(shard_id, 0)
            for shard_id in hottest.owned_shards()
            if self.shard_owner(shard_id) == hottest.node_id
        }
        if len(candidates) <= 1:
            return None  # moving an edge's only shard just relocates the hotspot
        busiest_shard = max(candidates, key=candidates.get)
        coldest = min(
            (edge for edge in self.edges if edge.node_id != hottest.node_id),
            key=lambda edge: loads[edge.node_id],
        )
        self.rebalance_shard(busiest_shard, coldest.node_id)
        self._rebalance_baseline = {
            edge.node_id: edge.stats["entries_logged"] for edge in self.edges
        }
        return RebalanceAction(
            shard_id=busiest_shard,
            source=hottest.node_id,
            dest=coldest.node_id,
            reason=(
                f"edge load {loads[hottest.node_id]} exceeds "
                f"{REBALANCE_HOT_FACTOR:.1f}x fleet mean {mean_load:.0f}"
            ),
        )

    # ------------------------------------------------------------------
    # Fleet statistics
    # ------------------------------------------------------------------
    def fleet_stats(self) -> dict:
        """Shard-level counters on top of the base :meth:`stats`."""

        return {
            "shard_redirects": sum(e.stats["shard_redirects"] for e in self.edges),
            "handoffs_granted": self.cloud.stats["shard_handoffs_granted"],
            "handoffs_completed": self.cloud.stats["shard_installs"],
            "shard_disputes": self.cloud.stats["shard_disputes"],
            "map_version": self.cloud.shard_registry.version,
            "entries_per_edge": {
                str(edge.node_id): edge.stats["entries_logged"] for edge in self.edges
            },
            "certify_batches": sum(
                edge.stats.get("certify_batches", 0) for edge in self.edges
            ),
            "certify_inflight_peak": max(
                (edge.stats.get("certify_inflight_peak", 0) for edge in self.edges),
                default=0,
            ),
        }
