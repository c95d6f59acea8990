"""The cloud-signed shard map: authoritative registry and verified views.

The cloud is the single authority on shard ownership (it already certifies
every block and countersigns every merge, so anchoring membership there adds
no new trust).  It keeps a :class:`ShardRegistry` — the current assignment
plus the full ownership history — and publishes cloud-signed, versioned
:class:`~repro.messages.shard_messages.ShardMapMessage` snapshots through
the gossip path.

Clients and edges keep a :class:`ShardMapView`: signature-verified and
version-monotone.  A delayed or replayed *stale* map (lower version) never
passes the view's update check, which is what makes mid-interval membership
changes safe — whoever still holds the old map simply re-routes after one
signed redirect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..common.identifiers import NodeId, ShardId
from ..core.gossip import AnyGossipMessage, GossipView
from ..crypto.signatures import KeyRegistry
from ..messages.log_messages import GossipBatchStatement
from ..messages.shard_messages import (
    ShardAssignment,
    ShardMapMessage,
    ShardMapStatement,
)


def build_shard_map_message(
    registry: KeyRegistry,
    cloud: NodeId,
    version: int,
    num_shards: int,
    partitioner: str,
    assignments: dict[ShardId, NodeId],
    timestamp: float,
    replicas: Optional[dict[ShardId, tuple[NodeId, ...]]] = None,
    provenance: Optional[dict[ShardId, tuple[NodeId, ...]]] = None,
) -> ShardMapMessage:
    """Sign one shard-map snapshot on behalf of the cloud.

    Assignments are ordered by shard id so the signed bytes are
    deterministic regardless of the registry's internal bookkeeping order.
    ``replicas``/``provenance`` name each shard's read replicas and prior
    writers; omitted (the unreplicated default) the signed bytes are
    identical to the historical single-owner map.
    """

    replicas = replicas or {}
    provenance = provenance or {}
    statement = ShardMapStatement(
        cloud=cloud,
        version=version,
        num_shards=num_shards,
        partitioner=partitioner,
        timestamp=timestamp,
        assignments=tuple(
            ShardAssignment(
                shard_id=shard_id,
                owner=assignments[shard_id],
                replicas=tuple(replicas.get(shard_id, ())),
                provenance=tuple(provenance.get(shard_id, ())),
            )
            for shard_id in sorted(assignments)
        ),
    )
    return ShardMapMessage(
        statement=statement, signature=registry.sign(cloud, statement)
    )


def verify_shard_map(
    registry: KeyRegistry,
    message: ShardMapMessage,
    cloud: Optional[NodeId] = None,
) -> bool:
    """Verify the cloud's signature on a shard map snapshot."""

    if cloud is not None and message.signature.signer != cloud:
        return False
    return registry.verify(message.signature, message.statement)


@dataclass
class OwnershipEpoch:
    """One entry of the cloud's ownership history for a shard."""

    shard_id: ShardId
    owner: NodeId
    version: int
    since: float


class ShardRegistry:
    """The cloud's authoritative shard map plus its full history.

    The history is what makes stale-owner disputes judgeable: given a
    signed response issued at time *t* for a shard, the cloud can say who
    owned the shard at *t* and punish an edge that provably served after
    losing it.
    """

    def __init__(
        self,
        num_shards: int,
        partitioner: str,
        assignments: dict[ShardId, NodeId],
        now: float = 0.0,
        replicas: Optional[dict[ShardId, tuple[NodeId, ...]]] = None,
    ) -> None:
        self.num_shards = num_shards
        self.partitioner = partitioner
        self.version = 1
        self._owners: dict[ShardId, NodeId] = dict(assignments)
        self._replicas: dict[ShardId, tuple[NodeId, ...]] = {
            shard_id: tuple(members)
            for shard_id, members in (replicas or {}).items()
            if members
        }
        self._provenance: dict[ShardId, tuple[NodeId, ...]] = {}
        self._history: list[OwnershipEpoch] = [
            OwnershipEpoch(shard_id=shard_id, owner=owner, version=1, since=now)
            for shard_id, owner in sorted(assignments.items())
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def owner_of(self, shard_id: ShardId) -> Optional[NodeId]:
        return self._owners.get(shard_id)

    def assignments(self) -> dict[ShardId, NodeId]:
        return dict(self._owners)

    def replicas_of(self, shard_id: ShardId) -> tuple[NodeId, ...]:
        return self._replicas.get(shard_id, ())

    def provenance_of(self, shard_id: ShardId) -> tuple[NodeId, ...]:
        return self._provenance.get(shard_id, ())

    def replicated_shards(self) -> tuple[ShardId, ...]:
        return tuple(sorted(self._replicas))

    def shards_owned_by(self, edge: NodeId) -> tuple[ShardId, ...]:
        return tuple(
            shard_id
            for shard_id, owner in sorted(self._owners.items())
            if owner == edge
        )

    def owner_at(self, shard_id: ShardId, when: float) -> Optional[NodeId]:
        """Who owned *shard_id* at simulated time *when* (history lookup)."""

        owner: Optional[NodeId] = None
        for epoch in self._history:
            if epoch.shard_id != shard_id or epoch.since > when:
                continue
            owner = epoch.owner
        return owner

    def history(self, shard_id: ShardId) -> tuple[OwnershipEpoch, ...]:
        return tuple(
            epoch for epoch in self._history if epoch.shard_id == shard_id
        )

    # ------------------------------------------------------------------
    # Reassignment
    # ------------------------------------------------------------------
    def reassign(self, shard_id: ShardId, new_owner: NodeId, now: float) -> int:
        """Move a shard to a new owner; returns the new map version."""

        self.version += 1
        self._owners[shard_id] = new_owner
        self._history.append(
            OwnershipEpoch(
                shard_id=shard_id,
                owner=new_owner,
                version=self.version,
                since=now,
            )
        )
        return self.version

    def promote_replica(
        self, shard_id: ShardId, replica: NodeId, now: float
    ) -> int:
        """Promote a replica to writer after the old writer was lost.

        The deposed writer joins the shard's provenance chain (its
        certified blocks legitimately remain in the promoted state) and
        the promoted replica leaves the replica set.  Returns the new map
        version.
        """

        deposed = self._owners[shard_id]
        provenance = self._provenance.get(shard_id, ())
        if deposed not in provenance:
            self._provenance[shard_id] = provenance + (deposed,)
        remaining = tuple(
            member
            for member in self._replicas.get(shard_id, ())
            if member != replica
        )
        if remaining:
            self._replicas[shard_id] = remaining
        else:
            self._replicas.pop(shard_id, None)
        return self.reassign(shard_id, replica, now)

    def sign(
        self, registry: KeyRegistry, cloud: NodeId, timestamp: float
    ) -> ShardMapMessage:
        """The current map as a cloud-signed snapshot."""

        return build_shard_map_message(
            registry=registry,
            cloud=cloud,
            version=self.version,
            num_shards=self.num_shards,
            partitioner=self.partitioner,
            assignments=self._owners,
            timestamp=timestamp,
            replicas=self._replicas,
            provenance=self._provenance,
        )


@dataclass
class ShardMapView:
    """A node's verified, version-monotone view of the shard map.

    ``cloud`` pins the only accepted signer.  :meth:`update` rejects
    unsigned, mis-signed, and *stale* (lower-version) maps — a membership
    change mid-gossip-interval can therefore delay a node's view but never
    roll it back.
    """

    cloud: NodeId
    message: Optional[ShardMapMessage] = None
    #: How many stale or invalid maps were rejected (observability).
    rejected: int = 0
    _owners: dict[ShardId, NodeId] = field(default_factory=dict)
    _replicas: dict[ShardId, tuple[NodeId, ...]] = field(default_factory=dict)
    _provenance: dict[ShardId, tuple[NodeId, ...]] = field(default_factory=dict)

    @property
    def version(self) -> int:
        return self.message.statement.version if self.message is not None else 0

    @property
    def num_shards(self) -> Optional[int]:
        return self.message.statement.num_shards if self.message is not None else None

    def owner_of(self, shard_id: ShardId) -> Optional[NodeId]:
        return self._owners.get(shard_id)

    def replicas_of(self, shard_id: ShardId) -> tuple[NodeId, ...]:
        return self._replicas.get(shard_id, ())

    def provenance_of(self, shard_id: ShardId) -> tuple[NodeId, ...]:
        return self._provenance.get(shard_id, ())

    def shards_owned_by(self, edge: NodeId) -> tuple[ShardId, ...]:
        return tuple(
            shard_id
            for shard_id, owner in sorted(self._owners.items())
            if owner == edge
        )

    def shards_replicated_by(self, edge: NodeId) -> tuple[ShardId, ...]:
        return tuple(
            shard_id
            for shard_id, members in sorted(self._replicas.items())
            if edge in members
        )

    def update(self, registry: KeyRegistry, message: ShardMapMessage) -> bool:
        """Apply a newer verified map; returns whether the view advanced.

        A map that fails signature verification, names the wrong cloud, or
        carries a version at or below the current one is rejected (equal
        versions are idempotent replays: rejected silently but not counted
        as suspicious).
        """

        if not verify_shard_map(registry, message, cloud=self.cloud):
            self.rejected += 1
            return False
        if message.statement.version <= self.version:
            if message.statement.version < self.version:
                self.rejected += 1
            return False
        self.message = message
        self._owners = {
            assignment.shard_id: assignment.owner
            for assignment in message.statement.assignments
        }
        self._replicas = {
            assignment.shard_id: assignment.replicas
            for assignment in message.statement.assignments
            if assignment.replicas
        }
        self._provenance = {
            assignment.shard_id: assignment.provenance
            for assignment in message.statement.assignments
            if assignment.provenance
        }
        return True


@dataclass
class FleetGossipView:
    """A client's combined gossip view over a whole sharded fleet.

    Wires shard-membership gossip into the existing per-edge
    :class:`~repro.core.gossip.GossipView` machinery: one log-size view per
    edge (omission-attack bounds, Section IV-E) plus the verified, monotone
    :class:`ShardMapView` (ownership).  Signature verification of log-size
    gossip stays with the caller (``verify_gossip``), exactly as for the
    single-edge client; shard maps are verified inside :class:`ShardMapView`.
    """

    cloud: NodeId
    shard_map: ShardMapView = field(init=False)
    edges: dict[NodeId, GossipView] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.shard_map = ShardMapView(cloud=self.cloud)

    def view_for(self, edge: NodeId) -> GossipView:
        view = self.edges.get(edge)
        if view is None:
            view = GossipView(edge=edge)
            self.edges[edge] = view
        return view

    def update_log_sizes(self, message: AnyGossipMessage) -> bool:
        """Apply (already signature-checked) log-size gossip to every edge
        view the message mentions; returns whether any view advanced."""

        statement = message.statement
        advanced = False
        if isinstance(statement, GossipBatchStatement):
            for entry in statement.entries:
                advanced = self.view_for(entry.edge).update(message) or advanced
            return advanced
        return self.view_for(statement.edge).update(message)

    def block_should_exist(self, edge: NodeId, block_id: int) -> bool:
        return self.view_for(edge).block_should_exist(block_id)
