"""Messages of the sharded-fleet protocol (``repro.sharding``).

Three exchanges live here:

* **Shard-membership gossip** — the cloud signs a versioned
  :class:`ShardMapStatement` assigning every shard to its owning edge.
  Clients and edges keep a verified, monotone view of it; a stale map can
  never overwrite a newer one.
* **Routing** — an edge that receives an operation for a shard it does not
  own answers with a signed :class:`NotOwnerRedirect` naming the owner it
  knows and attaching its latest signed shard map so the client can catch
  up and re-route.
* **Certified shard handoff** — rebalancing moves a shard between edges.
  The source edge signs the shard's certified log prefix plus a Merkle
  state digest (:class:`ShardHandoffStatement`), the cloud verifies it
  against its certified digests and digest mirror and countersigns a
  :class:`ShardHandoffCertificate`, and the destination edge verifies the
  transferred state against the certificate before serving.  A digest
  mismatch is raised as a :class:`ShardDispute`: the source's own signed
  transfer statement is the evidence that convicts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.identifiers import BlockId, NodeId, OperationId, ShardId
from ..crypto.signatures import Signature
from ..log.block import Block
from ..log.proofs import AnyBlockProof
from ..lsm.page import Page
from ..lsmerkle.mlsm import SignedGlobalRoot
from ..messages.kv_messages import GetResponseStatement


# ----------------------------------------------------------------------
# Shard map (membership) gossip
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardAssignment:
    """One shard's owner (and optional replica set) inside a signed map.

    ``replicas`` lists the read replicas receiving the writer's certified
    log by shipping; ``provenance`` lists prior writers whose certified
    blocks legitimately remain in the shard's state after failover
    promotions.  Both are empty in the unreplicated deployment, leaving the
    signed bytes of a ``replication_factor=1`` map exactly as before.
    """

    shard_id: ShardId
    owner: NodeId
    replicas: tuple[NodeId, ...] = ()
    provenance: tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class ShardMapStatement:
    """What the cloud signs when it publishes the fleet's shard ownership.

    ``version`` increases with every reassignment, so receivers keep a
    monotone view: a replayed or delayed older map can confirm but never
    regress what a client already knows.
    """

    cloud: NodeId
    version: int
    num_shards: int
    partitioner: str
    timestamp: float
    assignments: tuple[ShardAssignment, ...]


@dataclass(frozen=True)
class ShardMapMessage:
    """Cloud-signed shard map, gossiped to clients and pushed to edges."""

    statement: ShardMapStatement
    signature: Signature

    @property
    def wire_size(self) -> int:
        # One signature + header amortized over every assignment entry;
        # replica/provenance node ids add 32 bytes each (zero when the map
        # is unreplicated, preserving the historical size exactly).
        extra = sum(
            32 * (len(assignment.replicas) + len(assignment.provenance))
            for assignment in self.statement.assignments
        )
        return 96 + 48 * len(self.statement.assignments) + extra


# ----------------------------------------------------------------------
# Routing (misroute answered with a signed redirect)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NotOwnerStatement:
    """The signed portion of a redirect (evidence the edge declined to serve)."""

    edge: NodeId
    operation_id: OperationId
    shard_id: ShardId
    owner: Optional[NodeId]
    map_version: int
    issued_at: float


@dataclass(frozen=True)
class NotOwnerRedirect:
    """Signed refusal to serve a shard, with the owner the edge knows.

    ``shard_map`` carries the edge's latest cloud-signed map so a client
    holding a stale view can verify the new ownership and re-route without
    a round trip to the cloud.
    """

    statement: NotOwnerStatement
    signature: Signature
    shard_map: Optional[ShardMapMessage] = None

    @property
    def wire_size(self) -> int:
        size = 64 + 96
        if self.shard_map is not None:
            size += self.shard_map.wire_size
        return size


# ----------------------------------------------------------------------
# Certified shard handoff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardHandoffOrder:
    """Cloud → source edge: start migrating a shard to *dest*."""

    cloud: NodeId
    shard_id: ShardId
    source: NodeId
    dest: NodeId

    @property
    def wire_size(self) -> int:
        return 112


@dataclass(frozen=True)
class ShardHandoffStatement:
    """What the source edge signs when it offers a shard for handoff.

    ``blocks`` is the shard's certified log prefix — every certified
    ``(block id, digest)`` of the shard's log in id order; ``state_digest``
    commits to the shard's LSMerkle level roots chained with that prefix
    (see :func:`repro.sharding.handoff.shard_state_digest`).
    """

    edge: NodeId
    dest: NodeId
    shard_id: ShardId
    blocks: tuple[tuple[BlockId, str], ...]
    state_digest: str
    issued_at: float


@dataclass(frozen=True)
class ShardHandoffRequest:
    """handoff-offer: source edge → cloud, digests only (data-free)."""

    statement: ShardHandoffStatement
    signature: Signature

    @property
    def edge(self) -> NodeId:
        return self.statement.edge

    @property
    def shard_id(self) -> ShardId:
        return self.statement.shard_id

    @property
    def wire_size(self) -> int:
        return 64 + 128 + 104 * len(self.statement.blocks)


@dataclass(frozen=True)
class HandoffGrantStatement:
    """What the cloud countersigns when it approves a shard handoff."""

    cloud: NodeId
    source: NodeId
    dest: NodeId
    shard_id: ShardId
    map_version: int
    state_digest: str
    num_blocks: int
    issued_at: float


@dataclass(frozen=True)
class ShardHandoffCertificate:
    """The cloud's countersignature over one approved handoff."""

    statement: HandoffGrantStatement
    signature: Signature

    @property
    def cloud(self) -> NodeId:
        return self.statement.cloud

    @property
    def source(self) -> NodeId:
        return self.statement.source

    @property
    def dest(self) -> NodeId:
        return self.statement.dest

    @property
    def shard_id(self) -> ShardId:
        return self.statement.shard_id

    @property
    def state_digest(self) -> str:
        return self.statement.state_digest

    @property
    def wire_size(self) -> int:
        return 64 + 160

    def verify(self, registry) -> bool:
        """Check the certificate was signed by the cloud node it names."""

        if self.signature.signer != self.statement.cloud:
            return False
        return registry.verify(self.signature, self.statement)


@dataclass(frozen=True)
class ShardHandoffGrant:
    """Cloud → source edge: the countersigned handoff plus the new map.

    ``signed_root`` is the shard's global root re-signed for the
    destination edge (same level roots, fresh version), so the destination
    can serve verified gets immediately after installing the state.
    """

    certificate: ShardHandoffCertificate
    shard_map: ShardMapMessage
    signed_root: SignedGlobalRoot

    @property
    def wire_size(self) -> int:
        return (
            16
            + self.certificate.wire_size
            + self.shard_map.wire_size
            + self.signed_root.wire_size
        )


@dataclass(frozen=True)
class ShardHandoffRejection:
    """Cloud → source edge: the handoff offer failed verification."""

    cloud: NodeId
    edge: NodeId
    shard_id: ShardId
    reason: str

    @property
    def wire_size(self) -> int:
        return 160


@dataclass(frozen=True)
class ShardTransferStatement:
    """What the source signs over the state it actually ships to the dest.

    This is the statement that makes tampering provable: if the digests the
    source attests here disagree with the ``state_digest`` the cloud
    countersigned, the destination holds a source-signed lie it can present
    as dispute evidence.
    """

    source: NodeId
    dest: NodeId
    shard_id: ShardId
    map_version: int
    blocks: tuple[tuple[BlockId, str], ...]
    state_digest: str


@dataclass(frozen=True)
class ShardTransferMessage:
    """Source edge → destination edge: the shard's state, with evidence.

    ``level_pages`` carries the pages of every Merkle-tracked level as
    ``(level_index, pages)`` pairs; ``blocks``/``proofs`` are the certified
    log prefix for audit continuity (level 0 is drained into level 1 before
    the handoff, so no page state rides on the blocks themselves).
    """

    statement: ShardTransferStatement
    signature: Signature
    certificate: ShardHandoffCertificate
    blocks: tuple[Block, ...]
    proofs: tuple[AnyBlockProof, ...]
    level_pages: tuple[tuple[int, tuple[Page, ...]], ...]
    signed_root: SignedGlobalRoot

    @property
    def wire_size(self) -> int:
        size = 64 + 128 + self.certificate.wire_size + self.signed_root.wire_size
        size += sum(block.wire_size for block in self.blocks)
        size += sum(proof.wire_size for proof in self.proofs)
        size += sum(
            page.wire_size for _, pages in self.level_pages for page in pages
        )
        return size


@dataclass(frozen=True)
class ShardInstallAck:
    """Destination edge → cloud: the shard is installed and serving."""

    dest: NodeId
    shard_id: ShardId
    state_digest: str

    @property
    def wire_size(self) -> int:
        return 144


# ----------------------------------------------------------------------
# Shard replication: leases, certified log shipping, failover promotion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaLeaseStatement:
    """What the cloud signs when it leases serving rights on a shard.

    A node (writer or read replica) of a replicated shard may only answer
    clients while ``expires_at`` has not passed.  The lease is the offline
    authority chain for replica reads: a replica attaches its current lease
    to every response, and serving without a covering lease is convictable
    via :func:`repro.sharding.judges.judge_stale_replica_dispute`.
    """

    cloud: NodeId
    replica: NodeId
    shard_id: ShardId
    map_version: int
    issued_at: float
    expires_at: float


@dataclass(frozen=True)
class ReplicaLease:
    """Cloud-signed serving lease for one node on one replicated shard."""

    statement: ReplicaLeaseStatement
    signature: Signature

    @property
    def replica(self) -> NodeId:
        return self.statement.replica

    @property
    def shard_id(self) -> ShardId:
        return self.statement.shard_id

    @property
    def expires_at(self) -> float:
        return self.statement.expires_at

    @property
    def wire_size(self) -> int:
        return 64 + 112

    def verify(self, registry) -> bool:
        """Check the lease was signed by the cloud node it names."""

        if self.signature.signer != self.statement.cloud:
            return False
        return registry.verify(self.signature, self.statement)


@dataclass(frozen=True)
class ReplicaLogShipment:
    """Writer → replica: the certified log suffix past the replica's ack.

    Nothing here is newly signed — every block rides with its cloud
    certificate, and the index state rides as the writer's latest
    cloud-signed root plus the pages beneath it, so the replica installs
    only what it can verify against cloud signatures it already trusts.
    ``level_zero_ids`` is the writer's full current level-0 block order
    (install order matters for root recomputation).
    """

    writer: NodeId
    replica: NodeId
    shard_id: ShardId
    blocks: tuple[Block, ...]
    proofs: tuple[AnyBlockProof, ...]
    level_zero_ids: tuple[BlockId, ...]
    level_pages: tuple[tuple[int, tuple[Page, ...]], ...]
    signed_root: Optional[SignedGlobalRoot]
    certified_count: int

    @property
    def wire_size(self) -> int:
        size = 112 + 8 * len(self.level_zero_ids)
        size += sum(block.wire_size for block in self.blocks)
        size += sum(proof.wire_size for proof in self.proofs)
        size += sum(
            page.wire_size for _, pages in self.level_pages for page in pages
        )
        if self.signed_root is not None:
            size += self.signed_root.wire_size
        return size


@dataclass(frozen=True)
class ReplicaShipmentAck:
    """Replica → writer and cloud: certified prefix installed up to here.

    ``watermark`` counts the certified records the replica holds; the cloud
    uses the per-replica watermarks to pick the freshest replica when the
    writer is lost.
    """

    replica: NodeId
    shard_id: ShardId
    watermark: int
    root_version: int

    @property
    def wire_size(self) -> int:
        return 144


@dataclass(frozen=True)
class WriterHeartbeat:
    """Writer → cloud: liveness beacon for its replicated shards.

    ``shards`` pairs each owned replicated shard with the writer's
    certified-record count, letting the cloud track shipping progress and
    detect a lost writer without any new signatures.
    """

    edge: NodeId
    shards: tuple[tuple[ShardId, int], ...]

    @property
    def wire_size(self) -> int:
        return 48 + 16 * len(self.shards)


@dataclass(frozen=True)
class ShardQuarantineNotice:
    """Edge → cloud: durable recovery quarantined one of my shards.

    For a replicated shard this turns PR 7's quarantine dead-end into a
    failover trigger: the quarantined partition refuses all service (so no
    lease wait is needed) and the cloud can promote a replica immediately.
    """

    edge: NodeId
    shard_id: ShardId
    reason: str

    @property
    def wire_size(self) -> int:
        return 160


@dataclass(frozen=True)
class ReplicaPromotionOrder:
    """Cloud → replica: offer your installed state for promotion."""

    cloud: NodeId
    shard_id: ShardId
    source: NodeId
    dest: NodeId

    @property
    def wire_size(self) -> int:
        return 112


@dataclass(frozen=True)
class ReplicaPromotionOffer:
    """Promotion offer: replica → cloud, digests only (data-free).

    Reuses the handoff offer statement — the replica signs the certified
    ``(block id, digest)`` prefix it installed plus the state digest, with
    itself as ``dest``.  ``level_page_digests`` and ``signed_root`` let the
    cloud rebuild its digest mirror at exactly the replica's installed
    version (which may trail the deposed writer's last merge; the
    difference is re-mergeable log suffix, never lost data).
    """

    statement: ShardHandoffStatement
    signature: Signature
    level_page_digests: tuple[tuple[int, tuple[str, ...]], ...]
    signed_root: Optional[SignedGlobalRoot]
    watermark: int

    @property
    def shard_id(self) -> ShardId:
        return self.statement.shard_id

    @property
    def wire_size(self) -> int:
        size = 64 + 128 + 104 * len(self.statement.blocks)
        size += sum(32 * len(digests) for _, digests in self.level_page_digests)
        if self.signed_root is not None:
            size += self.signed_root.wire_size
        return size


@dataclass(frozen=True)
class ReplicaPromotionGrant:
    """Cloud → promoted replica: countersigned promotion plus the new map.

    ``signed_root`` is the shard's root re-signed for the promoted replica
    at its installed level roots (``None`` when the shard had never merged,
    exactly like a fresh shard before its first merge).
    """

    certificate: ShardHandoffCertificate
    shard_map: ShardMapMessage
    signed_root: Optional[SignedGlobalRoot]

    @property
    def wire_size(self) -> int:
        size = 16 + self.certificate.wire_size + self.shard_map.wire_size
        if self.signed_root is not None:
            size += self.signed_root.wire_size
        return size


# ----------------------------------------------------------------------
# Shard disputes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardDispute:
    """An accusation about shard misbehaviour, with signed evidence.

    Kinds:

    * ``handoff-digest-mismatch`` — the destination presents the source's
      signed :class:`ShardTransferStatement`; the cloud convicts when its
      ``state_digest`` differs from the one it countersigned.
    * ``stale-owner-serve`` — a client presents an edge-signed
      :class:`~repro.messages.kv_messages.GetResponseStatement` issued
      after the edge lost the shard; the cloud convicts from its ownership
      history.
    * ``stale-replica-serve`` — a client presents a replica-signed
      :class:`~repro.messages.kv_messages.GetResponseStatement` together
      with whatever lease the replica attached (``lease``, possibly
      ``None``); the cloud convicts unless the lease covers the statement's
      ``issued_at`` (see
      :func:`repro.sharding.judges.judge_stale_replica_dispute`).
    """

    reporter: NodeId
    accused: NodeId
    shard_id: ShardId
    kind: str
    transfer_statement: Optional[ShardTransferStatement] = None
    transfer_signature: Optional[Signature] = None
    serve_statement: Optional[GetResponseStatement] = None
    serve_signature: Optional[Signature] = None
    lease: Optional[ReplicaLease] = None

    @property
    def wire_size(self) -> int:
        size = 288
        if self.lease is not None:
            size += self.lease.wire_size
        return size


@dataclass(frozen=True)
class ShardDisputeVerdict:
    """The cloud's judgement on a shard dispute."""

    cloud: NodeId
    reporter: NodeId
    accused: NodeId
    shard_id: ShardId
    punished: bool
    reason: str

    @property
    def wire_size(self) -> int:
        return 224
