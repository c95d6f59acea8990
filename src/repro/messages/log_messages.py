"""Messages of the WedgeChain logging protocol (Section IV).

Every message that a node acts upon carries the evidence the protocol needs:
add/put requests carry client-signed entries, responses carry the edge's
Phase I receipt, certification messages carry edge-signed digests, and block
proofs carry the cloud's signature.  ``wire_size`` properties let the
simulator charge realistic bandwidth without re-serializing payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.identifiers import BlockId, NodeId, OperationId, OperationKind
from ..crypto.signatures import Signature
from ..log.block import Block
from ..log.entry import LogEntry
from ..log.proofs import AnyBlockProof, BatchCertificate, PhaseOneReceipt


# ----------------------------------------------------------------------
# Appending (add / put share the same transport shape)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AppendBatchRequest:
    """A client-sent batch of entries to append (``add`` or ``put``)."""

    requester: NodeId
    operation_id: OperationId
    kind: OperationKind
    entries: tuple[LogEntry, ...]
    #: Shard the entries belong to (sharded fleets only; ``None`` for the
    #: paper's single-partition deployment, which keeps the wire identical).
    shard_id: Optional[int] = None

    @property
    def wire_size(self) -> int:
        size = 64 + sum(entry.wire_size for entry in self.entries)
        if self.shard_id is not None:
            size += 8
        return size


@dataclass(frozen=True)
class AppendBatchResponse:
    """The edge's signed acknowledgement: Phase I commitment evidence."""

    edge: NodeId
    operation_id: OperationId
    block_id: BlockId
    receipt: PhaseOneReceipt
    block: Optional[Block] = None

    @property
    def wire_size(self) -> int:
        size = 64 + self.receipt.wire_size
        if self.block is not None:
            size += self.block.wire_size
        return size


# ----------------------------------------------------------------------
# Certification (edge ↔ cloud): data-free, digests only
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CertifyStatement:
    """What the edge signs when asking the cloud to certify a block digest."""

    edge: NodeId
    block_id: BlockId
    block_digest: str
    num_entries: int


@dataclass(frozen=True)
class BlockCertifyRequest:
    """block-certify: edge → cloud, carrying only the digest (data-free)."""

    statement: CertifyStatement
    signature: Signature

    @property
    def block_digest(self) -> str:
        return self.statement.block_digest

    @property
    def wire_size(self) -> int:
        return 64 + 64 + 80


@dataclass(frozen=True)
class BlockProofMessage:
    """block-proof: cloud → edge → clients, certifying one block digest.

    Carries either the per-block signature form (:class:`BlockProof`) or
    the batch-anchored form (:class:`~repro.log.proofs.BatchedBlockProof`);
    receivers treat the two interchangeably.
    """

    proof: AnyBlockProof

    @property
    def wire_size(self) -> int:
        return self.proof.wire_size + 16


# ----------------------------------------------------------------------
# Batched certification (edge ↔ cloud): one signature per batch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CertifyBatchStatement:
    """What the edge signs when it ships a whole batch of digests at once."""

    edge: NodeId
    items: tuple[CertifyStatement, ...]


@dataclass(frozen=True)
class CertifyBatchRequest:
    """certify-batch: edge → cloud, N digests under one edge signature."""

    statement: CertifyBatchStatement
    signature: Signature

    @property
    def edge(self) -> NodeId:
        return self.statement.edge

    @property
    def items(self) -> tuple[CertifyStatement, ...]:
        return self.statement.items

    @property
    def wire_size(self) -> int:
        # One signature (64 bytes) amortized across every item; each item
        # costs what a single certify request's statement costs (80 bytes).
        return 64 + 64 + 80 * len(self.statement.items)


@dataclass(frozen=True)
class CertifyWindowStatement:
    """What the edge signs when a pipelined pump ships several batches at once.

    One uplink signature covers the whole in-flight window's worth of
    batches; the cloud still answers with one :class:`BatchCertificate`
    *per inner batch*, so window slots retire independently and a lost
    batch retries alone (as a plain :class:`CertifyBatchRequest`).  A
    single-batch dispatch never uses the envelope — ``certify_pipeline_depth
    = 1`` keeps the pre-pipeline wire format byte-exactly.
    """

    edge: NodeId
    batches: tuple[CertifyBatchStatement, ...]


@dataclass(frozen=True)
class CertifyWindowRequest:
    """certify-window: edge → cloud, a window of batches under one signature."""

    statement: CertifyWindowStatement
    signature: Signature

    @property
    def batches(self) -> tuple[CertifyBatchStatement, ...]:
        return self.statement.batches

    @property
    def num_blocks(self) -> int:
        return sum(len(batch.items) for batch in self.statement.batches)

    @property
    def wire_size(self) -> int:
        # One signature + header for the window; each inner batch costs a
        # small frame plus its items (same 80 bytes per item as a plain
        # batch request, minus the per-batch signature it no longer carries).
        return (
            64
            + 64
            + sum(16 + 80 * len(batch.items) for batch in self.statement.batches)
        )


@dataclass(frozen=True)
class BatchCertificateMessage:
    """batch-certificate: cloud → edge, one signed root for N blocks.

    ``blocks`` is the ordered ``(block id, digest)`` list the root was built
    over; the edge rebuilds the tree locally and derives each per-block
    :class:`~repro.log.proofs.BatchedBlockProof` itself, so the wire carries
    one signature plus 40 bytes per block instead of one signed proof each.
    """

    certificate: BatchCertificate
    blocks: tuple[tuple[BlockId, str], ...]

    @property
    def wire_size(self) -> int:
        return self.certificate.wire_size + 16 + 40 * len(self.blocks)


@dataclass(frozen=True)
class CertifyRejection:
    """The cloud's refusal to certify: the edge equivocated on a block id."""

    cloud: NodeId
    edge: NodeId
    block_id: BlockId
    existing_digest: str
    offending_digest: str
    reason: str

    @property
    def wire_size(self) -> int:
        return 208


@dataclass(frozen=True)
class DegradedModeNotice:
    """The edge's backpressure signal during a certification backlog.

    Sent when the uncertified Phase-I backlog crosses
    ``LoggingConfig.max_uncertified_backlog`` (``degraded=True``) and again
    when it drains back under half the threshold (``degraded=False``).
    Phase I service continues either way — the notice is advisory, telling
    clients their proofs will be late so they can throttle writes or widen
    dispute timers instead of flooding a cloud-partitioned edge.
    """

    edge: NodeId
    degraded: bool
    backlog: int
    limit: int

    @property
    def wire_size(self) -> int:
        return 64


# ----------------------------------------------------------------------
# Reading from the log
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReadRequest:
    """Client request to read one block by id."""

    requester: NodeId
    operation_id: OperationId
    block_id: BlockId

    @property
    def wire_size(self) -> int:
        return 80


@dataclass(frozen=True)
class ReadResponseStatement:
    """The signed portion of a read response (dispute evidence)."""

    edge: NodeId
    operation_id: OperationId
    block_id: BlockId
    found: bool
    block_digest: Optional[str]
    issued_at: float


@dataclass(frozen=True)
class ReadResponse:
    """The edge's response to a read: block, optional proof, signed statement."""

    statement: ReadResponseStatement
    signature: Signature
    block: Optional[Block] = None
    proof: Optional[AnyBlockProof] = None

    @property
    def wire_size(self) -> int:
        size = 64 + 96
        if self.block is not None:
            size += self.block.wire_size
        if self.proof is not None:
            size += self.proof.wire_size
        return size


# ----------------------------------------------------------------------
# Gossip (omission-attack mitigation, Section IV-E)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GossipStatement:
    """Signed (timestamp, log size) snapshot of one edge node's certified log."""

    cloud: NodeId
    edge: NodeId
    certified_log_size: int
    timestamp: float


@dataclass(frozen=True)
class GossipMessage:
    """Periodic cloud-signed gossip delivered to clients."""

    statement: GossipStatement
    signature: Signature

    @property
    def wire_size(self) -> int:
        return 160


@dataclass(frozen=True)
class GossipEntry:
    """One edge's certified log size inside a batched gossip statement."""

    edge: NodeId
    certified_log_size: int


@dataclass(frozen=True)
class GossipBatchStatement:
    """Signed multi-edge (timestamp, log sizes) snapshot: one signature per
    gossip interval instead of one per edge (Section IV-E, batched)."""

    cloud: NodeId
    timestamp: float
    entries: tuple[GossipEntry, ...]

    def size_for(self, edge: NodeId) -> Optional[int]:
        """Certified log size for *edge*, or ``None`` if absent."""

        for entry in self.entries:
            if entry.edge == edge:
                return entry.certified_log_size
        return None


@dataclass(frozen=True)
class GossipBatchMessage:
    """Periodic cloud-signed multi-edge gossip delivered to clients."""

    statement: GossipBatchStatement
    signature: Signature

    @property
    def wire_size(self) -> int:
        # One signature + header amortized over every edge entry.
        return 96 + 48 * len(self.statement.entries)


# ----------------------------------------------------------------------
# Disputes and punishment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DisputeRequest:
    """A client's accusation that an edge node lied, with evidence attached."""

    client: NodeId
    edge: NodeId
    block_id: BlockId
    kind: str
    receipt: Optional[PhaseOneReceipt] = None
    read_statement: Optional[ReadResponseStatement] = None
    read_signature: Optional[Signature] = None
    claimed_digest: Optional[str] = None

    @property
    def wire_size(self) -> int:
        return 256


@dataclass(frozen=True)
class DisputeVerdict:
    """The cloud's judgement on a dispute."""

    cloud: NodeId
    client: NodeId
    edge: NodeId
    block_id: BlockId
    edge_punished: bool
    reason: str
    certified_digest: Optional[str] = None
    proof: Optional[AnyBlockProof] = None

    @property
    def wire_size(self) -> int:
        size = 224
        if self.proof is not None:
            size += self.proof.wire_size
        return size
