"""The shard-aware edge node: one partition of state per owned shard.

A :class:`ShardedEdgeNode` serves several key-space shards at once, each
with its own :class:`~repro.nodes.edge.PartitionState` (log, buffer,
certifier, LSMerkle index, merge bookkeeping).  Block ids stay unique per
*edge* (the invariant the cloud's certified-digest map relies on) through a
shared edge-wide allocator; a side table remembers which shard each block
belongs to so proofs, certificates, and merge outcomes route back to the
right partition.

Dispatch is the parent's: ``ShardedEdgeNode.HANDLERS`` extends
``EdgeNode.HANDLERS`` and :meth:`EdgeNode.on_message` stays the only
dispatcher.  The parent's rows are *re-routed* — each names the
``_route_*`` method that resolves its message to a shard's partition (by
key, by the block side table, or by the message's shard field) — and the
fleet's own protocols (shard map, handoff, replica shipping and leases,
failover, verdicts) are added as node-level rows that run against no
partition; the 2PC participant (:mod:`repro.sharding.participant`, listed as
a base) contributes its prepare and decision rows the same way.  A route
returning ``None`` ends dispatch: requests for shards the edge does not own
are answered with a signed ``NotOwnerRedirect`` carrying the edge's latest
cloud-signed shard map, and requests it cannot serve *yet* are parked and
later replayed through ``on_message``.

Rebalancing runs the certified handoff protocol of
:mod:`repro.sharding.handoff`: drain, offer (digests only), cloud
countersign, transfer, destination-side verification — with a shard dispute
raised when the transferred bytes contradict the countersigned state digest.
The adversaries that exercise the detection paths override this node's
handlers and hooks from :mod:`repro.sharding.malicious`.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..common.config import SystemConfig
from ..common.identifiers import (
    BlockId,
    NodeId,
    OperationId,
    SequenceGenerator,
    ShardId,
)
from ..common.regions import Region
from ..log.block import Block
from ..log.wedge_log import LogRecord, WedgeLog
from ..lsmerkle.mlsm import MerkleizedLSM
from ..lsmerkle.codec import (
    decode_put,
    forget_records,
    is_put_payload,
    malformed_put,
    page_from_block,
)
from ..messages.kv_messages import (
    GetRequest,
    MergeRejection,
    MergeResponse,
    RootRefreshResponse,
)
from ..messages.log_messages import (
    AppendBatchRequest,
    BatchCertificateMessage,
    BlockProofMessage,
    CertifyRejection,
    ReadRequest,
)
from ..messages.txn_messages import (
    TxnDecisionMessage,
    TxnDisputeVerdict,
    TxnPrepareRequest,
)
from ..messages.shard_messages import (
    NotOwnerRedirect,
    NotOwnerStatement,
    ReplicaLease,
    ReplicaLogShipment,
    ReplicaPromotionGrant,
    ReplicaPromotionOffer,
    ReplicaPromotionOrder,
    ReplicaShipmentAck,
    ShardDispute,
    ShardDisputeVerdict,
    ShardHandoffCertificate,
    ShardHandoffGrant,
    ShardHandoffOrder,
    ShardHandoffRejection,
    ShardHandoffRequest,
    ShardHandoffStatement,
    ShardInstallAck,
    ShardMapMessage,
    ShardQuarantineNotice,
    ShardTransferMessage,
    ShardTransferStatement,
    WriterHeartbeat,
)
from ..common.errors import StorageError
from ..crypto.signatures import Signature
from ..faults.retry import Retransmission, RetryPolicy
from ..nodes.edge import EdgeNode, PartitionState
from ..sim.environment import Environment
from .handoff import (
    level_roots_from_pages,
    seed_partition_store,
    shard_state_digest,
    shipped_state_is_certified,
)
from .participant import TxnParticipantRole, TxnPartitionState
from .partitioner import KeyPartitioner
from .shard_map import ShardMapView


def _block_digests(blocks: Iterable[Block]) -> tuple[tuple[BlockId, str], ...]:
    """The ``(block id, digest)`` listing handoff statements sign over."""

    return tuple((block.block_id, block.digest()) for block in blocks)


def _merged_level_pages(state: PartitionState) -> tuple:
    """``(level index, pages)`` of every non-empty merged level (1 and up)."""

    return tuple(
        (level.index, tuple(level.pages))
        for level in state.index.tree.levels[1:]
        if level.pages
    )


class ShardedEdgeNode(TxnParticipantRole, EdgeNode):
    """An honest edge node serving one ``PartitionState`` per owned shard."""

    PARTITION_STATE = TxnPartitionState

    #: Retransmission schedule for lost handoff offers and state transfers.
    #: Both messages carry (or lead to) idempotently-handled state — the
    #: cloud re-issues a stored grant for a duplicate offer and the dest
    #: re-acks a duplicate transfer — so blind retries are safe.
    HANDOFF_RETRY_POLICY = RetryPolicy(base_s=1.0, factor=2.0, cap_s=8.0, max_attempts=4)

    #: The parent's rows re-routed per shard, plus the fleet's node-level
    #: rows (no partition, so no quarantine gate; their handlers take
    #: ``(sender, message)`` and look up any partition they touch).
    HANDLERS = EdgeNode.HANDLERS.extended(
        {
            # The 2PC participant (``participant.py``).  One decision may
            # cover several shards this edge owns, so its handler fans out
            # over every owned participant partition itself.  Decisions
            # bypass the serving resolution on purpose — a shard mid-handoff
            # must still resolve its staged prepares: the drain waits on it.
            TxnPrepareRequest: "_handle_txn_prepare",
            TxnDecisionMessage: "_handle_txn_decision",
            ShardMapMessage: "_handle_shard_map",
            ShardHandoffOrder: "_handle_handoff_order",
            ShardHandoffGrant: "_handle_handoff_grant",
            ShardHandoffRejection: "_handle_handoff_rejection",
            ShardTransferMessage: "_handle_shard_transfer",
            ShardInstallAck: "_handle_install_ack_from_dest",
            ReplicaLease: "_handle_replica_lease",
            ReplicaLogShipment: "_handle_replica_shipment",
            ReplicaShipmentAck: "_handle_replica_shipment_ack",
            ReplicaPromotionOrder: "_handle_promotion_order",
            ReplicaPromotionGrant: "_handle_promotion_grant",
            ShardDisputeVerdict: "_handle_shard_verdict",
            TxnDisputeVerdict: "_handle_txn_verdict",
        },
        routes={
            AppendBatchRequest: "_route_append",
            GetRequest: "_route_get",
            TxnPrepareRequest: "_route_txn_prepare",
            ReadRequest: "_route_read",
            BlockProofMessage: "_route_block_proof",
            CertifyRejection: "_route_certify_rejection",
            BatchCertificateMessage: "_route_batch_certificate",
            MergeResponse: "_route_merge_response",
            MergeRejection: "_route_shard_field",
            RootRefreshResponse: "_route_shard_field",
        },
    )

    def __init__(
        self,
        env: Environment,
        cloud: NodeId,
        config: Optional[SystemConfig] = None,
        name: str = "edge-0",
        region: Optional[Region] = None,
        partitioner: Optional[KeyPartitioner] = None,
    ) -> None:
        super().__init__(env=env, cloud=cloud, config=config, name=name, region=region)
        if partitioner is None:
            raise ValueError("ShardedEdgeNode requires a partitioner")
        self.partitioner = partitioner
        self.map_view = ShardMapView(cloud=cloud)
        #: Live partition state of every currently-owned shard.
        self._shard_states: dict[ShardId, PartitionState] = {}
        #: Which shard each locally formed block belongs to.
        self._block_shards: dict[BlockId, ShardId] = {}
        #: Edge-wide block id allocator: ids must stay unique per edge even
        #: though every shard keeps its own log.
        self._next_block_id: BlockId = 0
        #: Shards mid-handoff (drain started, grant not yet processed),
        #: mapped to their destination edge.
        self._migrating: dict[ShardId, NodeId] = {}
        #: Handed-off blocks kept for log reads (they remain certified under
        #: this edge's name, so denying them would look like an omission).
        self._archived_records: dict[BlockId, LogRecord] = {}
        #: Blocks adopted through handoffs, keyed by (source edge, block id)
        #: — an audit archive; their ids live in the source's id space.
        self._imported_blocks: dict[tuple[NodeId, BlockId], tuple[Any, Any]] = {}
        #: Requests this edge cannot serve *yet* but will be able to resolve
        #: shortly: for a shard mid-migration they are replayed after the
        #: grant (turning into truthful redirects under the new map), and
        #: for an owned-but-not-installed shard after the state transfer.
        self._parked_requests: dict[ShardId, list[tuple[NodeId, Any]]] = {}
        #: Entries logged per shard (drives the fleet's rebalance trigger).
        self.shard_entry_counts: dict[ShardId, int] = {}
        #: Shard-dispute verdicts delivered to this edge.
        self.shard_verdicts: list[ShardDisputeVerdict] = []
        #: Transaction-dispute verdicts delivered to this edge (as accused).
        self.txn_verdicts: list[TxnDisputeVerdict] = []
        #: Sequence numbers for edge-produced transaction decision records.
        self._txn_record_seq = SequenceGenerator()
        #: Handoff retransmission chains, keyed (kind, shard id) with
        #: ``kind`` in {"offer", "transfer"}.  Volatile: a crash drops them
        #: (the peer's own retry or the cloud's re-order recovers).
        self._handoff_retries: dict[tuple[str, ShardId], Retransmission] = {}
        #: Handoffs this edge already refused, keyed by the countersigned
        #: certificate ``(source, shard id, state digest)``: one certificate
        #: gets one trial, so a retransmitted or re-signed transfer under a
        #: refused certificate is dropped without re-judging it — and
        #: crucially without filing a duplicate dispute per redelivery.
        self._refused_transfers: set[tuple[NodeId, ShardId, str]] = set()
        #: Outgoing state transfers awaiting the destination's install ack,
        #: kept verbatim for retransmission: the source deletes its live
        #: partition when it ships the transfer, so a lost transfer would
        #: otherwise wedge the shard (neither side could serve it).
        self._outgoing_transfers: dict[ShardId, tuple[ShardTransferMessage, NodeId]] = {}
        #: Handoff-drain span contexts by shard id (observability only):
        #: offer and transfer spans link back to the drain that started them.
        self._obs_handoff: dict[ShardId, Any] = {}
        #: Read-replica mirrors of shards this edge replicates but does not
        #: own.  Deliberately *excluded* from ``_partition_states()``: a
        #: mirror is a verified copy of another edge's certified log, not
        #: this edge's own serving state, so invariant sweeps, crash wipes,
        #: and certification scans must not treat it as such.
        self._replica_states: dict[ShardId, PartitionState] = {}
        #: Cloud-signed serving leases this node holds, by shard — as the
        #: shard's writer (gate on client-facing ops) or as one of its read
        #: replicas (attached to every get response it serves).
        self._shard_leases: dict[ShardId, ReplicaLease] = {}
        #: Writer-side shipping bookkeeping: highest block id each replica
        #: has acknowledged, keyed ``(shard id, replica)``; ``-1`` = nothing.
        self._replica_watermarks: dict[tuple[ShardId, NodeId], BlockId] = {}
        #: Stopper of the periodic log-shipping tick.  ``None`` until this
        #: edge owns a replicated shard — a ``replication_factor=1`` fleet
        #: never starts the timer, keeping the default byte-identical.
        self._replication_stopper: Optional[Any] = None

        self.stats.update(
            {
                "shard_redirects": 0,
                "shard_handoffs_offered": 0,
                "shard_handoffs_out": 0,
                "shard_handoffs_in": 0,
                "shard_handoff_rejections": 0,
                "shard_transfer_invalid": 0,
                "shard_disputes_sent": 0,
                "shard_map_updates": 0,
                "shard_offer_retries": 0,
                "shard_transfer_retries": 0,
                "shard_transfer_acks": 0,
                "replica_shipments_sent": 0,
                "replica_shipments_installed": 0,
                "replica_shipments_rejected": 0,
                "replica_reads": 0,
                "replica_lease_updates": 0,
                "writer_lease_waits": 0,
                "shard_depositions": 0,
                "shard_promotions": 0,
                "promotion_offers": 0,
                "shard_quarantine_notices": 0,
            }
        )

    # ------------------------------------------------------------------
    # Shard map handling
    # ------------------------------------------------------------------
    def adopt_shard_map(self, message: ShardMapMessage) -> None:
        """Install the initial cloud-signed shard map (fleet construction).

        Creates an empty partition for every shard this edge owns.  Later
        map versions arrive as messages and never create state directly —
        new ownership always comes with a certified state transfer.
        """

        if not self.map_view.update(self.env.registry, message):
            return
        self.stats["shard_map_updates"] += 1
        for shard_id in self.map_view.shards_owned_by(self.node_id):
            if shard_id not in self._shard_states:
                self._shard_states[shard_id] = self._new_partition(shard_id)
        self._reconcile_with_map()

    def owned_shards(self) -> tuple[ShardId, ...]:
        return tuple(sorted(self._shard_states))

    def shard_state(self, shard_id: ShardId) -> Optional[PartitionState]:
        return self._shard_states.get(shard_id)

    def _handle_shard_map(self, sender: NodeId, message: ShardMapMessage) -> None:
        if self.map_view.update(self.env.registry, message):
            self.stats["shard_map_updates"] += 1
            self._reconcile_with_map()

    def _reconcile_with_map(self) -> None:
        """Align local serving state with a freshly adopted shard map.

        All three concerns are replication-only (an unreplicated fleet's
        map never moves ownership outside the handoff flow, which retires
        its own state):

        * a shard this edge serves but the map now assigns elsewhere is
          *deposed* state — a failover promoted a replica while this
          writer was crashed or partitioned.  The honest reaction is to
          stop serving immediately: archive the blocks (they stay
          certified under this edge's name, so log reads must keep
          resolving) and drop the partition.  Shards mid-handoff are
          skipped — the grant/transfer flow retires those itself.
        * a shard the map names this edge a replica of gets a mirror
          partition, filled by the writer's certified log shipments;
        * a mirror this edge no longer replicates is dropped — unless the
          map promoted *this* edge, in which case the promotion grant is
          about to convert the mirror into the serving partition.
        """

        for shard_id in sorted(self._shard_states):
            if self.map_view.owner_of(shard_id) == self.node_id:
                continue
            if shard_id in self._migrating or shard_id in self._outgoing_transfers:
                continue
            self._retire_deposed_state(shard_id)
        replicated = set(self.map_view.shards_replicated_by(self.node_id))
        for shard_id in sorted(replicated):
            writer = self.map_view.owner_of(shard_id)
            if writer == self.node_id or writer is None:
                continue
            state = self._replica_states.get(shard_id)
            if state is not None and state.owner != writer:
                # The shard failed over to a *different* replica: re-key
                # the mirror to the promoted writer but keep the certified
                # blocks already installed — they remain valid under the
                # shard's provenance chain, and serving them bridges the
                # gap until the new writer's first shipment lands (which
                # replaces the index snapshot wholesale anyway).
                fresh = self._new_replica_state(shard_id, writer)
                for record in state.log:
                    fresh.log.adopt(record.block, record.proof)
                fresh.index = state.index
                fresh.level_zero_blocks = state.level_zero_blocks
                fresh.signed_root = state.signed_root
                self._replica_states[shard_id] = fresh
                state = fresh
            if state is None:
                self._replica_states[shard_id] = self._new_replica_state(
                    shard_id, writer
                )
        for shard_id in sorted(self._replica_states):
            if shard_id in replicated:
                continue
            if self.map_view.owner_of(shard_id) == self.node_id:
                continue  # promotion in flight: the grant consumes the mirror
            del self._replica_states[shard_id]
            self._shard_leases.pop(shard_id, None)
        self._maybe_start_replication()

    def _retire_partition(self, shard_id: ShardId) -> None:
        """Stop serving *shard_id*: archive its blocks and drop the partition.

        The blocks stay certified under this edge's name, so log reads must
        keep resolving (denying them would look like an omission).  The
        durable state now lives with the shard's next writer: retire this
        incarnation's store so a later re-adoption starts from a fresh
        certified transfer, never from stale segments.  Certificates for
        the partition's blocks are dropped as strays from here on, so its
        certify retry chains end with it (a deposed writer may still hold
        unanswered requests).
        """

        state = self._shard_states.pop(shard_id)
        state.certifier.reset_window()
        for record in state.log:
            self._archived_records[record.block.block_id] = record
        if state.store is not None:
            state.store.retire()

    def _retire_deposed_state(self, shard_id: ShardId) -> None:
        self._retire_partition(shard_id)
        self._shard_leases.pop(shard_id, None)
        for key in [k for k in self._replica_watermarks if k[0] == shard_id]:
            del self._replica_watermarks[key]
        self.stats["shard_depositions"] += 1
        # Requests parked behind the writer's lease gate now resolve to
        # truthful signed redirects under the new map.
        self._replay_parked(shard_id)

    def _new_replica_state(self, shard_id: ShardId, writer: NodeId) -> PartitionState:
        # Constructed directly rather than via ``_new_partition``: a mirror
        # is volatile by design (no durable store — it rebuilds from the
        # writer's shipping stream) and its log holds the *writer's* blocks,
        # extended by the shard's provenance chain after failovers.
        state = PartitionState(
            owner=writer, config=self.config, shard_id=shard_id
        )
        state.log = WedgeLog(
            writer, co_owners=self.map_view.provenance_of(shard_id)
        )
        return state

    # ------------------------------------------------------------------
    # Message dispatch / partition resolution
    # ------------------------------------------------------------------
    def _partition_states(self):
        return (self._default_partition, *self._shard_states.values())

    def _shard_of_append(self, request: AppendBatchRequest) -> Optional[ShardId]:
        if request.shard_id is not None:
            return request.shard_id
        for entry in request.entries:
            # A malformed put routes nowhere; ``_handle_append`` refuses it.
            if is_put_payload(entry.payload) and not malformed_put(entry.payload):
                key, _ = decode_put(entry.payload)
                return self.partitioner.shard_of(key)
        # Pure logging batches (no keys) stay on the default partition.
        return None

    # Routes: which partition a routed row's message concerns.  ``None``
    # ends dispatch — the request was answered with a redirect or parked
    # during resolution, or it is a stray for a shard handed off since.
    def _route_append(
        self, sender: NodeId, message: AppendBatchRequest
    ) -> Optional[PartitionState]:
        shard_id = self._shard_of_append(message)
        if shard_id is None:
            return self._default_partition
        return self._resolve_serving(sender, message, shard_id, message.operation_id)

    def _route_get(
        self, sender: NodeId, message: GetRequest
    ) -> Optional[PartitionState]:
        shard_id = self.partitioner.shard_of(message.key)
        return self._resolve_serving(sender, message, shard_id, message.operation_id)

    def _route_txn_prepare(
        self, sender: NodeId, message: TxnPrepareRequest
    ) -> Optional[PartitionState]:
        # Prepares resolve like client writes: redirect when this edge is
        # not the owner, park mid-migration (after the grant the replay
        # becomes a truthful redirect under the new map).
        return self._resolve_serving(
            sender, message, message.shard_id, message.operation_id
        )

    def _route_read(self, sender: NodeId, message: ReadRequest) -> PartitionState:
        shard_id = self._block_shards.get(message.block_id)
        state = self._shard_states.get(shard_id) if shard_id is not None else None
        # Unknown and archived blocks are answered from the default
        # partition; ``_read_record`` falls back to the archive.
        return state if state is not None else self._default_partition

    def _route_block_proof(
        self, sender: NodeId, message: BlockProofMessage
    ) -> Optional[PartitionState]:
        return self._partition_for_block(message.proof.block_id)

    def _route_certify_rejection(
        self, sender: NodeId, message: CertifyRejection
    ) -> Optional[PartitionState]:
        return self._partition_for_block(message.block_id)

    def _route_batch_certificate(
        self, sender: NodeId, message: BatchCertificateMessage
    ) -> Optional[PartitionState]:
        if not message.blocks:
            return None
        return self._partition_for_block(message.blocks[0][0])

    def _route_merge_response(
        self, sender: NodeId, message: MergeResponse
    ) -> Optional[PartitionState]:
        return self._partition_for_shard_field(message.outcome.shard_id)

    def _route_shard_field(
        self, sender: NodeId, message: "MergeRejection | RootRefreshResponse"
    ) -> Optional[PartitionState]:
        return self._partition_for_shard_field(message.shard_id)

    def _partition_for_block(self, block_id: BlockId) -> Optional[PartitionState]:
        shard_id = self._block_shards.get(block_id)
        if shard_id is None:
            return self._default_partition
        return self._shard_states.get(shard_id)  # None drops post-handoff strays

    def _partition_for_shard_field(
        self, shard_id: Optional[ShardId]
    ) -> Optional[PartitionState]:
        if shard_id is None:
            return self._default_partition
        return self._shard_states.get(shard_id)

    def _resolve_serving(
        self,
        sender: NodeId,
        message: Any,
        shard_id: ShardId,
        operation_id: OperationId,
    ) -> Optional[PartitionState]:
        """Partition for a client request, or ``None`` after a redirect/queue."""

        owner = self.map_view.owner_of(shard_id)
        if owner == self.node_id:
            if shard_id in self._migrating:
                # Mid-drain nobody can serve the shard truthfully (the map
                # still names this edge, the destination has no state):
                # park the request until the grant republishes the map.
                return self._park(shard_id, sender, message)
            state = self._shard_states.get(shard_id)
            if state is None:
                # Owned per the map but the certified transfer has not
                # arrived: park and replay once the shard is installed.
                return self._park(shard_id, sender, message)
            if self.map_view.replicas_of(shard_id) and not self._writer_lease_valid(
                shard_id
            ):
                # Replicated shards serve under a cloud-signed lease.  An
                # honest writer that lost contact with the cloud parks here
                # instead of serving past the lease the failover path waits
                # out — which is exactly what makes promotion safe without
                # any new signatures: by the time the cloud promotes a
                # replica, an honest deposed writer has provably stopped.
                self.stats["writer_lease_waits"] += 1
                return self._park(shard_id, sender, message)
            return state
        if isinstance(message, GetRequest) and shard_id in self._replica_states:
            lease = self._shard_leases.get(shard_id)
            if self._replica_lease_valid(lease, self.env.now()):
                # A read replica answers under its serving lease, which it
                # attaches to the signed response: a client can check the
                # lease covered ``issued_at`` and convict a replica serving
                # past it (``stale-replica-serve``).
                self.stats["replica_reads"] += 1
                return self._replica_states[shard_id]
        self._send_not_owner_redirect(sender, operation_id, shard_id)
        return None

    def _park(self, shard_id: ShardId, sender: NodeId, message: Any) -> None:
        """Hold a request this edge cannot serve *yet*; ends its dispatch."""

        self._parked_requests.setdefault(shard_id, []).append((sender, message))

    def _replay_parked(self, shard_id: ShardId) -> None:
        """Re-enter every request parked behind *shard_id*, in arrival order."""

        for sender, message in self._parked_requests.pop(shard_id, []):
            self.on_message(sender, message)

    def _writer_lease_valid(self, shard_id: ShardId) -> bool:
        lease = self._shard_leases.get(shard_id)
        return lease is not None and lease.expires_at >= self.env.now()

    def _replica_lease_valid(
        self, lease: Optional[ReplicaLease], now: float
    ) -> bool:
        return lease is not None and lease.expires_at >= now

    def _response_lease(self, state: PartitionState) -> Optional[ReplicaLease]:
        # A mirror is only routed to after ``_resolve_serving`` checked its
        # lease, in this same handler turn.
        if self._replica_states.get(state.shard_id) is state:
            return self._shard_leases.get(state.shard_id)
        return None

    def _send_not_owner_redirect(
        self, sender: NodeId, operation_id: OperationId, shard_id: ShardId
    ) -> None:
        params = self.env.params
        self.env.charge(params.request_overhead_seconds + params.sign_seconds)
        owner = self.map_view.owner_of(shard_id)
        if shard_id in self._migrating:
            owner = self._migrating[shard_id]
        statement = NotOwnerStatement(
            edge=self.node_id,
            operation_id=operation_id,
            shard_id=shard_id,
            owner=owner,
            map_version=self.map_view.version,
            issued_at=self.env.now(),
        )
        self.stats["shard_redirects"] += 1
        self.env.send(
            self.node_id,
            sender,
            NotOwnerRedirect(
                statement=statement,
                signature=self.env.registry.sign(self.node_id, statement),
                shard_map=self.map_view.message,
            ),
        )

    def _handle_shard_verdict(
        self, sender: NodeId, verdict: ShardDisputeVerdict
    ) -> None:
        self.shard_verdicts.append(verdict)

    # ------------------------------------------------------------------
    # Block bookkeeping
    # ------------------------------------------------------------------
    def _allocate_block_id(self, state: PartitionState) -> BlockId:
        block_id = self._next_block_id
        self._next_block_id += 1
        shard_id = state.shard_id
        if shard_id is not None:
            self._block_shards[block_id] = shard_id
            self.shard_entry_counts.setdefault(shard_id, 0)
        return block_id

    def _form_block(self, state: PartitionState, batch) -> None:
        super()._form_block(state, batch)
        shard_id = state.shard_id
        if shard_id is not None:
            self.shard_entry_counts[shard_id] = self.shard_entry_counts.get(
                shard_id, 0
            ) + len(batch.entries)
            if self._metrics is not None:
                self._metrics.gauge("shard_entries", shard=str(shard_id)).set(
                    self.shard_entry_counts[shard_id]
                )

    def _read_record(self, state: PartitionState, block_id: BlockId):
        record = super()._read_record(state, block_id)
        if record is None:
            record = self._archived_records.get(block_id)
        return record

    # ------------------------------------------------------------------
    # Handoff retransmission timers
    # ------------------------------------------------------------------
    def _arm_handoff_retry(self, kind: str, shard_id: ShardId, resend) -> None:
        """Start the retransmission chain of a lossy handoff step.

        ``resend`` re-ships the message and returns whether to keep going;
        exhausting the policy leaves the shard for operator/cloud-driven
        recovery.  A chain already armed for the step is superseded.
        """

        self._cancel_handoff_retry(kind, shard_id)
        self._handoff_retries[(kind, shard_id)] = Retransmission(
            self.env.schedule,
            self.HANDOFF_RETRY_POLICY,
            resend,
            label=f"{self.node_id}:handoff-{kind}-retry",
        )

    def _cancel_handoff_retry(self, kind: str, shard_id: ShardId) -> None:
        chain = self._handoff_retries.pop((kind, shard_id), None)
        if chain is not None:
            chain.cancel()

    # ------------------------------------------------------------------
    # Handoff: source side
    # ------------------------------------------------------------------
    def _handle_handoff_order(self, sender: NodeId, order: ShardHandoffOrder) -> None:
        if sender != self.cloud or order.source != self.node_id:
            return
        shard_id = order.shard_id
        state = self._shard_states.get(shard_id)
        if state is None or shard_id in self._migrating:
            return
        if self.map_view.owner_of(shard_id) != self.node_id:
            return
        self._migrating[shard_id] = order.dest
        # Root span of this handoff's trace: offer, transfer, and install
        # spans (on both edges) link back to the drain that started it.
        with self._span("handoff.drain", parent=None, shard=str(shard_id)) as span:
            if span is not None:
                self._obs_handoff[shard_id] = span.context
            if state.staged_txns:
                # Staged cross-shard prepares must resolve (decision or
                # expiry) before the shard can be offered away: their
                # decision records belong in *this* partition's certified
                # log, and the coordinators hold receipts naming this edge.
                self.stats.setdefault("handoff_txn_waits", 0)
                self.stats["handoff_txn_waits"] += 1
            if state.certifier.in_flight_count:
                # A pipelined shard may have a whole window of certify
                # batches outstanding when the order arrives; the drain
                # below waits for the window (certificates keep absorbing
                # out of order and re-advance the handoff as they land).
                self.stats.setdefault("handoff_window_waits", 0)
                self.stats["handoff_window_waits"] += 1
            # Stop accepting new writes (requests now redirect to the dest);
            # flush the partial block so the log prefix is complete.
            batch = state.buffer.flush()
            if batch is not None:
                self._form_block(state, batch)
            self._advance_handoff(shard_id)

    def _advance_handoff(self, shard_id: ShardId) -> None:
        """Drive the drain state machine; called whenever progress is possible.

        With a pipelined certifier the drain *waits for* the in-flight
        window rather than cancelling it: every member block must be
        certified before the offer anyway (the cloud checks the offer's
        prefix against its certified digests), so cancelling would only
        re-send requests whose answers are already on the wire.  The flush
        below keeps pumping queued digests into freed window slots until
        the partition's certifier runs dry.
        """

        state = self._shard_states.get(shard_id)
        dest = self._migrating.get(shard_id)
        if state is None or dest is None:
            return
        if state.staged_txns:
            return  # staged prepares resolve before the shard transfers
        if state.certifier.pending_dispatch_count:
            self._flush_certify_batch(state)
        if state.certifier.outstanding():
            return  # wait for the cloud's proofs
        if state.merge_in_flight:
            return  # wait for the in-flight merge
        if state.level_zero_blocks or state.index.tree.level_zero.num_pages:
            # Drain level 0 into level 1 so the whole index state is
            # committed under the cloud's digest mirror.
            proposal = self._build_merge_proposal(state, 0)
            if proposal is None:
                return
            self._send_merge(state, proposal)
            return
        self._send_handoff_offer(shard_id, state, dest)

    def _send_handoff_offer(
        self, shard_id: ShardId, state: PartitionState, dest: NodeId
    ) -> None:
        statement, signature = self._sign_log_prefix(shard_id, state, dest)
        request = ShardHandoffRequest(statement=statement, signature=signature)
        self.stats["shard_handoffs_offered"] += 1
        with self._span(
            "handoff.offer",
            parent=self._obs_handoff.get(shard_id),
            shard=str(shard_id),
            blocks=len(statement.blocks),
        ):
            self._ship_handoff_offer(request)

        def resend() -> bool:
            # Superseded: the grant (or a crash) retired the drained state,
            # or the cloud re-ordered the shard toward a different dest.
            if (
                self._shard_states.get(shard_id) is not state
                or self._migrating.get(shard_id) != dest
            ):
                return False
            self.stats["shard_offer_retries"] += 1
            self._ship_handoff_offer(request)
            return True

        self._arm_handoff_retry("offer", shard_id, resend)

    def _sign_log_prefix(
        self, shard_id: ShardId, state: PartitionState, dest: NodeId
    ) -> tuple[ShardHandoffStatement, Signature]:
        """Sign *state*'s log — every ``(block id, digest)`` in id order —
        bound to its level roots, as the data-free offer of the shard to
        *dest* that the cloud re-verifies against what it certified."""

        blocks = _block_digests(record.block for record in state.log)
        statement = ShardHandoffStatement(
            edge=self.node_id,
            dest=dest,
            shard_id=shard_id,
            blocks=blocks,
            state_digest=shard_state_digest(
                shard_id, state.index.level_roots(), blocks
            ),
            issued_at=self.env.now(),
        )
        return statement, self.env.registry.sign(self.node_id, statement)

    def _ship_handoff_offer(self, request: ShardHandoffRequest) -> None:
        self.env.charge(
            self.env.params.handoff_offer_cost(len(request.statement.blocks))
        )
        self.env.send(self.node_id, self.cloud, request)

    def _accept_certified_proof(self, state: PartitionState, proof) -> None:
        super()._accept_certified_proof(state, proof)
        shard_id = state.shard_id
        if shard_id is not None and shard_id in self._migrating:
            self._advance_handoff(shard_id)

    def _handle_merge_response(
        self, state: PartitionState, sender: NodeId, message: MergeResponse
    ) -> None:
        super()._handle_merge_response(state, sender, message)
        shard_id = state.shard_id
        if shard_id is not None and shard_id in self._migrating:
            self._advance_handoff(shard_id)

    def _handle_handoff_rejection(
        self, sender: NodeId, message: ShardHandoffRejection
    ) -> None:
        if sender != self.cloud or message.edge != self.node_id:
            return
        self.stats["shard_handoff_rejections"] += 1
        self._cancel_handoff_retry("offer", message.shard_id)
        # The shard stays migrating (requests keep redirecting) — an honest
        # edge whose offer is rejected needs operator intervention; a clean
        # automatic fallback would mask real divergence.

    def _handle_handoff_grant(self, sender: NodeId, grant: ShardHandoffGrant) -> None:
        if sender != self.cloud:
            return
        certificate = grant.certificate
        if not self._certificate_names_me(certificate, certificate.source):
            return
        shard_id = certificate.shard_id
        state = self._shard_states.get(shard_id)
        if state is None:
            return
        self._cancel_handoff_retry("offer", shard_id)
        self._handle_shard_map(sender, grant.shard_map)

        blocks = tuple(record.block for record in state.log)
        proofs = tuple(record.proof for record in state.log)
        ship_blocks = self._transfer_blocks(blocks)
        level_pages = _merged_level_pages(state)
        digest_list = _block_digests(ship_blocks)
        roots = level_roots_from_pages(level_pages, self.config.lsmerkle.num_levels)
        statement = ShardTransferStatement(
            source=self.node_id,
            dest=certificate.dest,
            shard_id=shard_id,
            map_version=certificate.statement.map_version,
            blocks=digest_list,
            state_digest=shard_state_digest(shard_id, roots, digest_list),
        )
        transfer = ShardTransferMessage(
            statement=statement,
            signature=self.env.registry.sign(self.node_id, statement),
            certificate=certificate,
            blocks=ship_blocks,
            proofs=proofs,
            level_pages=level_pages,
            signed_root=grant.signed_root,
        )
        self.env.charge(
            self.env.params.handoff_offer_cost(len(ship_blocks))
        )
        with self._span(
            "handoff.transfer",
            parent=self._obs_handoff.get(shard_id),
            shard=str(shard_id),
            blocks=len(ship_blocks),
        ):
            self.env.send(self.node_id, certificate.dest, transfer)
        self._retire_partition(shard_id)
        self._migrating.pop(shard_id, None)
        self._obs_handoff.pop(shard_id, None)
        self.stats["shard_handoffs_out"] += 1
        # Keep the transfer for retransmission until the destination's
        # install ack: the live partition was just retired, so a lost
        # transfer would leave the shard with no owner able to serve.
        self._outgoing_transfers[shard_id] = (transfer, certificate.dest)

        def resend() -> bool:
            if self._outgoing_transfers.get(shard_id) != (transfer, certificate.dest):
                return False
            self.stats["shard_transfer_retries"] += 1
            self.env.charge(
                self.env.params.handoff_offer_cost(len(transfer.blocks))
            )
            self.env.send(self.node_id, certificate.dest, transfer)
            return True

        self._arm_handoff_retry("transfer", shard_id, resend)
        # Requests parked during the drain now resolve to truthful signed
        # redirects under the republished map.
        self._replay_parked(shard_id)

    # Hook overridden by the tampering variant ------------------------------
    def _transfer_blocks(self, blocks: tuple) -> tuple:
        return blocks

    # ------------------------------------------------------------------
    # Handoff: destination side
    # ------------------------------------------------------------------
    def _handle_shard_transfer(
        self, sender: NodeId, message: ShardTransferMessage
    ) -> None:
        # Parent is the source's handoff.transfer span (delivery sidecar).
        with self._span("handoff.install", shard=str(message.certificate.shard_id)):
            params = self.env.params
            certificate = message.certificate
            num_pages = sum(len(pages) for _, pages in message.level_pages)
            self.env.charge(
                params.handoff_install_cost(len(message.blocks), num_pages)
            )
            if not self._certificate_names_me(certificate, certificate.dest):
                return
            if certificate.shard_id in self._shard_states:
                # Already installed (a replayed or duplicated transfer): the
                # live partition has accumulated state since — never overwrite.
                # Re-ack so a source whose first ack was lost stops
                # retransmitting (the cloud deduplicates install acks).
                self.stats.setdefault("shard_transfer_duplicates", 0)
                self.stats["shard_transfer_duplicates"] += 1
                self._send_install_ack(
                    certificate.shard_id, certificate.state_digest, sender
                )
                return
            refusal_key = (sender, certificate.shard_id, certificate.state_digest)
            if refusal_key in self._refused_transfers:
                self.stats.setdefault("shard_transfer_duplicates", 0)
                self.stats["shard_transfer_duplicates"] += 1
                return
            statement = message.statement
            shard_id = certificate.shard_id
            if (
                statement.source != sender
                or statement.dest != self.node_id
                or statement.shard_id != shard_id
                or not self.env.registry.verify(message.signature, statement)
            ):
                self._refused_transfers.add(refusal_key)
                return
            if statement.map_version != certificate.statement.map_version:
                # The statement must bind to the exact countersigned handoff:
                # a lied-about version would otherwise point the dispute path
                # at a certificate the cloud never issued, acquitting the liar.
                return self._refuse_transfer(refusal_key)

            # Recompute the state digest from the bytes actually received.
            actual_digests = _block_digests(message.blocks)
            roots = level_roots_from_pages(
                message.level_pages, self.config.lsmerkle.num_levels
            )
            recomputed = shard_state_digest(shard_id, roots, actual_digests)
            if (
                actual_digests != statement.blocks
                or recomputed != statement.state_digest
            ):
                # The payload disagrees with what the source *signed*: nothing
                # provable either way — refuse the install and wait for a
                # retransmit (the shard stays pending, requests stay parked).
                return self._refuse_transfer(refusal_key)
            if statement.state_digest != certificate.state_digest:
                # The source signed state that differs from what the cloud
                # countersigned: provable tampering — dispute it (once: a
                # retransmitted copy of the same signed transfer is deduped).
                self._refused_transfers.add(refusal_key)
                self.stats["shard_disputes_sent"] += 1
                self.env.send(
                    self.node_id,
                    self.cloud,
                    ShardDispute(
                        reporter=self.node_id,
                        accused=statement.source,
                        shard_id=shard_id,
                        kind="handoff-digest-mismatch",
                        transfer_statement=statement,
                        transfer_signature=message.signature,
                    ),
                )
                return
            # A handoff always ships the root the cloud re-signed for this
            # edge when it countersigned — merged pages or not.
            signed_root = message.signed_root
            if (
                signed_root is None
                or signed_root.statement.edge != self.node_id
                or not shipped_state_is_certified(
                    self.env.registry,
                    self.cloud,
                    message.blocks,
                    message.proofs,
                    message.level_pages,
                    signed_root,
                    self.config.lsmerkle.num_levels,
                )
            ):
                return self._refuse_transfer(refusal_key)

            # Verified end to end: install and start serving.
            state = self._new_partition(shard_id)
            for level_index, pages in message.level_pages:
                state.index.install_level_pages(level_index, pages)
            state.signed_root = message.signed_root
            self._seed_store(state, message.level_pages, message.signed_root)
            self._shard_states[shard_id] = state
            for block, proof in zip(message.blocks, message.proofs):
                key = (statement.source, block.block_id)
                self._imported_blocks[key] = (block, proof)
            self.stats["shard_handoffs_in"] += 1
            self._send_install_ack(shard_id, statement.state_digest, statement.source)
            self._replay_parked(shard_id)

    def _certificate_names_me(
        self, certificate: ShardHandoffCertificate, party: NodeId
    ) -> bool:
        """Whether *certificate* is this cloud's valid countersignature and
        *party* — the source or destination it names — is this edge."""

        return (
            certificate.cloud == self.cloud
            and party == self.node_id
            and certificate.verify(self.env.registry)
        )

    def _seed_store(
        self, state: PartitionState, level_pages: tuple, signed_root: Any
    ) -> None:
        """Seed *state*'s durable backend (if any) with verified merged levels
        and their cloud-signed root, so a crash after the install recovers
        the shard to this exact signed state instead of an empty partition."""

        if state.store is None:
            return
        try:
            seed_partition_store(
                state.store,
                level_pages=level_pages,
                signed_root=signed_root,
                next_block_id=state.log.next_block_id,
            )
        except StorageError:
            self._storage_degraded()

    def _refuse_transfer(self, refusal_key: tuple[NodeId, ShardId, str]) -> None:
        """Count an invalid transfer and remember its certificate: one
        certificate gets one trial (see ``_refused_transfers``)."""

        self.stats["shard_transfer_invalid"] += 1
        self._refused_transfers.add(refusal_key)

    def _send_install_ack(
        self, shard_id: ShardId, state_digest: str, source: NodeId
    ) -> None:
        """Ack an installed transfer to both the cloud and the source.

        The cloud's copy finalizes its handoff bookkeeping; the source's
        copy stops its transfer-retransmission timer.  Both receivers
        deduplicate, so re-acking a replayed transfer is safe.
        """

        ack = ShardInstallAck(
            dest=self.node_id, shard_id=shard_id, state_digest=state_digest
        )
        self.env.send(self.node_id, self.cloud, ack)
        if source != self.cloud:
            self.env.send(self.node_id, source, ack)

    def _handle_install_ack_from_dest(
        self, sender: NodeId, ack: ShardInstallAck
    ) -> None:
        """Source side: the destination confirmed the install — stop retrying."""

        pending = self._outgoing_transfers.get(ack.shard_id)
        if pending is None:
            return
        transfer, dest = pending
        if (
            sender != dest
            or ack.dest != dest
            or ack.state_digest != transfer.statement.state_digest
        ):
            return
        del self._outgoing_transfers[ack.shard_id]
        self._cancel_handoff_retry("transfer", ack.shard_id)
        self.stats["shard_transfer_acks"] += 1

    # ------------------------------------------------------------------
    # Replica groups: leases
    # ------------------------------------------------------------------
    def _handle_replica_lease(self, sender: NodeId, lease: ReplicaLease) -> None:
        if sender != self.cloud or lease.statement.cloud != self.cloud:
            return
        if lease.replica != self.node_id or not lease.verify(self.env.registry):
            return
        current = self._shard_leases.get(lease.shard_id)
        if current is not None and current.expires_at >= lease.expires_at:
            return
        self._shard_leases[lease.shard_id] = lease
        self.stats["replica_lease_updates"] += 1
        if self.map_view.owner_of(lease.shard_id) == self.node_id:
            # Writes parked behind the writer's lease gate replay under the
            # renewed lease.
            self._replay_parked(lease.shard_id)

    # ------------------------------------------------------------------
    # Replica groups: certified log shipping (writer side)
    # ------------------------------------------------------------------
    def _maybe_start_replication(self) -> None:
        """Start the periodic shipping tick once this edge owns a replicated
        shard (idempotent; a ``replication_factor=1`` fleet never starts it)."""

        if self._replication_stopper is not None:
            return
        if not any(
            self.map_view.replicas_of(shard_id)
            for shard_id in self.map_view.shards_owned_by(self.node_id)
        ):
            return
        self._replication_stopper = self.env.schedule_periodic(
            self.config.security.gossip_interval_s,
            self._replication_tick,
            label=f"{self.node_id}:replication",
        )

    def _replication_tick(self) -> None:
        """Ship the certified log prefix of every replicated owned shard.

        Nothing here is newly signed: a shipment carries certified blocks
        with their cloud proofs, the current level pages, and the latest
        cloud-signed root — the replica verifies everything against the
        cloud's signatures before installing.  The heartbeat doubles as the
        cloud's liveness signal for failover detection.
        """

        heartbeat_shards: list[tuple[ShardId, int]] = []
        for shard_id in sorted(self._shard_states):
            if self.map_view.owner_of(shard_id) != self.node_id:
                continue
            replicas = self.map_view.replicas_of(shard_id)
            if not replicas:
                continue
            state = self._shard_states[shard_id]
            if state.quarantined is not None:
                continue
            records = self._certified_prefix(state)
            heartbeat_shards.append((shard_id, len(records)))
            certified_ids = {record.block.block_id for record in records}
            level_zero_ids = tuple(
                block_id
                for block_id in state.level_zero_blocks
                if block_id in certified_ids
            )
            level_pages = _merged_level_pages(state)
            for replica in replicas:
                self._ship_to_replica(
                    shard_id, state, replica, records, level_zero_ids, level_pages
                )
            if self._metrics is not None:
                slowest = min(
                    self._replica_watermarks.get((shard_id, replica), -1)
                    for replica in replicas
                )
                lag = sum(
                    1 for record in records if record.block.block_id > slowest
                )
                self._metrics.gauge("replication_lag", shard=str(shard_id)).set(lag)
        if heartbeat_shards:
            self.env.charge(self.env.params.request_overhead_seconds)
            self.env.send(
                self.node_id,
                self.cloud,
                WriterHeartbeat(edge=self.node_id, shards=tuple(heartbeat_shards)),
            )

    @staticmethod
    def _certified_prefix(state: PartitionState) -> list[LogRecord]:
        """The longest log prefix where every block carries a cloud proof.

        Only this prefix ships: replicas mirror *certified* state, which is
        what bounds a promotion's data loss to the uncertified backlog —
        precisely the blocks the crashed writer could repudiate anyway.
        """

        records: list[LogRecord] = []
        for record in state.log:
            if record.proof is None:
                break
            records.append(record)
        return records

    def _ship_to_replica(
        self,
        shard_id: ShardId,
        state: PartitionState,
        replica: NodeId,
        records: list[LogRecord],
        level_zero_ids: tuple[BlockId, ...],
        level_pages: tuple,
    ) -> None:
        acked = self._replica_watermarks.get((shard_id, replica), -1)
        fresh = [r for r in records if r.block.block_id > acked]
        shipment = ReplicaLogShipment(
            writer=self.node_id,
            replica=replica,
            shard_id=shard_id,
            blocks=tuple(record.block for record in fresh),
            proofs=tuple(record.proof for record in fresh),
            level_zero_ids=level_zero_ids,
            level_pages=level_pages,
            signed_root=state.signed_root,
            certified_count=len(records),
        )
        self.stats["replica_shipments_sent"] += 1
        self.env.charge(self.env.params.handoff_offer_cost(len(fresh)))
        self.env.send(self.node_id, replica, shipment)

    def _handle_replica_shipment_ack(
        self, sender: NodeId, ack: ReplicaShipmentAck
    ) -> None:
        if ack.replica != sender:
            return
        if sender not in self.map_view.replicas_of(ack.shard_id):
            return
        # Last ack wins (not max): a restarted mirror acks ``-1`` to request
        # a full re-ship of the certified prefix.
        self._replica_watermarks[(ack.shard_id, sender)] = ack.watermark

    # ------------------------------------------------------------------
    # Replica groups: shipment install (replica side)
    # ------------------------------------------------------------------
    def _handle_replica_shipment(
        self, sender: NodeId, message: ReplicaLogShipment
    ) -> None:
        if message.replica != self.node_id or message.writer != sender:
            return
        shard_id = message.shard_id
        if self.map_view.owner_of(shard_id) != sender:
            return  # a deposed writer kept shipping: nothing to install
        if self.node_id not in self.map_view.replicas_of(shard_id):
            return
        state = self._replica_states.get(shard_id)
        if state is None:
            state = self._new_replica_state(shard_id, sender)
            self._replica_states[shard_id] = state
        num_pages = sum(len(pages) for _, pages in message.level_pages)
        self.env.charge(
            self.env.params.handoff_install_cost(len(message.blocks), num_pages)
        )
        # Blocks and root may be any writer's in the shard's provenance
        # chain, and a never-merged shard legitimately ships without a root
        # (an honest writer never holds merged pages without one).
        allowed = {sender, *self.map_view.provenance_of(shard_id)}
        signed_root = message.signed_root
        if (
            any(block.edge not in allowed for block in message.blocks)
            or (signed_root is not None and signed_root.statement.edge not in allowed)
            or not shipped_state_is_certified(
                self.env.registry,
                self.cloud,
                message.blocks,
                message.proofs,
                message.level_pages,
                signed_root,
                self.config.lsmerkle.num_levels,
            )
        ):
            # No ack: the writer's watermark stays put and it re-ships next tick.
            self.stats["replica_shipments_rejected"] += 1
            return

        # Rebuild the index as one consistent snapshot of the shipment, its
        # merged levels before the mirror is touched (installed whole or not
        # at all): they are the pages just verified against the cloud-signed
        # root; level 0 re-derives from the shipped blocks themselves.
        rebuilt = MerkleizedLSM(
            config=self.config.lsmerkle,
            page_capacity=self.config.logging.block_size,
        )
        for level_index, pages in message.level_pages:
            rebuilt.install_level_pages(level_index, pages)
        for block, proof in zip(message.blocks, message.proofs):
            if state.log.try_get(block.block_id) is None:
                state.log.adopt(block, proof)
        missing = [
            block_id
            for block_id in message.level_zero_ids
            if state.log.try_get(block_id) is None
        ]
        if missing:
            # This mirror is behind the writer's shipping watermark (it
            # restarted, or the stream was lossy): ack ``-1`` so the next
            # tick re-ships the full certified prefix.
            self._ack_shipment(shard_id, -1, 0)
            return
        for block_id in message.level_zero_ids:
            page = page_from_block(state.log.block(block_id))
            if page is not None:
                rebuilt.add_level_zero_page(page)
        state.index = rebuilt
        # Blocks this shipment leaves out of level 0 were merged at the
        # writer; no read proof here decodes them again.
        kept = set(message.level_zero_ids)
        for block_id in state.level_zero_blocks:
            if block_id not in kept:
                forget_records(state.log.block(block_id))
        state.level_zero_blocks = list(message.level_zero_ids)
        if signed_root is not None:
            state.signed_root = signed_root
        self.stats["replica_shipments_installed"] += 1
        root_version = (
            signed_root.statement.version if signed_root is not None else 0
        )
        self._ack_shipment(shard_id, state.log.highest_block_id, root_version)

    def _ack_shipment(
        self, shard_id: ShardId, watermark: int, root_version: int
    ) -> None:
        """Ack to both the writer (shipping watermark) and the cloud (the
        freshness record failover promotion picks the best replica by)."""

        ack = ReplicaShipmentAck(
            replica=self.node_id,
            shard_id=shard_id,
            watermark=watermark,
            root_version=root_version,
        )
        self.env.charge(self.env.params.request_overhead_seconds)
        writer = self.map_view.owner_of(shard_id)
        if writer is not None and writer != self.node_id:
            self.env.send(self.node_id, writer, ack)
        self.env.send(self.node_id, self.cloud, ack)

    # ------------------------------------------------------------------
    # Replica groups: failover promotion (replica side)
    # ------------------------------------------------------------------
    def _handle_promotion_order(
        self, sender: NodeId, order: ReplicaPromotionOrder
    ) -> None:
        """Offer this mirror's state for promotion — data-free, like a
        handoff offer: digests only, nothing the cloud cannot re-verify
        against its own certified-digest map and signatures."""

        if sender != self.cloud or order.cloud != self.cloud:
            return
        if order.dest != self.node_id:
            return
        shard_id = order.shard_id
        state = self._replica_states.get(shard_id)
        if state is None:
            state = self._new_replica_state(shard_id, order.source)
            self._replica_states[shard_id] = state
        statement, signature = self._sign_log_prefix(shard_id, state, self.node_id)
        offer = ReplicaPromotionOffer(
            statement=statement,
            signature=signature,
            level_page_digests=tuple(
                (level_index, tuple(page.digest() for page in pages))
                for level_index, pages in _merged_level_pages(state)
            ),
            signed_root=state.signed_root,
            watermark=state.log.highest_block_id,
        )
        self.stats["promotion_offers"] += 1
        num_blocks = len(statement.blocks)
        self.env.charge(self.env.params.handoff_offer_cost(num_blocks))
        with self._span("failover.offer", shard=str(shard_id), blocks=num_blocks):
            self.env.send(self.node_id, self.cloud, offer)

    def _handle_promotion_grant(
        self, sender: NodeId, grant: ReplicaPromotionGrant
    ) -> None:
        """Convert the mirror into the serving partition under the new map.

        The promoted log is owned by *this* edge with the shard's
        provenance chain as co-owners: the deposed writer's certified
        blocks keep their original ``edge`` field (their certificates bind
        it) while new appends carry this edge's.  Imported block ids live
        in the prior writers' id spaces — the edge-wide allocator skips
        past them but ``_block_shards`` routes only locally formed blocks.
        """

        if sender != self.cloud:
            return
        certificate = grant.certificate
        if not self._certificate_names_me(certificate, certificate.dest):
            return
        shard_id = certificate.shard_id
        if shard_id in self._shard_states:
            return  # duplicate grant: already promoted
        with self._span("failover.promote", shard=str(shard_id)):
            self._handle_shard_map(sender, grant.shard_map)
            mirror = self._replica_states.pop(shard_id, None)
            if mirror is None:
                return
            state = self._new_partition(shard_id)
            state.log = WedgeLog(
                self.node_id, co_owners=self.map_view.provenance_of(shard_id)
            )
            for record in mirror.log:
                state.log.adopt(record.block, record.proof)
                self._imported_blocks[(record.block.edge, record.block.block_id)] = (
                    record.block,
                    record.proof,
                )
            state.index = mirror.index
            state.level_zero_blocks = list(mirror.level_zero_blocks)
            state.signed_root = grant.signed_root
            # Imported level-0 records stay volatile until the next merge
            # folds them into manifest-covered pages — the same window the
            # in-memory crash model already accepts.
            self._seed_store(state, _merged_level_pages(state), grant.signed_root)
            self._shard_states[shard_id] = state
            self._next_block_id = max(self._next_block_id, state.log.next_block_id)
            self.stats["shard_promotions"] += 1
            self._maybe_start_replication()
            self._replay_parked(shard_id)

    # ------------------------------------------------------------------
    # Crash model (fault injection)
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Drop the sharded node's volatile 2PC and handoff bookkeeping too.

        Staged and decided transactions, parked requests, drain markers,
        pending outgoing transfers, and retry timers are all volatile.
        Losing an outgoing transfer is an accepted gap: the archived records
        survive (reads keep working) and the cloud can re-order the handoff;
        losing a drain marker leaves the shard owned and serving, which is
        safe — the cloud's ownership map never moved.
        """

        super().on_crash()
        for state in self._partition_states():
            state.staged_txns.clear()
            state.decided_txns.clear()
        self._parked_requests.clear()
        self._migrating.clear()
        self._outgoing_transfers.clear()
        for chain in self._handoff_retries.values():
            chain.cancel()
        self._handoff_retries.clear()
        # Replication soft state: leases and shipping watermarks are
        # volatile (the cloud re-issues leases every tick; replicas dedupe
        # re-shipped blocks).  The mirrors themselves survive under the
        # same in-memory durability story as the log and index above.
        self._shard_leases.clear()
        self._replica_watermarks.clear()

    def _recover_durable_partitions(self) -> None:
        """Recover the default partition and every owned shard from disk.

        The edge-wide routing tables are then rebuilt from the recovered
        logs — recovery trusts nothing pre-crash: ``_block_shards`` is
        re-derived from what each shard's store actually replayed, and the
        shared block-id allocator resumes past every recovered watermark.
        The allocator only ever moves forward: with a relaxed fsync policy
        an acknowledged-but-lost block id must still never be reissued, so
        a recovered watermark below the in-memory one does not rewind it.
        """

        super()._recover_durable_partitions()
        for shard_id in sorted(self._shard_states):
            fresh, report = self._recover_partition_state(
                self._shard_states[shard_id]
            )
            self._shard_states[shard_id] = fresh
            if report is not None:
                self.last_recovery_reports.append(report)
        self._block_shards = {
            record.block.block_id: shard_id
            for shard_id, state in self._shard_states.items()
            for record in state.log
        }
        watermark = self._default_partition.log.next_block_id
        for state in self._shard_states.values():
            watermark = max(watermark, state.log.next_block_id)
        self._next_block_id = max(self._next_block_id, watermark)
        # A quarantined *replicated* shard is recoverable: its replicas
        # mirror the certified state, so instead of a dead shard (the PR 7
        # dead end) the cloud can promote one.  Tell it.
        for shard_id in sorted(self._shard_states):
            state = self._shard_states[shard_id]
            if state.quarantined is None:
                continue
            if self.map_view.owner_of(shard_id) != self.node_id:
                continue
            if not self.map_view.replicas_of(shard_id):
                continue
            self.stats["shard_quarantine_notices"] += 1
            self.env.send(
                self.node_id,
                self.cloud,
                ShardQuarantineNotice(
                    edge=self.node_id,
                    shard_id=shard_id,
                    reason=state.quarantined,
                ),
            )
