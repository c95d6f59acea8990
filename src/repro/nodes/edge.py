"""The (honest) untrusted edge node.

The edge node is where all client requests are served.  It batches incoming
entries into blocks, Phase I commits them by returning signed receipts, and
lazily certifies block digests with the cloud in the background (Section IV).
For key-value workloads it additionally maintains the LSMerkle index whose
level 0 is backed by the same blocks, serves ``get`` requests with index
proofs, and coordinates merges with the cloud (Section V).

All mutable per-partition state (log, buffer, certifier, LSMerkle index,
merge bookkeeping) lives in a :class:`PartitionState`.  The honest edge node
of the paper owns exactly one partition; the sharded fleet
(:mod:`repro.sharding`) subclasses this node with one ``PartitionState`` per
owned shard and adds every fleet protocol as rows of its own table — no
module under ``repro.nodes`` imports ``repro.sharding`` or its messages.

How a message reaches its handler: ``EdgeNode.HANDLERS`` is the class-level
:class:`~repro.nodes.dispatch.DispatchTable` of ``message type → (handler,
route)`` rows and :meth:`EdgeNode.on_message` is the only dispatcher.  It
looks the row up, asks the row's *route* which partition the message
concerns (this node's single route answers "the default partition" for
every message; the sharded subclass re-routes rows per shard and adds
node-level rows that have no partition), refuses service if that partition
is quarantined, and runs the handler with the partition *active* — every
handler below reads and writes partition state through ``self``-level
properties that resolve to the active partition, so the protocol logic is
written once.  Traced steps open their span through the one ``_span``
helper, which is a shared no-op context while observability is off.

Malicious behaviours are implemented as subclasses in
:mod:`repro.nodes.malicious`; the hooks they override are small and explicit
so the honest logic stays readable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterable, Optional

from ..common.config import SystemConfig
from ..common.errors import (
    PartitionQuarantinedError,
    ProofVerificationError,
    ProtocolError,
    StorageError,
)
from ..common.identifiers import BlockId, NodeId, OperationId, ShardId, edge_id
from ..common.regions import Region
from ..core.certification import CertificationTask, InFlightBatch, LazyCertifier
from ..crypto.hashing import digest_value
from ..faults.retry import Retransmission, RetryPolicy
from ..log.block import Block, build_block
from ..log.buffer import BlockBuffer, PendingBatch
from ..log.proofs import issue_phase_one_receipt
from ..log.wedge_log import WedgeLog
from ..lsmerkle.codec import page_from_block
from ..lsmerkle.merge import MergeProposal
from ..lsmerkle.mlsm import MerkleizedLSM, SignedGlobalRoot
from ..lsmerkle.read_proof import build_get_proof
from ..messages.kv_messages import (
    GetRequest,
    GetResponse,
    GetResponseStatement,
    MergeRejection,
    MergeRequest,
    MergeResponse,
    RootRefreshRequest,
    RootRefreshResponse,
)
from ..log.proofs import AnyBlockProof, derive_batched_proofs
from ..messages.log_messages import (
    AppendBatchRequest,
    AppendBatchResponse,
    BatchCertificateMessage,
    BlockCertifyRequest,
    BlockProofMessage,
    CertifyBatchRequest,
    CertifyBatchStatement,
    CertifyRejection,
    CertifyStatement,
    CertifyWindowRequest,
    CertifyWindowStatement,
    DegradedModeNotice,
    ReadRequest,
    ReadResponse,
    ReadResponseStatement,
)
from ..sim.environment import Environment
from ..storage.recovery import RecoveryReport, recover_partition
from ..storage.store import PartitionStore
from .dispatch import DispatchTable, TableDispatchNode


@dataclass
class PartitionState:
    """All mutable state of one served partition (the whole key space for
    the paper's single-partition edge; one shard of it in a sharded fleet)."""

    owner: NodeId
    config: SystemConfig
    #: ``None`` for the single-partition deployment; the shard id otherwise.
    shard_id: Optional[ShardId] = None
    log: WedgeLog = field(init=False)
    buffer: BlockBuffer = field(init=False)
    certifier: LazyCertifier = field(init=False)
    index: MerkleizedLSM = field(init=False)
    #: Block ids backing the current level-0 pages, in arrival order.
    level_zero_blocks: list[BlockId] = field(default_factory=list)
    #: Latest cloud-signed global root (None before the first merge).
    signed_root: Optional[SignedGlobalRoot] = None
    #: Replay protection (Section IV-E): where each client entry landed,
    #: and the Phase I receipt of every formed block so that replayed
    #: requests can be answered idempotently instead of re-appended.
    entry_locations: dict[tuple[NodeId, int], BlockId] = field(default_factory=dict)
    receipts: dict[BlockId, object] = field(default_factory=dict)
    merge_in_flight: bool = False
    merge_source_bids: tuple[BlockId, ...] = ()
    #: Root version of the last *merge outcome* installed (root refreshes
    #: advance ``signed_root`` too, so duplicate-merge detection must not
    #: compare against it).  ``-1`` before the first merge.
    merge_installed_version: int = -1
    flush_timer_active: bool = False
    certify_flush_timer: Optional[Any] = None
    #: Degraded-mode signal (cloud outage backpressure): whether this
    #: partition's uncertified backlog currently exceeds
    #: ``LoggingConfig.max_uncertified_backlog``, and which clients were
    #: told so (they get the all-clear when the backlog drains).
    degraded: bool = False
    degraded_notified: set = field(default_factory=set)
    #: Durable backing (``None`` for the default in-memory deployment).
    #: Attached by ``EdgeNode._new_partition`` when ``StorageConfig`` opts
    #: this deployment into the disk backend.
    store: Optional[PartitionStore] = None
    #: Set when crash recovery found this partition's store unverifiable
    #: (checksum or signed-root failure): the reason string.  A quarantined
    #: partition refuses every request instead of serving data the edge can
    #: no longer prove.
    quarantined: Optional[str] = None

    def __post_init__(self) -> None:
        self.log = WedgeLog(self.owner)
        self.buffer = BlockBuffer(self.config.logging.block_size)
        self.certifier = LazyCertifier()
        self.index = MerkleizedLSM(
            config=self.config.lsmerkle,
            page_capacity=self.config.logging.block_size,
        )


class EdgeNode(TableDispatchNode):
    """An honest edge node serving one partition of clients."""

    #: What ``_new_partition`` builds; a subclass may name a richer state.
    PARTITION_STATE = PartitionState

    #: Every row — and every unknown message type, so the quarantine gate
    #: sees all traffic — resolves to the one default partition.
    HANDLERS = DispatchTable(
        {
            AppendBatchRequest: "_handle_append",
            ReadRequest: "_handle_read",
            GetRequest: "_handle_get",
            BlockProofMessage: "_handle_block_proof",
            BatchCertificateMessage: "_handle_batch_certificate",
            MergeResponse: "_handle_merge_response",
            MergeRejection: "_handle_merge_rejection",
            RootRefreshResponse: "_handle_root_refresh_response",
            CertifyRejection: "_handle_certify_rejection",
        },
        route="_route_default",
    )

    def __init__(
        self,
        env: Environment,
        cloud: NodeId,
        config: Optional[SystemConfig] = None,
        name: str = "edge-0",
        region: Optional[Region] = None,
    ) -> None:
        self.env = env
        self.config = config if config is not None else SystemConfig.paper_default()
        self.node_id = edge_id(name)
        self.region = region if region is not None else self.config.placement.edge_region
        self.cloud = cloud

        self._attach_observability()
        #: Phase I span contexts by block id, so the Phase II absorption
        #: span can link the certificate back to the put that formed the
        #: block (popped on absorption; bounded by uncertified blocks).
        self._obs_phase1: dict = {}

        self._default_partition = self._new_partition(shard_id=None)
        #: The partition the currently running handler operates on; every
        #: state property below resolves through it.
        self._active: PartitionState = self._default_partition

        stats_init = {
            "append_requests": 0,
            "blocks_formed": 0,
            "entries_logged": 0,
            "reads": 0,
            "gets": 0,
            "certify_requests": 0,
            "certify_batches": 0,
            "certify_retries": 0,
            "proofs_received": 0,
            "proofs_forwarded": 0,
            "batch_cert_mismatches": 0,
            "merges_started": 0,
            "merges_completed": 0,
            "merges_rejected": 0,
            "root_refreshes": 0,
            "timeout_flushes": 0,
        }
        self.stats = self._make_stats(stats_init)
        timeout = self.config.security.dispute_timeout_s
        #: Retransmission schedule of every certify request (see
        #: :meth:`_arm_certify_retry`): derived from the dispute timeout.
        self._certify_retry_policy = RetryPolicy(base_s=timeout / 2, cap_s=timeout)
        #: When the cloud last answered a certify request, and when the last
        #: outage probe left (see :meth:`_resend_single`).
        self._cloud_heard_at = self._cloud_probed_at = float("-inf")
        #: Reports from the last durable restart recovery (diagnostics).
        self.last_recovery_reports: list[RecoveryReport] = []
        env.attach(self)

    def _obs_phase1_links(self, block_ids) -> list:
        """Phase I span contexts for *block_ids* (those still tracked)."""

        phase1 = self._obs_phase1
        return [phase1[bid] for bid in block_ids if bid in phase1]

    # ------------------------------------------------------------------
    # Partition state plumbing
    # ------------------------------------------------------------------
    def _new_partition(
        self,
        shard_id: Optional[ShardId],
        store: Optional[PartitionStore] = None,
    ) -> PartitionState:
        state = self.PARTITION_STATE(
            owner=self.node_id, config=self.config, shard_id=shard_id
        )
        state.store = store if store is not None else self._open_partition_store(shard_id)
        return state

    def _open_partition_store(
        self, shard_id: Optional[ShardId]
    ) -> Optional[PartitionStore]:
        """Open this partition's durable store (``None`` = in-memory backend,
        the paper-exact default)."""

        storage = self.config.storage
        if not storage.is_durable:
            return None
        partition = "default" if shard_id is None else f"shard-{shard_id:04d}"
        directory = os.path.join(storage.root_dir, self.node_id.name, partition)
        store = PartitionStore(directory, storage)
        if self._metrics is not None:
            # Mirror the store's counters into this edge's registry under a
            # ``storage_`` prefix (``storage_blocks_appended``, ...).
            store.stats = self._make_stats(dict(store.stats), prefix="storage_")
        return store

    def _partition_states(self) -> Iterable[PartitionState]:
        """Every partition this edge serves (one for the honest base node)."""

        return (self._default_partition,)

    def _route_default(self, sender: NodeId, message: Any) -> PartitionState:
        """The route of every message that concerns no particular shard."""

        return self._default_partition

    @contextmanager
    def _as_active(self, state: PartitionState):
        """Run a code block with *state* as the active partition."""

        previous, self._active = self._active, state
        try:
            yield state
        finally:
            self._active = previous

    # State properties: the public per-partition attributes.  Subclass code,
    # malicious variants, and tests read (and occasionally swap) these; they
    # always resolve against the active partition.
    @property
    def log(self) -> WedgeLog:
        return self._active.log

    @property
    def buffer(self) -> BlockBuffer:
        return self._active.buffer

    @property
    def certifier(self) -> LazyCertifier:
        return self._active.certifier

    @property
    def index(self) -> MerkleizedLSM:
        return self._active.index

    @index.setter
    def index(self, value: MerkleizedLSM) -> None:
        self._active.index = value

    @property
    def level_zero_blocks(self) -> list[BlockId]:
        return self._active.level_zero_blocks

    @level_zero_blocks.setter
    def level_zero_blocks(self, value: list[BlockId]) -> None:
        self._active.level_zero_blocks = value

    @property
    def signed_root(self) -> Optional[SignedGlobalRoot]:
        return self._active.signed_root

    @signed_root.setter
    def signed_root(self, value: Optional[SignedGlobalRoot]) -> None:
        self._active.signed_root = value

    @property
    def _certify_flush_timer(self) -> Optional[Any]:
        return self._active.certify_flush_timer

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, sender: NodeId, message: Any) -> None:
        handler, route = self.HANDLERS.lookup(type(message))
        if route is None:
            # A node-level message (or a fan-out the handler spreads over
            # several partitions itself): no partition, no quarantine gate.
            getattr(self, handler)(sender, message)
            return
        state = getattr(self, route)(sender, message)
        if state is None:
            # Fully handled during resolution (redirected, parked) or a
            # stray for a partition this edge no longer holds.
            return
        if state.quarantined is not None:
            # The partition's store failed verification at recovery: refusing
            # service is the only honest answer — anything served from it
            # would be unprovable (and disputes over it unwinnable).
            self.stats.setdefault("quarantined_refusals", 0)
            self.stats["quarantined_refusals"] += 1
            return
        if handler is not None:
            with self._as_active(state):
                getattr(self, handler)(sender, message)

    # ------------------------------------------------------------------
    # Appending (add / put)
    # ------------------------------------------------------------------
    def _handle_append(self, sender: NodeId, request: AppendBatchRequest) -> None:
        params = self.env.params
        self.stats["append_requests"] += 1
        payload_bytes = sum(len(entry.payload) for entry in request.entries)
        self.env.charge(
            params.request_overhead_seconds
            + params.verify_seconds
            + params.append_seconds_per_op * len(request.entries)
            + params.hash_cost(payload_bytes)
        )

        now = self.env.now()
        fresh_entries = []
        replayed_blocks: set[BlockId] = set()
        for entry in request.entries:
            location = self._active.entry_locations.get((entry.producer, entry.sequence))
            if location is not None:
                # Replay protection (Section IV-E): the same signed entry was
                # appended before — applying it again would duplicate data.
                replayed_blocks.add(location)
                continue
            if self.buffer.contains(entry.producer, entry.sequence):
                # The original copy is still buffered (block not yet formed);
                # it will answer the operation when the block forms.
                self.stats.setdefault("buffered_duplicate_entries", 0)
                self.stats["buffered_duplicate_entries"] += 1
                continue
            fresh_entries.append(entry)
        if replayed_blocks:
            self.stats.setdefault("replayed_entries", 0)
            self.stats["replayed_entries"] += len(request.entries) - len(fresh_entries)
            self._answer_replay(sender, request, replayed_blocks)

        batch: Optional[PendingBatch] = None
        for entry in fresh_entries:
            batch = self.buffer.append(
                entry,
                now=now,
                operation_id=request.operation_id,
                requester=sender,
            )
            if batch is not None:
                self._form_block(batch)
        if not self.buffer.is_empty:
            self._arm_flush_timer()

    def _answer_replay(
        self,
        sender: NodeId,
        request: AppendBatchRequest,
        replayed_blocks: set[BlockId],
    ) -> None:
        """Answer a replayed request idempotently with the original receipt."""

        for block_id in sorted(replayed_blocks):
            receipt = self._active.receipts.get(block_id)
            record = self.log.try_get(block_id)
            if receipt is None or record is None:
                continue
            response = AppendBatchResponse(
                edge=self.node_id,
                operation_id=request.operation_id,
                block_id=block_id,
                receipt=receipt,
                block=self._block_for_response(record.block),
            )
            self.env.send(self.node_id, sender, response)
            self._owe_block_proof(sender, request.operation_id, block_id)

    def _arm_flush_timer(self) -> None:
        state = self._active
        if state.flush_timer_active:
            return
        state.flush_timer_active = True
        timeout = self.config.logging.block_timeout_s

        def flush() -> None:
            with self._as_active(state):
                state.flush_timer_active = False
                batch = self.buffer.flush()
                if batch is not None:
                    self.stats["timeout_flushes"] += 1
                    self._form_block(batch)
                if not self.buffer.is_empty:
                    self._arm_flush_timer()

        self.env.schedule(timeout, flush, label=f"{self.node_id}:flush")

    def _allocate_block_id(self) -> BlockId:
        """Reserve the next block id (edge-wide in sharded subclasses)."""

        return self.log.allocate_block_id()

    def _form_block(self, batch: PendingBatch) -> None:
        """Build a block from a full batch, Phase I commit it, start Phase II."""

        params = self.env.params
        now = self.env.now()
        block_id = self._allocate_block_id()
        # Root span of this put's trace: the certify dispatch below, the
        # cloud's verification, the absorption of the certificate, and any
        # merge it triggers all hang off (or link back to) this context.
        with self._span("phase1.commit", block_id=str(block_id)) as span:
            if span is not None:
                self._obs_phase1[block_id] = span.context
            block = self._build_block_for(batch, block_id, now)
            self.env.charge(
                params.block_build_cost(block.num_entries, block.wire_size)
            )

            self.log.append(block)
            self.stats["blocks_formed"] += 1
            self.stats["entries_logged"] += block.num_entries

            receipt = issue_phase_one_receipt(
                self.env.registry, self.node_id, block, now
            )
            digest = self._digest_to_certify(block)
            self.certifier.track(block.block_id, digest)
            self._active.receipts[block.block_id] = receipt
            self._persist_block(block, receipt)
            locations = self._active.entry_locations
            for entry in block.entries:
                locations[(entry.producer, entry.sequence)] = block.block_id

            # Respond to every distinct (requester, operation) in the batch and
            # subscribe them to the eventual block proof.
            requesters = self._batch_requesters(batch)
            for requester, operation_id in requesters:
                self._owe_block_proof(requester, operation_id, block.block_id)
            self._dispatch_phase_one_responses(requesters, block, receipt)
            self._signal_degraded_mode([requester for requester, _op in requesters])

            # Index the block's put operations into LSMerkle level 0.
            page = page_from_block(block)
            if page is not None:
                self.index.add_level_zero_page(page)
                self.level_zero_blocks.append(block.block_id)

            # Lazy certification: data-free digest to the cloud, off the
            # critical path.
            self._send_certify_request(block)
            self._maybe_start_merge()

    @staticmethod
    def _batch_requesters(batch: PendingBatch) -> list[tuple[NodeId, OperationId]]:
        """Distinct (requester, operation) pairs contributing to a batch."""

        seen: list[tuple[NodeId, OperationId]] = []
        for item in batch.entries:
            if item.requester is None or item.operation_id is None:
                continue
            pair = (item.requester, item.operation_id)
            if pair not in seen:
                seen.append(pair)
        return seen

    def _dispatch_phase_one_responses(
        self,
        requesters: list[tuple[NodeId, OperationId]],
        block: Block,
        receipt,
    ) -> None:
        """Send the signed Phase I acknowledgements (overridden by baselines)."""

        for requester, operation_id in requesters:
            response = AppendBatchResponse(
                edge=self.node_id,
                operation_id=operation_id,
                block_id=block.block_id,
                receipt=receipt,
                block=self._block_for_response(block),
            )
            self.env.send(self.node_id, requester, response)

    # Hooks overridden by malicious subclasses -------------------------------
    def _build_block_for(
        self, batch: PendingBatch, block_id: BlockId, now: float
    ) -> Block:
        return build_block(self.node_id, block_id, batch.log_entries, now)

    def _block_for_response(self, block: Block) -> Optional[Block]:
        return block if self.config.logging.return_block_on_add else None

    def _digest_to_certify(self, block: Block) -> str:
        return block.digest()

    def _send_certify_request(self, block: Block) -> None:
        self._dispatch_certify(self.certifier.task(block.block_id))
        if not self.certifier.pending_dispatch_count:
            return  # sent on its own (``certify_batch_size`` of 1)
        # Lazy certification is asynchronous, so the digest can wait for its
        # batch: ship full batches while the in-flight window has room, and
        # bound whatever stays queued (a partial batch, or a full window)
        # with the flush timer.  A size-triggered dispatch that empties the
        # queue cancels the timer so the next digest starts a fresh full
        # window instead of inheriting a near-expired deadline.
        self._pump_certify_pipeline()
        if self.certifier.pending_dispatch_count:
            self._arm_certify_flush_timer()
        else:
            self._cancel_certify_flush_timer()

    def _pump_certify_pipeline(self, allow_partial: bool = False) -> int:
        """Ship queued digests while the in-flight window has room.

        Full batches ship immediately; a trailing partial batch only ships
        when *allow_partial* is set (the timeout flush and the handoff
        drain), so steady load keeps producing full-size batches.  Returns
        how many batch requests left the edge.  When digests stay queued
        because the window is full, the next certificate retirement pumps
        again — batch formation overlaps the outstanding round-trips.
        """

        depth = self.config.logging.certify_pipeline_depth
        batches = self.certifier.drain_window_groups(
            depth=depth,
            batch_size=self.config.logging.certify_batch_size,
            allow_partial=allow_partial,
        )
        groups = [self.certifier.awaiting(batch) for batch in batches]
        if len(groups) == 1:
            self._send_certify_batch_request(groups[0])
        elif groups:
            # Several batches leave in one pump: one window envelope
            # signature covers them all; the cloud still answers with one
            # certificate per batch, so the slots retire independently.
            self._send_certify_window_request(groups)
        for batch in batches:
            self._arm_certify_retry(batch, partial(self._resend_batch, batch))
        if (
            self.certifier.pending_dispatch_count
            and self.certifier.in_flight_count >= depth
        ):
            self.stats.setdefault("certify_window_stalls", 0)
            self.stats["certify_window_stalls"] += 1
        peak = self.stats.setdefault("certify_inflight_peak", 0)
        if self.certifier.in_flight_count > peak:
            self.stats["certify_inflight_peak"] = self.certifier.in_flight_count
        if self._metrics is not None:
            shard = (
                "default" if self._active.shard_id is None else str(self._active.shard_id)
            )
            self._metrics.gauge("certify_in_flight", shard=shard).set(
                self.certifier.in_flight_count
            )
            self._metrics.gauge("certify_queued", shard=shard).set(
                self.certifier.pending_dispatch_count
            )
        return len(batches)

    def _dispatch_certify(self, task: CertificationTask) -> None:
        """Start one block's certification the ordinary way.

        With ``certify_batch_size`` of 1 the block gets its own signed
        request and retry chain — exactly the protocol the paper's figures
        were measured with.  Otherwise it joins the dispatch queue, and the
        caller pumps (or flushes) the window.
        """

        if self.config.logging.certify_batch_size > 1:
            self.certifier.enqueue_for_dispatch(task.block_id)
            return
        self._send_single_certify_request(task)
        self._arm_certify_retry(task, partial(self._resend_single, task))

    def _resend_single(self, task: CertificationTask) -> bool:
        """Re-send one block's own request.

        The first retry always goes: it lands before the client's dispute,
        which would otherwise convict this honest edge over one lost packet.
        Later ones only hasten eventual certification, so once the cloud
        has answered nothing for a whole dispute timeout (an outage) they
        shrink to one probe per timeout for the whole edge, and the first
        answer to it lets every chain re-send again.  A backlog of B blocks
        thus costs one retry per block formed plus that probe, not B
        signatures every timeout for as long as the outage lasts.
        """

        now = self.env.now()
        timeout = self.config.security.dispute_timeout_s
        if task.retry.attempt > 1 and now - self._cloud_heard_at >= timeout:
            if now - self._cloud_probed_at < timeout:
                return True
            self._cloud_probed_at = now
        self.stats["certify_retries"] += 1
        self._send_single_certify_request(task)
        return True

    def _resend_batch(self, batch: InFlightBatch) -> bool:
        """Re-ship one lost batch as itself: its still-uncertified members
        under a fresh signature, never re-chunked with other batches."""

        tasks = self.certifier.awaiting(batch)
        self.stats["certify_retries"] += len(tasks)
        self.stats.setdefault("certify_batch_retries", 0)
        self.stats["certify_batch_retries"] += 1
        self._send_certify_batch_request(tasks)
        return True

    def _arm_certify_retry(
        self, record: "CertificationTask | InFlightBatch", resend
    ) -> None:
        """Hang a retransmission chain on the record a request re-sends.

        *record* is the task of a single-block request or the in-flight
        batch of a batched one; the certifier cancels the chain when the
        record retires (certified, refused, or wiped by a crash), so
        ``resend`` only ever runs for a request still owed a certificate.

        The schedule is derived from ``dispute_timeout_s`` (D), not tuned:
        first retry at D/2, then doubling, capped at D, with no attempt
        budget.  It must land before the client's dispute (which would
        convict this honest edge) and after the longest honest Phase II lag.
        Measured from dispatch to absorbed proof, that lag is at most 0.15 s
        on figures 4 and 5, 0.25 s on figure 7 and 1.74 s on figure 6 at
        its committed 120 x 1000 scale — but 2.57 s at 200 batches and
        3.39 s at 400, so a larger figure-6 scale would retry.
        """

        record.retry = Retransmission(
            self.env.schedule,
            self._certify_retry_policy,
            partial(self._resend_in, self._active, resend),
            label=f"{self.node_id}:certify-retry",
        )

    def _resend_in(self, state: PartitionState, resend) -> bool:
        """Run *resend* with the partition that sent the request active."""

        with self._as_active(state):
            return resend()

    def _send_single_certify_request(self, task: CertificationTask) -> None:
        (statement,) = self._certify_items_for((task,))
        signature = self.env.registry.sign(self.node_id, statement)
        self.stats["certify_requests"] += 1
        message = BlockCertifyRequest(statement=statement, signature=signature)
        with self._span(
            "certify.dispatch", links=self._obs_phase1_links((task.block_id,)), blocks=1
        ):
            self.env.send(self.node_id, self.cloud, message)

    def _arm_certify_flush_timer(self) -> None:
        state = self._active
        if state.certify_flush_timer is not None:
            return
        timeout = self.config.logging.certify_flush_timeout_s

        def flush() -> None:
            with self._as_active(state):
                state.certify_flush_timer = None
                self._flush_certify_batch()

        state.certify_flush_timer = self.env.schedule(
            timeout, flush, label=f"{self.node_id}:certify-flush"
        )

    def _num_entries_for(self, block_id: BlockId) -> int:
        """Entry count reported in certify statements (0 for absent blocks)."""

        return self.log.block(block_id).num_entries if block_id in self.log else 0

    def _certify_items_for(self, tasks) -> tuple[CertifyStatement, ...]:
        return tuple(
            CertifyStatement(
                edge=self.node_id,
                block_id=task.block_id,
                block_digest=task.block_digest,
                num_entries=self._num_entries_for(task.block_id),
            )
            for task in tasks
        )

    def _send_certify_batch_request(self, tasks) -> None:
        """Ship the given certification tasks as one signed batch request."""

        statement = CertifyBatchStatement(
            edge=self.node_id, items=self._certify_items_for(tasks)
        )
        signature = self.env.registry.sign(self.node_id, statement)
        self.stats["certify_requests"] += 1
        self.stats["certify_batches"] += 1
        message = CertifyBatchRequest(statement=statement, signature=signature)
        with self._span(
            "certify.dispatch",
            links=self._obs_phase1_links([task.block_id for task in tasks]),
            blocks=len(tasks),
        ):
            self.env.send(self.node_id, self.cloud, message)

    def _send_certify_window_request(self, groups) -> None:
        """Ship several batches under one window-envelope signature.

        The envelope amortizes the edge's asymmetric signature over every
        batch the pump dispatched together; selective retries later re-send
        individual batches as plain :class:`CertifyBatchRequest`\\ s.
        """

        batches = tuple(
            CertifyBatchStatement(
                edge=self.node_id, items=self._certify_items_for(tasks)
            )
            for tasks in groups
        )
        statement = CertifyWindowStatement(edge=self.node_id, batches=batches)
        signature = self.env.registry.sign(self.node_id, statement)
        self.stats["certify_requests"] += 1
        self.stats["certify_batches"] += len(groups)
        self.stats.setdefault("certify_windows", 0)
        self.stats["certify_windows"] += 1
        message = CertifyWindowRequest(statement=statement, signature=signature)
        with self._span(
            "certify.dispatch",
            links=self._obs_phase1_links(
                [task.block_id for tasks in groups for task in tasks]
            ),
            blocks=sum(len(tasks) for tasks in groups),
            window=len(groups),
        ):
            self.env.send(self.node_id, self.cloud, message)

    def _cancel_certify_flush_timer(self) -> None:
        state = self._active
        if state.certify_flush_timer is not None:
            state.certify_flush_timer.cancel()
            state.certify_flush_timer = None

    def _flush_certify_batch(self) -> None:
        """Flush the dispatch queue into the in-flight window, stragglers too.

        The timeout flush (and the handoff drain, which calls this directly)
        ships partial batches; queued digests the full window leaves behind
        get a fresh timer so their wait stays bounded — certificate
        retirements pump the pipeline in between.
        """

        self._cancel_certify_flush_timer()
        self._pump_certify_pipeline(allow_partial=True)
        if self.certifier.pending_dispatch_count:
            self._arm_certify_flush_timer()

    # ------------------------------------------------------------------
    # Degraded mode (graceful cloud-outage backpressure)
    # ------------------------------------------------------------------
    def _uncertified_backlog(self) -> int:
        """Phase-I-committed blocks of the active partition still awaiting
        their cloud certificate."""

        certifier = self.certifier
        return certifier.tracked_count - certifier.certified_count

    def _signal_degraded_mode(self, requesters: Iterable[NodeId]) -> None:
        """Maintain the partition's degraded flag and tell clients about it.

        Phase I service never stops — the paper's lazy-certification model
        explicitly tolerates an unreachable cloud — but past the configured
        backlog the edge owes its clients an honest signal that proofs will
        be late.  Entering degraded mode notifies each client as it next
        appends (*requesters*); leaving it (backlog drained to half the
        threshold, hysteresis against flapping) notifies everyone previously
        warned.  A ``None`` threshold disables all of this.
        """

        limit = self.config.logging.max_uncertified_backlog
        if limit is None:
            return
        state = self._active
        backlog = self._uncertified_backlog()
        if not state.degraded and backlog > limit:
            state.degraded = True
            self.stats.setdefault("degraded_entries", 0)
            self.stats["degraded_entries"] += 1
        elif state.degraded and backlog <= limit // 2:
            state.degraded = False
            self.stats.setdefault("degraded_recoveries", 0)
            self.stats["degraded_recoveries"] += 1
            notice = DegradedModeNotice(
                edge=self.node_id, degraded=False, backlog=backlog, limit=limit
            )
            for client in sorted(state.degraded_notified, key=str):
                self.env.send(self.node_id, client, notice)
            state.degraded_notified.clear()
            return
        if not state.degraded:
            return
        notice = DegradedModeNotice(
            edge=self.node_id, degraded=True, backlog=backlog, limit=limit
        )
        for requester in requesters:
            if requester in state.degraded_notified:
                continue
            state.degraded_notified.add(requester)
            self.env.send(self.node_id, requester, notice)

    # ------------------------------------------------------------------
    # Durable storage (no-ops for the paper-exact in-memory backend)
    # ------------------------------------------------------------------
    def _storage_degraded(self) -> None:
        """A durable write failed (full disk, injected fault): count it.

        Availability wins over durability — the edge keeps serving Phase I
        commits exactly as it does through a cloud outage; the operator
        signal is the stat (and, on the next crash, a smaller recovered
        state).
        """

        self.stats.setdefault("storage_write_errors", 0)
        self.stats["storage_write_errors"] += 1

    def _persist_block(self, block: Block, receipt) -> None:
        store = self._active.store
        if store is None:
            return
        try:
            store.append_block(block, receipt)
        except StorageError:
            self._storage_degraded()

    def _persist_proof(self, proof: AnyBlockProof) -> None:
        store = self._active.store
        if store is None:
            return
        try:
            store.append_proof(proof)
        except StorageError:
            self._storage_degraded()

    def _persist_manifest(self) -> None:
        """Snapshot the active partition's index state into its store.

        Called after every installed merge and root refresh.  The write also
        computes the snapshot-truncation floor: the lowest block id that
        must stay replayable is the minimum over uncertified blocks, blocks
        still backing level-0 pages, and the allocator watermark — sealed
        segments entirely below it carry only blocks whose data now lives in
        the manifest's (just-fsynced) pages.
        """

        state = self._active
        store = state.store
        if store is None:
            return
        level_pages = {
            index: list(state.index.tree.levels[index].pages)
            for index in range(1, state.index.num_levels)
        }
        floor = state.log.next_block_id
        uncertified = state.log.uncertified_block_ids()
        if uncertified:
            floor = min(floor, uncertified[0])
        if state.level_zero_blocks:
            floor = min(floor, min(state.level_zero_blocks))
        try:
            store.write_manifest(
                next_block_id=state.log.next_block_id,
                level_pages=level_pages,
                level_zero_blocks=tuple(state.level_zero_blocks),
                signed_root=state.signed_root,
                truncate_floor=floor,
            )
        except StorageError:
            self._storage_degraded()
        else:
            state.log.mark_truncated(floor)

    def quarantine_reports(self) -> dict:
        """Quarantined partitions of this edge: ``{shard_id: reason}``."""

        return {
            state.shard_id: state.quarantined
            for state in self._partition_states()
            if state.quarantined is not None
        }

    def assert_serving(self) -> None:
        """Raise :class:`PartitionQuarantinedError` if any partition refuses
        service (corruption detected at recovery)."""

        reports = self.quarantine_reports()
        if reports:
            raise PartitionQuarantinedError(
                f"{self.node_id} quarantined partitions: {reports}"
            )

    def _recover_durable_partitions(self) -> None:
        """Replace every stored partition with one rebuilt from disk.

        The pre-crash state objects are abandoned wholesale — recovery
        trusts nothing but the store.  Timers armed against the old objects
        fire against orphaned state and no-op harmlessly (same contract the
        in-memory crash model has always had).
        """

        self.last_recovery_reports = []
        fresh, report = self._recover_partition_state(self._default_partition)
        self._default_partition = fresh
        self._active = fresh
        if report is not None:
            self.last_recovery_reports.append(report)

    def _recover_partition_state(
        self, old_state: PartitionState
    ) -> tuple[PartitionState, Optional[RecoveryReport]]:
        store = old_state.store
        if store is None:
            return old_state, None
        fresh = self._new_partition(old_state.shard_id, store=store)
        report = recover_partition(fresh, store, self.env.registry, self.cloud)
        self.stats.setdefault("partitions_recovered", 0)
        self.stats["partitions_recovered"] += 1
        if self._metrics is not None:
            # Deterministic recovery-size distribution (simulated runs have
            # no meaningful wall-clock; the replay volume is the cost proxy).
            self._metrics.histogram(
                "storage_recovery_blocks", bounds=(1, 4, 16, 64, 256, 1024)
            ).observe(report.blocks_replayed)
        if report.quarantined is not None:
            self.stats.setdefault("partitions_quarantined", 0)
            self.stats["partitions_quarantined"] += 1
        return fresh, report

    # ------------------------------------------------------------------
    # Crash / restart (the fault injector's node lifecycle)
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Lose all volatile state, keep everything the trust model calls
        durable.

        Survives (the edge's persisted artifacts): the certified log with
        its proofs, the LSMerkle index and signed root, Phase I receipts,
        and the replay-protection entry locations — all reconstructible
        from (or equal to) what a real edge fsyncs.  Lost: the append
        buffer, the certifier's dispatch queue and in-flight window, and merge
        bookkeeping.  The wipe happens at *crash* time so timers that were
        armed before the crash fire against fresh, empty state and no-op
        harmlessly.
        """

        self.stats.setdefault("crashes", 0)
        self.stats["crashes"] += 1
        for state in self._partition_states():
            with self._as_active(state):
                state.buffer = BlockBuffer(self.config.logging.block_size)
                state.certifier.reset_window()
                state.merge_in_flight = False
                state.merge_source_bids = ()
                state.flush_timer_active = False
                if state.certify_flush_timer is not None:
                    state.certify_flush_timer.cancel()
                    state.certify_flush_timer = None
                state.degraded = False
                state.degraded_notified.clear()
                if state.store is not None:
                    # Model the kill against the disk too: unsynced segment
                    # bytes half-survive, producing the torn tails recovery
                    # must repair.
                    state.store.simulate_crash()

    def on_restart(self) -> None:
        """Resume after a crash: re-request certification of every
        uncertified block in the durable log.

        With the disk backend, restart first *replaces* every partition with
        one rebuilt purely from its store (verified against the durable
        signed root, quarantined on corruption) — the preserved in-memory
        objects are not trusted.  Either way, the crash wiped the in-flight
        window and its retry chains, so every uncertified block goes back
        through the ordinary dispatch path: its own request (and chain) with
        ``certify_batch_size`` of 1, otherwise the dispatch queue and a
        flush — so the window bound holds after a restart too.
        """

        self.stats.setdefault("restarts", 0)
        self.stats["restarts"] += 1
        if self.config.storage.is_durable:
            self._recover_durable_partitions()
        for state in self._partition_states():
            if state.quarantined is not None:
                continue
            with self._as_active(state):
                tasks = self.certifier.outstanding()
                for task in sorted(tasks, key=lambda task: task.block_id):
                    self._dispatch_certify(task)
                self._flush_certify_batch()

    # ------------------------------------------------------------------
    # Block proofs from the cloud
    # ------------------------------------------------------------------
    def _handle_block_proof(self, sender: NodeId, message: BlockProofMessage) -> None:
        params = self.env.params
        self.env.charge(params.verify_seconds)
        proof = message.proof
        # Pin the issuer: a proof must name this edge's actual cloud node,
        # not merely carry a self-consistent signature from its claimed
        # signer (any registered node can sign statements naming itself).
        if (
            proof.edge != self.node_id
            or proof.cloud != self.cloud
            or not proof.verify(self.env.registry)
        ):
            return
        self._accept_certified_proof(proof)
        self._maybe_start_merge()
        self._pump_certify_pipeline()

    def _owe_block_proof(
        self, client: NodeId, operation_id: OperationId, block_id: BlockId
    ) -> None:
        """*client* is owed the block's proof: now if held, else on arrival."""

        proof = self.log.proof_for(block_id)
        if proof is None and block_id in self.certifier:
            proof = self.certifier.subscribe(block_id, client, operation_id)
        if proof is not None:
            self.env.send(self.node_id, client, BlockProofMessage(proof=proof))

    def _accept_certified_proof(self, proof: AnyBlockProof) -> None:
        """Record a verified proof and forward it to waiting subscribers."""

        # The acceptance linkage of the whole trace: this span's parent is
        # the cloud's certify span (via the delivery sidecar) and its link
        # is the Phase I span of the block being certified — so a Phase II
        # certificate always resolves back to the put that caused it.
        links = self._obs_phase1_links((proof.block_id,))
        with self._span(
            "certify.absorb", links=links, block_id=str(proof.block_id)
        ) as span:
            if span is not None:
                if self._metrics is not None and links:
                    origin = self._obs_tracer.find(links[0].span_id)
                    if origin is not None:
                        self._metrics.histogram("certify_latency_s").observe(
                            self.env.now() - origin.start
                        )
                self._obs_phase1.pop(proof.block_id, None)
            record = self.log.try_get(proof.block_id)
            if record is not None and record.block.digest() == proof.block_digest:
                self.log.attach_proof(proof)
                self._persist_proof(proof)
            self.stats["proofs_received"] += 1
            self._cloud_heard_at = self.env.now()
            try:
                subscribers = self.certifier.complete(proof)
            except ProtocolError:
                subscribers = []
            for client, _operation in subscribers:
                self.env.send(self.node_id, client, BlockProofMessage(proof=proof))
                self.stats["proofs_forwarded"] += 1
            self._signal_degraded_mode(())

    def _handle_batch_certificate(
        self, sender: NodeId, message: BatchCertificateMessage
    ) -> None:
        """Derive per-block proofs locally from one signed batch root.

        The certificate's single signature is verified once; every per-block
        proof below it costs only leaf hashing and an O(log N) path.  Any
        returned item whose digest does not match what this edge asked to
        certify (a malicious or confused cloud) is rejected individually,
        and a certificate whose root does not commit to exactly the returned
        item list is rejected outright.

        Under pipelining, certificates for different in-flight batches
        arrive in whatever order the WAN delivers them — and a certificate
        may arrive twice when a selective retry races the original answer.
        Absorption is per block and idempotent, so out-of-order and
        duplicate certificates need no special casing; retiring a batch
        frees a window slot, and the pump below ships the next queued batch
        into it.
        """

        params = self.env.params
        certificate = message.certificate
        self.env.charge(params.batch_proof_derivation_cost(len(message.blocks)))
        if (
            certificate.edge != self.node_id
            or certificate.cloud != self.cloud
            or not certificate.verify(self.env.registry)
        ):
            return
        try:
            proofs = derive_batched_proofs(certificate, message.blocks)
        except ProofVerificationError:
            # Root does not commit to the returned items: the certificate is
            # unusable as evidence — drop the whole message.
            self.stats["batch_cert_mismatches"] += 1
            return
        for proof in proofs:
            task = self.certifier.task(proof.block_id)
            if task is None or task.block_digest != proof.block_digest:
                # The cloud claims to have certified a digest this edge never
                # sent for that block id (malicious-cloud path): reject the
                # item, keep the rest of the batch.
                self.stats["batch_cert_mismatches"] += 1
                continue
            self._accept_certified_proof(proof)
        self._maybe_start_merge()
        self._pump_certify_pipeline()

    def _handle_certify_rejection(
        self, sender: NodeId, message: CertifyRejection
    ) -> None:
        # Only this edge's cloud can refuse this edge's blocks: a rejection
        # from anyone else, or naming another pair, moves neither the
        # diagnostic nor the window.
        if (
            sender != self.cloud
            or message.cloud != self.cloud
            or message.edge != self.node_id
        ):
            return
        # An honest edge should never be rejected; record it for diagnostics.
        self.stats.setdefault("certify_rejections", 0)
        self.stats["certify_rejections"] += 1
        self._cloud_heard_at = self.env.now()
        # A definitively refused block will never produce a certificate:
        # end its retry, release its in-flight batch slot so the window
        # cannot wedge on it, and let the freed slot pull the next queued
        # batch forward.
        self.certifier.abandon_in_flight(message.block_id)
        self._pump_certify_pipeline()

    # ------------------------------------------------------------------
    # Log reads
    # ------------------------------------------------------------------
    def _handle_read(self, sender: NodeId, request: ReadRequest) -> None:
        params = self.env.params
        self.stats["reads"] += 1
        self.env.charge(
            params.request_overhead_seconds
            + params.lookup_seconds_per_op
            + params.sign_seconds
        )
        record = self._read_record(request.block_id)
        now = self.env.now()
        if record is None:
            statement = ReadResponseStatement(
                edge=self.node_id,
                operation_id=request.operation_id,
                block_id=request.block_id,
                found=False,
                block_digest=None,
                issued_at=now,
            )
            response = ReadResponse(
                statement=statement,
                signature=self.env.registry.sign(self.node_id, statement),
            )
            self.env.send(self.node_id, sender, response)
            return

        block = self._block_for_read(record.block)
        statement = ReadResponseStatement(
            edge=self.node_id,
            operation_id=request.operation_id,
            block_id=request.block_id,
            found=True,
            block_digest=block.digest(),
            issued_at=now,
        )
        response = ReadResponse(
            statement=statement,
            signature=self.env.registry.sign(self.node_id, statement),
            block=block,
            proof=record.proof,
        )
        self.env.send(self.node_id, sender, response)
        if record.proof is None:
            # Phase I read: forward the proof once it arrives.
            self._owe_block_proof(sender, request.operation_id, request.block_id)

    # Hooks overridden by malicious subclasses -------------------------------
    def _read_record(self, block_id: BlockId):
        return self.log.try_get(block_id)

    def _block_for_read(self, block: Block) -> Block:
        return block

    # ------------------------------------------------------------------
    # Key-value gets
    # ------------------------------------------------------------------
    def _handle_get(self, sender: NodeId, request: GetRequest) -> None:
        params = self.env.params
        self.stats["gets"] += 1
        level_zero_pages = self.index.tree.level_zero.num_pages
        self.env.charge(
            params.request_overhead_seconds
            + params.lookup_seconds_per_op * (1 + level_zero_pages)
            + params.sign_seconds
        )
        now = self.env.now()
        result = self._index_lookup(request.key)
        found = result.found
        value = result.record.value if found else None

        evidence = self._level_zero_evidence()
        proof = build_get_proof(
            key=request.key,
            index=self.index,
            level_zero_blocks=evidence,
            signed_root=self.signed_root,
            found_level=result.level_index,
        )
        statement = GetResponseStatement(
            edge=self.node_id,
            operation_id=request.operation_id,
            key=request.key,
            found=found,
            value_digest=digest_value(value) if value is not None else None,
            issued_at=now,
        )
        response = GetResponse(
            statement=statement,
            signature=self.env.registry.sign(self.node_id, statement),
            value=value,
            proof=proof,
            lease=self._response_lease(),
        )
        self.env.send(self.node_id, sender, response)

        # Phase I gets: forward proofs of the still-uncertified blocks.
        for block_id in proof.uncertified_block_ids:
            self._owe_block_proof(sender, request.operation_id, block_id)

    def _response_lease(self):
        """Serving lease to attach to get responses.

        ``None`` for the base node (and for a shard's writer): only a read
        replica of a replicated shard attaches the cloud-signed lease that
        authorizes it to answer (see ``sharding.edge``).
        """

        return None

    # Hooks overridden by malicious subclasses -------------------------------
    def _index_lookup(self, key: str):
        return self.index.get(key)

    def _level_zero_evidence(self) -> list[tuple[Block, Optional[Any]]]:
        return [
            (self.log.block(block_id), self.log.proof_for(block_id))
            for block_id in self.level_zero_blocks
        ]

    # ------------------------------------------------------------------
    # Merges
    # ------------------------------------------------------------------
    def _merge_shard_id(self) -> Optional[ShardId]:
        """Shard id stamped on merge proposals (the active partition's)."""

        return self._active.shard_id

    def _maybe_start_merge(self) -> None:
        if self._active.merge_in_flight:
            return
        levels_due = self.index.levels_needing_merge()
        if not levels_due:
            return
        level_index = levels_due[0]
        proposal = self._build_merge_proposal(level_index)
        if proposal is None:
            return
        self._active.merge_in_flight = True
        self.stats["merges_started"] += 1
        request = MergeRequest(edge=self.node_id, proposal=proposal)
        with self._span("merge.propose", level=proposal.level_index):
            self.env.send(self.node_id, self.cloud, request)

    def _build_merge_proposal(self, level_index: int) -> Optional[MergeProposal]:
        if level_index == 0:
            certified_bids = [
                block_id
                for block_id in self.level_zero_blocks
                if self.log.proof_for(block_id) is not None
            ]
            if not certified_bids:
                # Nothing certified yet; retry when block proofs arrive.
                return None
            source_blocks = tuple(self.log.block(block_id) for block_id in certified_bids)
            self._active.merge_source_bids = tuple(certified_bids)
            return MergeProposal(
                edge=self.node_id,
                level_index=0,
                source_blocks=source_blocks,
                target_pages=tuple(self.index.tree.levels[1].pages),
                shard_id=self._merge_shard_id(),
            )
        return MergeProposal(
            edge=self.node_id,
            level_index=level_index,
            source_pages=tuple(self.index.tree.levels[level_index].pages),
            target_pages=tuple(self.index.tree.levels[level_index + 1].pages),
            shard_id=self._merge_shard_id(),
        )

    def _handle_merge_response(self, sender: NodeId, message: MergeResponse) -> None:
        with self._span("merge.install"):
            params = self.env.params
            outcome = message.outcome
            self.env.charge(
                params.verify_seconds
                + params.append_seconds_per_op * sum(
                    page.num_records for page in outcome.merged_pages
                )
            )
            if not outcome.signed_root.verify(self.env.registry, self.cloud):
                self._active.merge_in_flight = False
                return
            if not self._active.merge_in_flight:
                # No merge outstanding: a duplicate delivery of an outcome that
                # already cleared the flag.  ``merge_source_bids`` was consumed
                # by the first apply, so re-running the level-0 filter would
                # re-install the merged pages on top of themselves.
                self.stats.setdefault("merge_duplicates", 0)
                self.stats["merge_duplicates"] += 1
                return
            version = outcome.signed_root.statement.version
            if version <= self._active.merge_installed_version:
                # A stale outcome (duplicate of an older merge racing a newer
                # request): already installed.  Root versions increase with
                # every merge, so the comparison is exact; the flag stays set —
                # the *current* merge's answer is still owed.
                self.stats.setdefault("merge_duplicates", 0)
                self.stats["merge_duplicates"] += 1
                return

            if outcome.level_index == 0:
                merged_bids = set(self._active.merge_source_bids)
                self._active.merge_source_bids = ()
                remaining_pages = [
                    page
                    for page in self.index.tree.levels[0].pages
                    if page.source_block_id not in merged_bids
                ]
                self.index.install_merge(0, outcome.merged_pages, remaining_pages)
                self.level_zero_blocks = [
                    block_id
                    for block_id in self.level_zero_blocks
                    if block_id not in merged_bids
                ]
            else:
                self.index.install_merge(outcome.level_index, outcome.merged_pages, ())

            self.signed_root = outcome.signed_root
            self._active.merge_installed_version = version
            self.stats["merges_completed"] += 1
            self._active.merge_in_flight = False
            self._persist_manifest()
            self._maybe_start_merge()

    def _handle_merge_rejection(self, sender: NodeId, message: MergeRejection) -> None:
        self.stats["merges_rejected"] += 1
        self._active.merge_in_flight = False

    # ------------------------------------------------------------------
    # Root refresh (freshness support)
    # ------------------------------------------------------------------
    def request_root_refresh(self) -> None:
        """Ask the cloud to re-sign the current roots with a fresh timestamp."""

        self.env.send(
            self.node_id,
            self.cloud,
            RootRefreshRequest(edge=self.node_id, shard_id=self._active.shard_id),
        )

    def _handle_root_refresh_response(
        self, sender: NodeId, message: RootRefreshResponse
    ) -> None:
        if message.edge != self.node_id:
            return
        if message.signed_root.verify(self.env.registry, self.cloud):
            self.signed_root = message.signed_root
            self.stats["root_refreshes"] += 1
            self._persist_manifest()
