"""Authenticated clients: data producers and consumers.

Clients sign every entry they produce, keep the edge node's signed responses
as evidence, verify every proof they receive, and raise disputes with the
cloud when evidence and reality diverge (Algorithm 1 and Section IV-D/E of
the paper).  The client also records when each of its operations reached
Phase I and Phase II commitment — the raw material for the paper's latency,
throughput, and commit-rate figures.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from ..common.config import SystemConfig
from ..common.errors import ProofVerificationError
from ..common.identifiers import (
    NodeId,
    OperationId,
    OperationKind,
    SequenceGenerator,
    client_id,
)
from ..common.regions import Region
from ..core.commit import CommitTracker, OperationRecord
from ..core.gossip import GossipView, verify_gossip
from ..crypto.hashing import digest_value
from ..log.entry import make_entry
from ..log.proofs import CommitPhase
from ..lsmerkle.codec import encode_put
from ..lsmerkle.freshness import FreshnessPolicy
from ..lsmerkle.read_proof import verify_get_proof
from ..messages.kv_messages import GetRequest, GetResponse
from ..messages.log_messages import (
    AppendBatchRequest,
    AppendBatchResponse,
    BlockProofMessage,
    DegradedModeNotice,
    DisputeRequest,
    DisputeVerdict,
    GossipBatchMessage,
    GossipMessage,
    ReadRequest,
    ReadResponse,
)
from ..sim.environment import Environment
from .dispatch import DispatchTable, TableDispatchNode


class Client(TableDispatchNode):
    """One authenticated client bound to a single edge node (its partition)."""

    HANDLERS = DispatchTable(
        {
            AppendBatchResponse: "_handle_append_response",
            BlockProofMessage: "_handle_block_proof",
            ReadResponse: "_handle_read_response",
            GetResponse: "_handle_get_response",
            GossipMessage: "_handle_gossip",
            GossipBatchMessage: "_handle_gossip",
            DisputeVerdict: "_handle_verdict",
            DegradedModeNotice: "_handle_degraded_notice",
        }
    )

    def __init__(
        self,
        env: Environment,
        edge: NodeId,
        cloud: NodeId,
        config: Optional[SystemConfig] = None,
        name: str = "client-0",
        region: Optional[Region] = None,
    ) -> None:
        self.env = env
        self.config = config if config is not None else SystemConfig.paper_default()
        self.node_id = client_id(name)
        self.region = region if region is not None else self.config.placement.client_region
        self.edge = edge
        self.cloud = cloud

        self.tracker = CommitTracker()
        self.gossip_view = GossipView(edge=edge)
        self.freshness = FreshnessPolicy(
            window_s=self.config.security.freshness_window_s
        )
        self._operation_seq = SequenceGenerator()
        self._entry_seq = SequenceGenerator()
        #: When ``True``, a write batch acknowledged across several blocks
        #: is tracked cumulatively (per-block receipts; Phase I on full
        #: coverage, Phase II when every block's proof arrives).  ``False``
        #: keeps the paper-exact single-block policy the figures were
        #: measured with.  Shard-aware clients enable it: variable-size
        #: per-shard sub-batches routinely straddle block boundaries.
        self._split_batch_acks = False

        #: Proven or suspected malicious behaviour observed by this client.
        self.malicious_events: list[dict] = []
        #: Verdicts received from the cloud for disputes this client raised.
        self.verdicts: list[DisputeVerdict] = []
        #: Block proofs that arrived before the operation they certify was
        #: Phase I committed locally (possible under message reordering).
        #: Keyed by (edge, block id) — block ids are only unique per edge.
        self._early_proofs: dict[tuple[NodeId, int], Any] = {}
        #: Session consistency (Section V-D alternative): the highest signed
        #: global-root version this client has observed, per root sequence
        #: (one sequence for the single-edge client; one per (edge, shard)
        #: for shard-aware subclasses).  Responses verified against an older
        #: root of the same sequence are rejected as stale.
        self._last_root_versions: dict[Any, int] = {}
        #: Edges currently advertising degraded mode (certification backlog
        #: over their configured bound), with their latest notice.  Purely
        #: advisory backpressure — a caller can consult this to throttle
        #: writes or widen dispute timers during a cloud outage.
        self.degraded_edges: dict[NodeId, DegradedModeNotice] = {}

        self.stats = {
            "writes_issued": 0,
            "reads_issued": 0,
            "gets_issued": 0,
            "entries_sent": 0,
            "disputes_sent": 0,
            "proof_mismatches": 0,
            "verification_failures": 0,
            # Total simulated CPU time this client spent verifying responses
            # and proofs (reported by the Figure 5(d) experiment).
            "verification_seconds": 0.0,
        }
        env.attach(self)

    # ------------------------------------------------------------------
    # Public operation API
    # ------------------------------------------------------------------
    def add_batch(self, payloads: Sequence[bytes]) -> OperationId:
        """Append a batch of opaque entries to the log (Phase I on response)."""

        return self._append(payloads=list(payloads), kind=OperationKind.ADD)

    def add(self, payload: bytes) -> OperationId:
        """Append a single entry (a batch of one)."""

        return self.add_batch([payload])

    def put_batch(self, items: Iterable[tuple[str, bytes]]) -> OperationId:
        """Apply a batch of key-value puts through the LSMerkle index."""

        payloads = [encode_put(key, value) for key, value in items]
        return self._append(payloads=payloads, kind=OperationKind.PUT)

    def put(self, key: str, value: bytes) -> OperationId:
        """Apply a single key-value put."""

        return self.put_batch([(key, value)])

    def read(self, block_id: int, edge: Optional[NodeId] = None) -> OperationId:
        """Read one block of the log by id."""

        target = edge if edge is not None else self.edge
        now = self.env.now()
        operation_id = self._next_operation_id()
        self.tracker.register(
            operation_id, OperationKind.READ, now, block_id=block_id, edge=target
        )
        self.stats["reads_issued"] += 1
        self.env.send(
            self.node_id,
            target,
            ReadRequest(
                requester=self.node_id, operation_id=operation_id, block_id=block_id
            ),
        )
        return operation_id

    def get(self, key: str, edge: Optional[NodeId] = None) -> OperationId:
        """Fetch the most recent value of *key* with an index proof."""

        target = edge if edge is not None else self.edge
        now = self.env.now()
        operation_id = self._next_operation_id()
        record = self.tracker.register(
            operation_id, OperationKind.GET, now, key=key, edge=target
        )
        self._annotate_issue(record)
        self.stats["gets_issued"] += 1
        self.env.send(
            self.node_id,
            target,
            GetRequest(requester=self.node_id, operation_id=operation_id, key=key),
        )
        return operation_id

    def _append(
        self,
        payloads: list[bytes],
        kind: OperationKind,
        edge: Optional[NodeId] = None,
        shard_id: Optional[int] = None,
    ) -> OperationId:
        target = edge if edge is not None else self.edge
        now = self.env.now()
        operation_id = self._next_operation_id()
        entries = tuple(
            make_entry(
                registry=self.env.registry,
                producer=self.node_id,
                sequence=self._entry_seq.next(),
                payload=payload,
                produced_at=now,
            )
            for payload in payloads
        )
        record = self.tracker.register(
            operation_id,
            kind,
            now,
            num_entries=len(entries),
            entry_sequences=tuple(entry.sequence for entry in entries),
            edge=target,
            shard_id=shard_id,
        )
        self._stash_entries(record, entries)
        self._annotate_issue(record)
        self.stats["writes_issued"] += 1
        self.stats["entries_sent"] += len(entries)
        self.env.send(
            self.node_id,
            target,
            AppendBatchRequest(
                requester=self.node_id,
                operation_id=operation_id,
                kind=kind,
                entries=entries,
                request_block=self.config.logging.return_block_on_add,
                shard_id=shard_id,
            ),
        )
        return operation_id

    def _next_operation_id(self) -> OperationId:
        return OperationId(client=self.node_id, sequence=self._operation_seq.next())

    # ------------------------------------------------------------------
    # Multi-edge hooks (overridden by the shard-aware client)
    # ------------------------------------------------------------------
    def _expected_edge(self, record: OperationRecord) -> NodeId:
        """The edge this operation was sent to (and must be answered by)."""

        return record.details.get("edge", self.edge)

    def _annotate_issue(self, record: OperationRecord) -> None:
        """Hook for subclasses to stamp issue-time context on a record."""

    def _stash_entries(self, record: OperationRecord, entries: tuple) -> None:
        """Hook for subclasses that must be able to re-send a write.

        The base client never re-routes, so it does not pin the signed
        entries in the tracker (they would live for the whole run).
        """

    def _accepts_proof(self, proof: Any) -> bool:
        """Whether a block proof may concern this client's operations."""

        return proof.edge == self.edge and proof.cloud == self.cloud

    def _root_version_key(self, record: OperationRecord) -> Any:
        """Which signed-root sequence a response belongs to.

        The single-edge client sees exactly one sequence; shard-aware
        subclasses key it by (edge, shard) so independent shard roots never
        trip the session-consistency check against each other.
        """

        return self._expected_edge(record)

    def _read_provenance(self, record: OperationRecord) -> tuple[NodeId, ...]:
        """Extra writers whose certified blocks may appear in a get proof.

        Empty for the single-edge client.  Shard-aware subclasses return
        the shard's current writer plus its provenance chain when a read is
        served by a replica or a promoted (post-failover) writer — those
        proofs legitimately carry blocks certified under other edges'
        names, each still pinned to its own writer's certificate.
        """

        return ()

    def _block_should_exist(self, record: OperationRecord, block_id: int) -> bool:
        """Whether gossip proves the read block exists at the serving edge."""

        return self.gossip_view.block_should_exist(block_id)

    @property
    def _last_root_version(self) -> int:
        """The observed root version of this client's home edge sequence."""

        return self._last_root_versions.get(self.edge, 0)

    @_last_root_version.setter
    def _last_root_version(self, value: int) -> None:
        self._last_root_versions[self.edge] = value

    # ------------------------------------------------------------------
    # Operation status helpers
    # ------------------------------------------------------------------
    def operation(self, operation_id: OperationId) -> OperationRecord:
        return self.tracker.get(operation_id)

    def phase_of(self, operation_id: OperationId) -> CommitPhase:
        return self.tracker.get(operation_id).phase

    def value_of(self, operation_id: OperationId) -> Optional[bytes]:
        """The value returned by a completed get operation."""

        return self.tracker.get(operation_id).details.get("value")

    # ------------------------------------------------------------------
    # Message handlers (dispatched through ``HANDLERS``)
    # ------------------------------------------------------------------
    def _handle_verdict(self, sender: NodeId, verdict: DisputeVerdict) -> None:
        self.verdicts.append(verdict)

    def _handle_degraded_notice(
        self, sender: NodeId, notice: DegradedModeNotice
    ) -> None:
        """Track the edge's backpressure signal (advisory, idempotent)."""

        if sender != notice.edge:
            return
        self.stats.setdefault("degraded_notices", 0)
        self.stats["degraded_notices"] += 1
        if notice.degraded:
            self.degraded_edges[notice.edge] = notice
        else:
            self.degraded_edges.pop(notice.edge, None)

    # -------------------------------------------------------------- appends
    def _handle_append_response(
        self, sender: NodeId, response: AppendBatchResponse
    ) -> None:
        params = self.env.params
        self.env.charge(params.verify_seconds)
        if response.operation_id not in self.tracker:
            return
        record = self.tracker.get(response.operation_id)
        now = self.env.now()
        expected_edge = self._expected_edge(record)

        receipt = response.receipt
        if not receipt.verify(self.env.registry) or receipt.edge != expected_edge:
            self._record_suspicion(
                "invalid-receipt", response.block_id, response.operation_id
            )
            self.tracker.mark_failed(response.operation_id, now, "invalid receipt")
            return

        if response.block is not None:
            self.env.charge(params.hash_cost(response.block.wire_size))
            if not receipt.matches_block(response.block):
                self._record_suspicion(
                    "receipt-block-mismatch", response.block_id, response.operation_id
                )
                self.tracker.mark_failed(
                    response.operation_id, now, "receipt does not match block"
                )
                return
            expected = set(record.details.get("entry_sequences", ()))
            present = {
                entry.sequence
                for entry in response.block.entries
                if entry.producer == self.node_id
            }
            newly_acked = expected & present
            if not self._split_batch_acks:
                # Paper-exact policy: the whole batch must land in one block
                # (the evaluation always aligns batch and block size).
                if not expected.issubset(present):
                    self._record_suspicion(
                        "missing-entries", response.block_id, response.operation_id
                    )
                    self.tracker.mark_failed(
                        response.operation_id, now, "entries missing from block"
                    )
                    return
            else:
                if expected and not newly_acked:
                    # The edge acknowledged this operation with a block
                    # holding none of its entries: a broken promise, not a
                    # split batch.
                    self._record_suspicion(
                        "missing-entries", response.block_id, response.operation_id
                    )
                    self.tracker.mark_failed(
                        response.operation_id, now, "entries missing from block"
                    )
                    return
                # A batch larger than the edge's block size (or split across
                # a block boundary by co-batched entries from other clients)
                # is acknowledged one block at a time: track cumulative
                # coverage and the per-block receipts, and only Phase I
                # commit once every entry has been promised in some block.
                acked = record.details.setdefault("acked_sequences", set())
                acked |= newly_acked
                record.details.setdefault("block_receipts", {})[
                    response.block_id
                ] = receipt
                self.tracker.watch_block(response.operation_id, response.block_id)
                if not expected <= acked:
                    self._arm_dispute_timer(response.operation_id)
                    return

        record.details["block_digest"] = receipt.block_digest
        self.tracker.mark_phase_one(
            response.operation_id, now, block_id=response.block_id, receipt=receipt
        )
        block_receipts = record.details.get("block_receipts")
        if block_receipts:
            # Resolve any blocks whose proofs raced ahead of the ack.
            all_resolved = False
            matched_proof = None
            for block_id, block_receipt in block_receipts.items():
                early = self._early_proofs.get((expected_edge, block_id))
                if early is not None and early.block_digest == block_receipt.block_digest:
                    all_resolved = self.tracker.resolve_block(
                        response.operation_id, block_id
                    )
                    matched_proof = early
            if all_resolved and matched_proof is not None:
                self.tracker.mark_phase_two(response.operation_id, now, matched_proof)
                return
        else:
            early = self._early_proofs.get((expected_edge, response.block_id))
            if early is not None and early.block_digest == receipt.block_digest:
                self.tracker.mark_phase_two(response.operation_id, now, early)
                return
        self._arm_dispute_timer(response.operation_id)

    # ---------------------------------------------------------- block proofs
    def _handle_block_proof(self, sender: NodeId, message: BlockProofMessage) -> None:
        params = self.env.params
        self.env.charge(params.verify_seconds)
        proof = message.proof
        # The proof must come from this client's actual cloud node: a
        # self-consistent signature from a node merely *claiming* the cloud
        # role is not Phase II evidence.
        if not self._accepts_proof(proof) or not proof.verify(self.env.registry):
            return
        now = self.env.now()
        self._early_proofs[(proof.edge, proof.block_id)] = proof
        for record in self.tracker.operations_waiting_on_block(proof.block_id):
            if self._expected_edge(record) != proof.edge:
                # Block ids are edge-local: the same id from another edge is
                # a different block entirely.
                continue
            if record.is_write:
                # The digest promised for *this* block: the per-block receipt
                # when the batch spanned several blocks, else the single one.
                block_receipt = record.details.get("block_receipts", {}).get(
                    proof.block_id
                )
                if block_receipt is not None:
                    promised = block_receipt.block_digest
                elif record.receipt is not None and record.block_id == proof.block_id:
                    promised = record.receipt.block_digest
                else:
                    promised = None
                if promised is not None and promised != proof.block_digest:
                    # The edge promised one digest but the cloud certified another.
                    self.stats["proof_mismatches"] += 1
                    self._record_suspicion(
                        "certified-digest-mismatch", proof.block_id, record.operation_id
                    )
                    self._send_dispute(record, kind="missing-proof")
                    continue
                if record.phase is CommitPhase.PENDING:
                    # Partial ack coverage (split batch): some entries have
                    # no receipt yet, so the operation cannot be durably
                    # committed however fast this block's proof arrived.
                    # Resolve the block; Phase II waits for full Phase I.
                    self.tracker.resolve_block(record.operation_id, proof.block_id)
                    continue
                if self.tracker.resolve_block(record.operation_id, proof.block_id):
                    self.tracker.mark_phase_two(record.operation_id, now, proof)
            else:
                served_digest = record.details.get("block_digest")
                if served_digest is not None and served_digest != proof.block_digest:
                    self.stats["proof_mismatches"] += 1
                    self._record_suspicion(
                        "read-content-mismatch", proof.block_id, record.operation_id
                    )
                    self._send_dispute(record, kind="read-mismatch")
                    continue
                if self.tracker.resolve_block(record.operation_id, proof.block_id):
                    self.tracker.mark_phase_two(record.operation_id, now, proof)

    # ---------------------------------------------------------------- reads
    def _handle_read_response(self, sender: NodeId, response: ReadResponse) -> None:
        params = self.env.params
        self.env.charge(params.verify_seconds)
        if response.statement.operation_id not in self.tracker:
            return
        record = self.tracker.get(response.statement.operation_id)
        now = self.env.now()

        statement = response.statement
        if statement.edge != self._expected_edge(record) or not self.env.registry.verify(
            response.signature, statement
        ):
            self.stats["verification_failures"] += 1
            self.tracker.mark_failed(record.operation_id, now, "bad read signature")
            return
        record.details["read_statement"] = statement
        record.details["read_signature"] = response.signature

        if not statement.found:
            if self._block_should_exist(record, statement.block_id):
                # Gossip says the block exists: omission attack.
                self._record_suspicion(
                    "omission", statement.block_id, record.operation_id
                )
                self._send_dispute(record, kind="omission")
            self.tracker.mark_failed(record.operation_id, now, "block not available")
            return

        block = response.block
        if block is None:
            self.tracker.mark_failed(record.operation_id, now, "empty read response")
            return
        self.env.charge(params.hash_cost(block.wire_size))
        recomputed = block.digest()
        if recomputed != statement.block_digest:
            self.stats["verification_failures"] += 1
            self._record_suspicion(
                "read-digest-mismatch", statement.block_id, record.operation_id
            )
            self.tracker.mark_failed(record.operation_id, now, "digest mismatch")
            return

        record.details["block_digest"] = recomputed
        record.details["num_entries"] = block.num_entries
        if (
            response.proof is not None
            and response.proof.cloud == self.cloud
            and response.proof.certifies(block)
        ):
            if response.proof.verify(self.env.registry):
                self.tracker.mark_phase_one(record.operation_id, now, statement.block_id)
                self.tracker.mark_phase_two(record.operation_id, now, response.proof)
                return
        # Phase I read: wait for the block proof, keep the evidence.
        self.tracker.mark_phase_one(record.operation_id, now, statement.block_id)
        self.tracker.watch_block(record.operation_id, statement.block_id)
        self._arm_dispute_timer(record.operation_id)

    # ----------------------------------------------------------------- gets
    def _handle_get_response(self, sender: NodeId, response: GetResponse) -> None:
        params = self.env.params
        if response.statement.operation_id not in self.tracker:
            return
        record = self.tracker.get(response.statement.operation_id)
        now = self.env.now()
        statement = response.statement

        # Verification cost: the paper attributes ~0.19 ms of the best-case
        # edge read to client-side verification (Figure 5d).
        num_proof_items = len(response.proof.level_zero) + len(response.proof.level_pages)
        verification_cost = params.verify_seconds * (
            2 + num_proof_items
        ) + params.hash_cost(response.proof.wire_size)
        self.env.charge(verification_cost)
        self.stats["verification_seconds"] += verification_cost

        expected_edge = self._expected_edge(record)
        if statement.edge != expected_edge or not self.env.registry.verify(
            response.signature, statement
        ):
            self.stats["verification_failures"] += 1
            self.tracker.mark_failed(record.operation_id, now, "bad get signature")
            return
        record.details["get_statement"] = statement
        record.details["get_signature"] = response.signature

        try:
            verified = verify_get_proof(
                registry=self.env.registry,
                cloud=self.cloud,
                edge=expected_edge,
                key=statement.key,
                proof=response.proof,
                now=now,
                freshness_window_s=self.freshness.effective_window(),
                provenance=self._read_provenance(record),
            )
        except ProofVerificationError as exc:
            self.stats["verification_failures"] += 1
            self._record_suspicion("get-proof-invalid", None, record.operation_id)
            self.tracker.mark_failed(record.operation_id, now, str(exc))
            return

        claimed_value = response.value
        derived_value = verified.record.value if verified.record is not None else None
        if verified.found != statement.found or claimed_value != derived_value:
            self.stats["verification_failures"] += 1
            self._record_suspicion("get-value-mismatch", None, record.operation_id)
            self.tracker.mark_failed(
                record.operation_id, now, "returned value disagrees with proof"
            )
            return
        if claimed_value is not None:
            expected_digest = digest_value(claimed_value)
            if statement.value_digest != expected_digest:
                self.stats["verification_failures"] += 1
                self.tracker.mark_failed(
                    record.operation_id, now, "value digest mismatch in statement"
                )
                return

        if verified.root_version is not None:
            version_key = self._root_version_key(record)
            if verified.root_version < self._last_root_versions.get(version_key, 0):
                # Session consistency: the edge served a snapshot older than
                # one this client has already read from.
                self.stats["verification_failures"] += 1
                self._record_suspicion(
                    "session-consistency-violation", None, record.operation_id
                )
                self.tracker.mark_failed(
                    record.operation_id,
                    now,
                    "response verified against an older global root than "
                    "previously observed (session consistency)",
                )
                return
            self._last_root_versions[version_key] = verified.root_version

        record.details["value"] = derived_value
        record.details["found"] = verified.found
        # Global sequence of the proven record (block id × stride + index):
        # lets shard-aware subclasses place a served value relative to a
        # transaction receipt's staged log position.
        record.details["record_sequence"] = (
            verified.record.sequence if verified.record is not None else None
        )
        record.details["root_timestamp"] = verified.root_timestamp
        record.details["root_version"] = verified.root_version
        self.tracker.mark_phase_one(record.operation_id, now)
        if verified.phase is CommitPhase.PHASE_TWO:
            self.tracker.mark_phase_two(record.operation_id, now)
            return
        for block_id in verified.uncertified_block_ids:
            self.tracker.watch_block(record.operation_id, block_id)
        self._arm_dispute_timer(record.operation_id)

    # --------------------------------------------------------------- gossip
    def _handle_gossip(
        self, sender: NodeId, message: "GossipMessage | GossipBatchMessage"
    ) -> None:
        if not verify_gossip(self.env.registry, message, cloud=self.cloud):
            return
        self.gossip_view.update(message)

    # ------------------------------------------------------------------
    # Disputes
    # ------------------------------------------------------------------
    def _arm_dispute_timer(self, operation_id: OperationId) -> None:
        timeout = self.config.security.dispute_timeout_s

        def check() -> None:
            if operation_id not in self.tracker:
                return
            record = self.tracker.get(operation_id)
            if record.phase in (CommitPhase.PHASE_TWO, CommitPhase.FAILED):
                return
            kind = "missing-proof" if record.is_write else "read-mismatch"
            self._record_suspicion("proof-timeout", record.block_id, operation_id)
            self._send_dispute(record, kind=kind)

        self.env.schedule(timeout, check, label=f"{self.node_id}:dispute-timer")

    def _send_dispute(self, record: OperationRecord, kind: str) -> None:
        statement = record.details.get("read_statement")
        signature = record.details.get("read_signature")
        dispute = DisputeRequest(
            client=self.node_id,
            edge=self._expected_edge(record),
            block_id=record.block_id if record.block_id is not None else -1,
            kind=kind,
            receipt=record.receipt,
            read_statement=statement,
            read_signature=signature,
            claimed_digest=record.details.get("block_digest"),
        )
        self.stats["disputes_sent"] += 1
        self.env.send(self.node_id, self.cloud, dispute)

    def _record_suspicion(
        self,
        kind: str,
        block_id: Optional[int],
        operation_id: Optional[OperationId],
    ) -> None:
        self.malicious_events.append(
            {
                "kind": kind,
                "block_id": block_id,
                "operation_id": operation_id,
                "at": self.env.now(),
            }
        )
