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

    #: How many received block proofs ``_early_proofs`` retains.
    EARLY_PROOF_WINDOW = 256

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
        #: Block proofs that may arrive before the response that makes an
        #: operation wait for them (no link is ordered), by (edge, block id)
        #: — block ids are only unique per edge.  Bounded: only the
        #: ``EARLY_PROOF_WINDOW`` most recently received proofs are kept (a
        #: proof races its response by a transmission time, not by hundreds
        #: of certificates).
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

        fully_acked = True
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
            if self._split_batch_acks:
                # A batch larger than the edge's block size (or split across
                # a block boundary by co-batched entries from other clients)
                # is acknowledged one block at a time: track cumulative
                # coverage, and only Phase I commit once every entry has
                # been promised in some block.  A block holding none of the
                # operation's entries is a broken promise, not a split batch.
                acked = record.details.setdefault("acked_sequences", set())
                acked |= newly_acked
                fully_acked = expected <= acked
                missing = bool(expected) and not newly_acked
            else:
                # Paper-exact policy: the whole batch must land in one block
                # (the evaluation always aligns batch and block size).
                missing = not expected <= present
            if missing:
                self._record_suspicion(
                    "missing-entries", response.block_id, response.operation_id
                )
                self.tracker.mark_failed(
                    response.operation_id, now, "entries missing from block"
                )
                return

        if fully_acked:
            record.details["block_digest"] = receipt.block_digest
            self.tracker.mark_phase_one(
                response.operation_id, now, block_id=response.block_id, receipt=receipt
            )
        self._await_certificates(
            record, {response.block_id: receipt.block_digest}, now
        )

    # ------------------------------------------------------ awaiting Phase II
    def _await_certificates(
        self, record: OperationRecord, promised: dict[int, str], now: float
    ) -> None:
        """A verified response promised these blocks: wait for their proofs.

        The one place an operation starts waiting for Phase II — for puts,
        log reads and gets alike.  Each promised digest is remembered on the
        record, held against any proof that raced ahead of the response, and
        the dispute timer is armed only if something is still outstanding.
        """

        edge = self._expected_edge(record)
        for block_id, digest in promised.items():
            self.tracker.watch_block(record.operation_id, block_id, digest)
        for block_id in promised:
            early = self._early_proofs.get((edge, block_id))
            if early is not None:
                self._settle_block(record, early, now)
        if record.phase is CommitPhase.PHASE_ONE and not record.awaiting_blocks:
            # Nothing was promised uncertified (a get over certified state).
            self.tracker.mark_phase_two(record.operation_id, now)
        elif record.phase is not CommitPhase.PHASE_TWO:
            self._arm_dispute_timer(record.operation_id)

    def _settle_block(self, record: OperationRecord, proof: Any, now: float) -> None:
        """Hold a verified block proof against the digest *record* was promised."""

        promised = record.promised_digests.get(proof.block_id)
        if promised is not None and promised != proof.block_digest:
            # The edge promised (or served) one digest, the cloud certified another.
            suspicion = (
                "certified-digest-mismatch" if record.is_write else "read-content-mismatch"
            )
            self.stats["proof_mismatches"] += 1
            self._record_suspicion(suspicion, proof.block_id, record.operation_id)
            self._send_dispute(record)
            return
        # A split batch still PENDING has entries no receipt covers yet: it
        # cannot be durably committed however fast this block's proof
        # arrived.  Resolve the block; Phase II waits for full Phase I.
        if (
            self.tracker.resolve_block(record.operation_id, proof.block_id)
            and record.phase is not CommitPhase.PENDING
        ):
            self.tracker.mark_phase_two(record.operation_id, now, proof)

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
        self._early_proofs.pop((proof.edge, proof.block_id), None)
        self._early_proofs[(proof.edge, proof.block_id)] = proof
        if len(self._early_proofs) > self.EARLY_PROOF_WINDOW:
            del self._early_proofs[next(iter(self._early_proofs))]
        for record in self.tracker.operations_waiting_on_block(proof.block_id):
            # Block ids are edge-local: the same id from another edge is a
            # different block entirely.
            if self._expected_edge(record) == proof.edge:
                self._settle_block(record, proof, now)

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
        self.tracker.mark_phase_one(record.operation_id, now, statement.block_id)
        if (
            response.proof is not None
            and response.proof.cloud == self.cloud
            and response.proof.certifies(block)
            and response.proof.verify(self.env.registry)
        ):
            self.tracker.mark_phase_two(record.operation_id, now, response.proof)
            return
        # Phase I read: wait for the block proof, keep the evidence.
        self._await_certificates(record, {statement.block_id: recomputed}, now)

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
        uncertified = (item for item in response.proof.level_zero if not item.is_certified)
        self._await_certificates(
            record, {item.block_id: item.block.digest() for item in uncertified}, now
        )

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
            self._record_suspicion("proof-timeout", record.block_id, operation_id)
            self._send_dispute(record)

        self.env.schedule(timeout, check, label=f"{self.node_id}:dispute-timer")

    def _send_dispute(self, record: OperationRecord, kind: Optional[str] = None) -> None:
        if kind is None:
            # A certificate that is missing or differs from what was promised.
            kind = "missing-proof" if record.is_write else "read-mismatch"
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
