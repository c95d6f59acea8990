"""Authenticated clients: data producers and consumers.

Clients sign every entry they produce, keep the edge node's signed responses
as evidence, verify every proof they receive, and raise disputes with the
cloud when evidence and reality diverge (Algorithm 1 and Section IV-D/E of
the paper).  The client also records when each of its operations reached
Phase I and Phase II commitment — the raw material for the paper's latency,
throughput, and commit-rate figures.

A client writes to its home edge but may read from any edge of the fleet;
every rule below is per serving edge.  A write's entries may be spread over
several blocks (other clients' entries fill the blocks around them): it
reaches Phase I once every entry is acknowledged and Phase II once every
acknowledged block is certified.

Retention:

* ``_early_proofs``: block proofs that overtook the response that makes an
  operation wait for them.  A proof races its response by a transmission
  time, so only the ``EARLY_PROOF_WINDOW`` (256) most recent are kept.
* ``held`` (:class:`~repro.storage.codec.HeldSet`): a write's signed
  entries from send until the write reaches Phase I or fails, so the
  decoder hands back this client's own entries where the edge's answer
  echoes them; and, under ``("get", edge)``, the level-0 blocks of the
  latest get that verified from each edge this client reads from, so a
  repeat get's blocks come back as the ones it verified.  A get whose
  proof holds no level-0 block empties its edge's hold; one that fails
  verification leaves it.  No cap is needed: the keys are edges this
  client chose to send gets to (a proof's contents never name one), and
  each hold is what one verified frame carried, under
  :data:`~repro.service.framing.MAX_FRAME_BYTES`.  Only a decoder reads it:
  on the simulator it costs one reference per write in flight and per edge
  read from.
* ``_key_maps`` (edge → :data:`~repro.lsmerkle.read_proof.KeyMaps`): for
  every block held under ``("get", edge)``, a map from key to that block's
  put records, built once by the verifier when the block first arrives
  and handed back with its verdict
  (:attr:`~repro.lsmerkle.read_proof.VerifiedGet.key_maps`), so a repeat
  get answers each held block with one lookup instead of decoding every
  put's key.  Replaced with the hold, so it covers exactly the held
  blocks: a root-only proof empties it, a failed get leaves it.  One
  record per put of a held block (on the simulator the edge's own
  records, which its level-0 pages already keep).
* ``tracker`` (:class:`CommitTracker`): every operation's record, with its
  receipt and proof — the client's dispute evidence and the figures' raw
  latencies.  Kept forever; a driver that only needs percentiles could
  forget finished operations.  A write's signed entries stay on its record
  only until Phase II, failure or its one re-send, and the receipt of each
  block only until that block's proof arrives.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from ..common.config import SystemConfig
from ..common.errors import ProofVerificationError, SerializationError
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
from ..log.proofs import CommitPhase, PhaseOneReceipt
from ..lsmerkle.codec import encode_put, malformed_put
from ..lsmerkle.read_proof import KeyMaps, verify_get_proof
from ..messages.kv_messages import GetRequest, GetResponse
from ..messages.log_messages import (
    AppendBatchRequest,
    AppendBatchResponse,
    BlockProofMessage,
    DegradedModeNotice,
    DisputeRequest,
    DisputeVerdict,
    GossipBatchMessage,
    GossipBatchStatement,
    GossipMessage,
    ReadRequest,
    ReadResponse,
)
from ..sim.environment import Environment
from ..storage.codec import HeldSet
from .dispatch import DispatchTable, TableDispatchNode


#: Assumed bound on the clock error between a client and the cloud, added
#: to the freshness window a get's signed root must be within (§V-D
#: discusses tens to hundreds of milliseconds).
CLOCK_SKEW_S = 0.1


class Client(TableDispatchNode):
    """One authenticated client: it writes to its home edge (its partition)
    and may read from any edge."""

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

        #: What this client's decoder may hand back (see Retention).
        self.held = HeldSet()
        self.tracker = CommitTracker(held=self.held)
        #: The key maps of the blocks held under ``("get", edge)``, per edge
        #: (see Retention).
        self._key_maps: dict[NodeId, KeyMaps] = {}
        #: The certified log size gossip proves, per edge (the omission
        #: bound of Section IV-E for a read served by that edge).
        self.gossip_views: dict[NodeId, GossipView] = {}
        self._operation_seq = SequenceGenerator()
        self._entry_seq = SequenceGenerator()

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
        #: global-root version this client has observed, per (serving edge,
        #: shard id) root sequence; the shard id is ``None`` on a paper edge.
        #: Responses verified against an older root of the same sequence are
        #: rejected as stale.
        self._last_root_versions: dict[tuple[NodeId, Optional[int]], int] = {}
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
        for payload in payloads:
            if malformed_put(payload):
                # The edge's own admission check: it would drop the entry
                # without an answer, and the write would never settle.
                raise SerializationError(
                    "payload has the put prefix but no decodable key"
                )
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
        record.entries = entries
        self.held.hold(operation_id, entries)
        self._annotate_issue(record)
        self.stats["writes_issued"] += 1
        self.stats["entries_sent"] += len(entries)
        self._send_append(record, target, entries)
        return operation_id

    def _send_append(
        self, record: OperationRecord, target: NodeId, entries: tuple
    ) -> None:
        """Send a write's signed entries (first time, re-send or re-route)."""

        self.env.send(
            self.node_id,
            target,
            AppendBatchRequest(
                requester=self.node_id,
                operation_id=record.operation_id,
                kind=record.kind,
                entries=entries,
                shard_id=record.details.get("shard_id"),
            ),
        )

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

    def _read_provenance(self, record: OperationRecord) -> tuple[NodeId, ...]:
        """Extra writers whose certified blocks may appear in a get proof.

        Empty on the paper's unsharded edges.  Shard-aware subclasses return
        the shard's current writer plus its provenance chain when a read is
        served by a replica or a promoted (post-failover) writer — those
        proofs legitimately carry blocks certified under other edges'
        names, each still pinned to its own writer's certificate.
        """

        return ()

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
        if record.phase in (CommitPhase.PHASE_TWO, CommitPhase.FAILED):
            # Settled: a late or replayed acknowledgement changes nothing.
            return
        now = self.env.now()
        expected_edge = self._expected_edge(record)

        receipt = response.receipt
        if not receipt.verify(self.env.registry) or receipt.edge != expected_edge:
            self._record_suspicion(
                "invalid-receipt", response.block_id, response.operation_id
            )
            self.tracker.mark_failed(response.operation_id, now, "invalid receipt")
            return

        # An honest edge always returns the block its receipt signs, so a
        # response without one is as broken as one whose block mismatches.
        block = response.block
        if block is not None:
            self.env.charge(params.hash_cost(block.wire_size))
        if block is None or not receipt.matches_block(block):
            self._record_suspicion(
                "receipt-block-mismatch", response.block_id, response.operation_id
            )
            self.tracker.mark_failed(
                response.operation_id, now, "receipt does not match block"
            )
            return
        expected = set(record.details.get("entry_sequences", ()))
        newly_acked = expected & {
            entry.sequence for entry in block.entries if entry.producer == self.node_id
        }
        if expected and not newly_acked:
            # A block holding none of the operation's entries is a broken
            # promise, not a batch split across blocks.
            self._record_suspicion(
                "missing-entries", response.block_id, response.operation_id
            )
            self.tracker.mark_failed(
                response.operation_id, now, "entries missing from block"
            )
            return
        if record.phase is CommitPhase.PENDING:
            # A batch is acknowledged one block at a time: Phase I once every
            # entry has been promised in some block.
            acked = newly_acked | (record.acked_sequences or set())
            if expected <= acked:
                record.acked_sequences = None
                self.tracker.mark_phase_one(
                    response.operation_id,
                    now,
                    block_id=response.block_id,
                    receipt=receipt,
                )
            else:
                record.acked_sequences = acked
        self._await_certificates(
            record, {response.block_id: receipt.block_digest}, now, receipt
        )

    # ------------------------------------------------------ awaiting Phase II
    def _await_certificates(
        self,
        record: OperationRecord,
        promised: dict[int, str],
        now: float,
        receipt: Optional[PhaseOneReceipt] = None,
    ) -> None:
        """A verified response promised these blocks: wait for their proofs.

        The one place an operation starts waiting for Phase II — for puts,
        log reads and gets alike.  Each promised digest is remembered on the
        record (with *receipt*, a write's signed promise of its one block:
        the dispute's evidence), held against any proof that raced ahead of
        the response, and the dispute timer is armed only if something is
        still outstanding.
        """

        edge = self._expected_edge(record)
        for block_id, digest in promised.items():
            self.tracker.watch_block(record.operation_id, block_id, digest, receipt)
        for block_id in promised:
            early = self._early_proofs.get((edge, block_id))
            if early is not None:
                self._settle_block(record, early, now)
        if record.phase is CommitPhase.PHASE_ONE and not record.awaiting_blocks:
            # Nothing was promised uncertified (a get over certified state).
            self.tracker.mark_phase_two(record.operation_id, now)
        elif record.phase is not CommitPhase.PHASE_TWO:
            self._arm_dispute_timer(record)

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
            self._send_dispute(record, block_id=proof.block_id)
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
        # role is not Phase II evidence.  It may certify any edge's block;
        # each record settles only against its own serving edge below.
        if proof.cloud != self.cloud or not proof.verify(self.env.registry):
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
        if (
            statement.edge != self._expected_edge(record)
            or response.signature.signer != statement.edge
            or not self.env.registry.verify(response.signature, statement)
        ):
            self.stats["verification_failures"] += 1
            self.tracker.mark_failed(record.operation_id, now, "bad read signature")
            return
        record.details["read_statement"] = statement
        record.details["read_signature"] = response.signature

        if not statement.found:
            view = self.gossip_views.get(statement.edge)
            if view is not None and view.block_should_exist(statement.block_id):
                # Gossip says the block exists at that edge: omission attack.
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
        if (
            statement.edge != expected_edge
            or response.signature.signer != statement.edge
            or not self.env.registry.verify(response.signature, statement)
        ):
            self.stats["verification_failures"] += 1
            self.tracker.mark_failed(record.operation_id, now, "bad get signature")
            return
        record.details["get_statement"] = statement
        record.details["get_signature"] = response.signature

        window = self.config.security.freshness_window_s
        try:
            verified = verify_get_proof(
                registry=self.env.registry,
                cloud=self.cloud,
                edge=expected_edge,
                key=statement.key,
                proof=response.proof,
                now=now,
                freshness_window_s=(
                    None if window is None else window + CLOCK_SKEW_S
                ),
                provenance=self._read_provenance(record),
                key_maps=self._key_maps.get(expected_edge),
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
            version_key = (expected_edge, record.details.get("shard_id"))
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

        # Verified: every get from this edge until a merge repeats these.
        self.held.hold(
            ("get", expected_edge), [item.block for item in response.proof.level_zero]
        )
        self._key_maps[expected_edge] = verified.key_maps
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
        statement = message.statement
        if isinstance(statement, GossipBatchStatement):
            edges = [entry.edge for entry in statement.entries]
        else:
            edges = [statement.edge]
        for edge in edges:
            view = self.gossip_views.get(edge)
            if view is None:
                view = self.gossip_views[edge] = GossipView(edge=edge)
            view.update(message)

    # ------------------------------------------------------------------
    # Disputes
    # ------------------------------------------------------------------
    def _arm_dispute_timer(self, record: OperationRecord) -> None:
        timeout = self.config.security.dispute_timeout_s
        operation_id = record.operation_id

        def resend() -> None:
            # A certificate forward can be lost; the edge's replay protection
            # (Section IV-E) answers the same signed entries with the original
            # receipts and owes their proofs again.  Once per write; a
            # settled write no longer holds its entries (CommitTracker).
            entries, record.entries = record.entries, None
            if entries is not None:
                self._send_append(record, self._expected_edge(record), entries)

        def check() -> None:
            if record.phase in (CommitPhase.PHASE_TWO, CommitPhase.FAILED):
                return
            if record.phase is CommitPhase.PENDING:
                # Part of the write was never acknowledged: no receipt covers
                # it, so there is nothing to dispute.
                self._record_suspicion("missing-entries", record.block_id, operation_id)
                self.tracker.mark_failed(
                    operation_id, self.env.now(), "entries missing from block"
                )
                return
            self._record_suspicion("proof-timeout", record.block_id, operation_id)
            self._send_dispute(record)

        if record.entries is not None:
            self.env.schedule(timeout / 2, resend, label=f"{self.node_id}:resend")
        self.env.schedule(timeout, check, label=f"{self.node_id}:dispute-timer")

    def _send_dispute(
        self,
        record: OperationRecord,
        kind: Optional[str] = None,
        block_id: Optional[int] = None,
    ) -> None:
        """Accuse the serving edge before the cloud with the signed evidence
        behind *block_id* (by default the first block still lacking its
        proof): a write's receipt for it, or a read's signed statement."""

        if kind is None:
            # A certificate that is missing or differs from what was promised.
            kind = "missing-proof" if record.is_write else "read-mismatch"
        if block_id is None:
            block_id = next(iter(record.awaiting_blocks), None)
        dispute = DisputeRequest(
            client=self.node_id,
            kind=kind,
            receipt=record.awaiting_blocks.get(block_id),
            read_statement=record.details.get("read_statement"),
            read_signature=record.details.get("read_signature"),
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
