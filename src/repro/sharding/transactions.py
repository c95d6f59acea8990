"""Cross-shard atomic transactions: client-coordinated 2PC over certified
Phase I receipts.

The sharded fleet (:mod:`repro.sharding`) routes every operation to one
shard's owning edge, so a multi-key write spanning partitions has no
atomicity story of its own — each owner Phase I commits independently.
This module (the coordinator and the decision-record codec; the edge's half
is :mod:`repro.sharding.participant`) layers a two-phase commit on the
existing certified machinery without adding any new trusted party:

* **Phase 1 — prepare.**  The coordinating *client* splits the write set
  per shard (redirect-aware, through the same verified shard map puts use)
  and sends each participant edge a signed
  :class:`~repro.messages.txn_messages.TxnPrepareStatement` with the
  client-signed put entries.  The edge stages the writes in its partition's
  staging buffer — invisible to gets, merges, and the log — and answers
  with a signed :class:`~repro.messages.txn_messages.TxnPrepareReceipt`
  bound to the transaction id, the staged write set, the shard's Phase I
  log position, and an expiry deadline.
* **Phase 2 — decision.**  With every receipt verified (and none expired)
  the coordinator signs a commit
  :class:`~repro.messages.txn_messages.TxnDecisionStatement`; any missing,
  rejected, or tampered receipt (or the receipt timer) produces a signed
  abort instead.  Each participant atomically applies or discards its
  staged writes, and the decision enters the partition's *log* as a
  marker entry — on commit, in the same block as the applied writes — so
  lazy certification and the dispute machinery cover the transaction end
  to end.

Trust argument (which signed artifact convicts which misbehaviour):

* a participant that *misquotes* the write set in its receipt is convicted
  by the pair (client-signed prepare statement, edge-signed receipt) —
  ``prepare-receipt-mismatch``;
* a participant that *serves* a staged write after a signed abort is
  convicted by the triple (edge-signed receipt, coordinator-signed abort,
  edge-signed get response) — ``staged-abort-serve``;
* a coordinator that *equivocates* (signs both a commit and an abort) is
  convicted by the contradictory pair of its own signed decisions —
  ``coordinator-equivocation``;
* a participant that commits staged writes and then *lies about them* is
  already covered by the base protocol: the commit block is an ordinary
  block with a Phase I receipt and lazy certification, so digest
  equivocation, omission, and read mismatches convict exactly as before.

2PC's classic blocking window is handled with bounded presumed-abort: the
receipt's ``expires_at`` is part of the signed contract, the coordinator
only commits while every receipt is unexpired, and a participant whose
deadline passes without a decision aborts unilaterally and logs the abort
record (``coordinator abandonment``).  A shard mid-handoff resolves its
staged prepares before the drain can offer the shard away, so a
transaction can never straddle an ownership change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from ..common.config import ShardingConfig
from ..common.errors import ProtocolError, SerializationError
from ..common.identifiers import (
    NodeId,
    OperationId,
    OperationKind,
    SequenceGenerator,
    ShardId,
)
from ..crypto.hashing import digest_value
from ..faults.retry import Retransmission, RetryPolicy
from ..log.entry import LogEntry, make_entry
from ..lsmerkle.codec import SEQUENCE_STRIDE, decode_put, encode_put, is_put_payload
from ..messages.txn_messages import (
    TXN_ABORT,
    TXN_COMMIT,
    TxnDecisionAck,
    TxnDecisionMessage,
    TxnDecisionStatement,
    TxnDispute,
    TxnId,
    TxnPrepareReceipt,
    TxnPrepareRejection,
    TxnPrepareRequest,
    TxnPrepareStatement,
    TxnWrite,
)
from ..nodes.dispatch import open_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .client import ShardedClient


# ----------------------------------------------------------------------
# Decision records (the log entries Phase 2 appends)
# ----------------------------------------------------------------------
_TXN_DECISION_PREFIX = b"txndec\x00"


def encode_txn_decision(txn_id: TxnId, decision: str, reason: str = "") -> bytes:
    """Encode a transaction decision as a log-entry payload.

    The prefix differs from the ``kvput`` one, so decision records are
    transparently skipped by the LSMerkle page codec — they live in the
    certified log (auditable, dispute-ready) without entering the index.
    """

    if "|" in reason:
        raise SerializationError("decision reasons must not contain '|'")
    body = (
        f"{decision}|{txn_id.coordinator.role.value}:{txn_id.coordinator.name}"
        f"|{txn_id.sequence}|{reason}"
    )
    return _TXN_DECISION_PREFIX + body.encode("utf-8")


def is_txn_decision_payload(payload: bytes) -> bool:
    """Whether a log entry payload encodes a transaction decision record."""

    return payload.startswith(_TXN_DECISION_PREFIX)


def decode_txn_decision(payload: bytes) -> tuple[str, str, int, str]:
    """Decode a decision payload into ``(decision, coordinator, seq, reason)``."""

    if not is_txn_decision_payload(payload):
        raise SerializationError("payload does not encode a transaction decision")
    body = payload[len(_TXN_DECISION_PREFIX) :].decode("utf-8")
    decision, coordinator, sequence, reason = body.split("|", 3)
    return decision, coordinator, int(sequence), reason


# ----------------------------------------------------------------------
# Participant-side staging state (lives on ``participant.TxnPartitionState``)
# ----------------------------------------------------------------------
@dataclass
class StagedTxn:
    """One prepared-but-undecided transaction staged at a participant edge.

    The client-signed entries wait here — outside the log, the buffer, and
    the index — until the signed decision applies or discards them.  The
    receipt the edge answered with is kept so duplicate prepares can be
    re-acknowledged idempotently.
    """

    txn_id: TxnId
    shard_id: Optional[ShardId]
    coordinator: NodeId
    requester: NodeId
    operation_id: OperationId
    entries: tuple[LogEntry, ...]
    writes: tuple[TxnWrite, ...]
    staged_at: float
    expires_at: float
    receipt: TxnPrepareReceipt


# ----------------------------------------------------------------------
# Coordinator-side transaction state
# ----------------------------------------------------------------------
@dataclass
class TxnParticipant:
    """One shard's leg of a transaction, as the coordinator tracks it."""

    shard_id: ShardId
    owner: NodeId
    operation_id: OperationId
    statement: TxnPrepareStatement
    signature: object
    entries: tuple[LogEntry, ...]
    receipt: Optional[TxnPrepareReceipt] = None
    ack: Optional[TxnDecisionAck] = None


@dataclass
class TxnRecord:
    """Everything the coordinator remembers about one transaction."""

    txn_id: TxnId
    participants: dict[ShardId, TxnParticipant]
    started_at: float
    state: str = "preparing"  # preparing | committed | aborted
    decision: Optional[TxnDecisionMessage] = None
    decided_at: Optional[float] = None
    reason: str = ""

    @property
    def all_prepared(self) -> bool:
        return all(p.receipt is not None for p in self.participants.values())

    @property
    def all_acked(self) -> bool:
        return all(p.ack is not None for p in self.participants.values())

    @property
    def participant_shards(self) -> tuple[ShardId, ...]:
        return tuple(sorted(self.participants))


class TxnCoordinator:
    """Drives 2PC for one :class:`~repro.sharding.client.ShardedClient`.

    The coordinator is *the client*: no new trusted party exists, and every
    decision it takes is a signed statement it can be held to.  Participant
    resolution is redirect-aware — a prepare answered with a signed
    ``NotOwnerRedirect`` re-resolves the owner through the client's verified
    shard map and re-sends the same signed prepare, bounded by the client's
    redirect cap.
    """

    def __init__(self, client: "ShardedClient") -> None:
        self.client = client
        self._seq = SequenceGenerator()
        #: Live and recently decided transactions.  Decided records (and
        #: their aborted-write index entries) are evicted once the
        #: retention horizon passes — see :meth:`_arm_record_eviction` —
        #: so coordinator memory is bounded by in-window transactions, not
        #: lifetime count.  The horizon is also the staged-abort-serve
        #: *detection* window: a production deployment would persist the
        #: signed artifacts instead of aging them out.
        self.records: dict[TxnId, TxnRecord] = {}
        #: ``(key, value digest)`` staged by transactions that *aborted* —
        #: the lookup behind staged-abort-serve detection on get responses.
        #: Entries are evicted the moment this client legitimately rewrites
        #: the same pair (see :meth:`note_rewrite`): a retried-after-abort
        #: put must never read back as "serving aborted staged state", or
        #: the auto-dispute would frame an honest edge.
        self.aborted_writes: dict[tuple[str, str], TxnId] = {}
        #: ``(key, value digest)`` of this client's own acknowledged plain
        #: writes, with the ack time (see :meth:`note_entries`): an abort
        #: never registers a pair the client committed itself, however the
        #: plain write and the transaction interleaved.
        self.recent_own_writes: dict[tuple[str, str], float] = {}
        #: Trace context of each live transaction's ``txn.begin`` root span
        #: (observability only); evicted with the record.
        self._obs_txn: dict[TxnId, object] = {}

    def _span(self, name: str, **attrs):
        """A span on the deployment's shared tracer (no-op when it has none)."""

        obs = self.client.env.obs
        tracer = obs.tracer if obs is not None else None
        return open_span(tracer, self.client.node_id, name, **attrs)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _sharding(self) -> ShardingConfig:
        return self.client.config.sharding_or_default()

    def note_rewrite(self, key: str, value: bytes) -> None:
        """Forget an aborted write this client is legitimately re-issuing.

        Called by every write path before the write leaves the client.  The
        guard keeps the hot path free: the digest is only computed while
        the aborted-write index is non-empty.
        """

        if self.aborted_writes:
            self.aborted_writes.pop((key, digest_value(value)), None)

    def note_entries(self, entries) -> None:
        """Record this client's *acknowledged* plain-write pairs.

        Called when an ordinary write completes: the pairs enter
        ``recent_own_writes`` (so an abort deciding later never registers a
        pair this client legitimately committed — the put/txn in-flight
        race) and leave the aborted-write index (the put completed after
        the abort).  Pruned on the same horizon as transaction records.
        """

        for entry in entries:
            if not is_put_payload(entry.payload):
                continue
            key, value = decode_put(entry.payload)
            pair = (key, digest_value(value))
            self.recent_own_writes[pair] = self.client.env.now()
            self.aborted_writes.pop(pair, None)
        if len(self.recent_own_writes) >= 1024:
            # Keep the memory time-bounded even for clients that never run
            # a transaction (no eviction timer ever fires for them).
            self._prune_own_writes()

    def _prune_own_writes(self) -> None:
        horizon = (
            self.client.env.now() - 8 * self._sharding().txn_prepare_timeout_s
        )
        self.recent_own_writes = {
            pair: at
            for pair, at in self.recent_own_writes.items()
            if at >= horizon
        }

    def _has_pending_own_write(self, key: str, value_digest: str) -> bool:
        """Whether a plain write of exactly this pair is still in flight."""

        for record in self.client.tracker.pending_operations():
            if record.details.get("txn_id") is not None:
                continue
            for entry in record.entries or ():
                if not is_put_payload(entry.payload):
                    continue
                entry_key, value = decode_put(entry.payload)
                if entry_key == key and digest_value(value) == value_digest:
                    return True
        return False

    # ------------------------------------------------------------------
    # Phase 1: prepare fan-out
    # ------------------------------------------------------------------
    def begin(self, items: Iterable[tuple[str, bytes]]) -> TxnId:
        """Start an atomic multi-key put; returns the transaction id.

        Splits *items* per owning shard, registers one tracked prepare
        operation per participant (so receipts, redirects, and the eventual
        commit acknowledgements flow through the client's ordinary
        verification machinery), and fans the signed prepares out.
        """

        client = self.client
        env = client.env
        now = env.now()
        groups = client.router.split_batch(items)
        if not groups:
            raise ProtocolError("a transaction needs at least one write")
        # Resolve every owner before registering anything: a partial
        # registration would leak forever-pending tracker operations.
        unresolved = sorted(
            shard_id for shard_id, owner in groups if owner is None
        )
        if unresolved:
            raise ProtocolError(
                f"no resolvable owner for shard(s) {unresolved}; cannot prepare"
            )
        txn_id = TxnId(coordinator=client.node_id, sequence=self._seq.next())
        participant_shards = tuple(sorted(shard for shard, _owner in groups))
        participants: dict[ShardId, TxnParticipant] = {}
        for (shard_id, owner), group in sorted(
            groups.items(), key=lambda item: item[0][0]
        ):
            for key, value in group:
                self.note_rewrite(key, value)
            entries = tuple(
                make_entry(
                    registry=env.registry,
                    producer=client.node_id,
                    sequence=client._entry_seq.next(),
                    payload=encode_put(key, value),
                    produced_at=now,
                )
                for key, value in group
            )
            writes = tuple(
                TxnWrite(key=key, value_digest=digest_value(value))
                for key, value in group
            )
            operation_id = client._next_operation_id()
            record = client.tracker.register(
                operation_id,
                OperationKind.PUT,
                now,
                num_entries=len(entries),
                entry_sequences=tuple(entry.sequence for entry in entries),
                edge=owner,
                shard_id=shard_id,
                txn_id=txn_id,
                txn_prepare=True,
            )
            client._annotate_issue(record)
            statement = TxnPrepareStatement(
                coordinator=client.node_id,
                txn_id=txn_id,
                shard_id=shard_id,
                writes=writes,
                participant_shards=participant_shards,
                staged_floor=client._observed_block_ids.get(owner, -1) + 1,
                issued_at=now,
            )
            participants[shard_id] = TxnParticipant(
                shard_id=shard_id,
                owner=owner,
                operation_id=operation_id,
                statement=statement,
                signature=env.registry.sign(client.node_id, statement),
                entries=entries,
            )
        txn = TxnRecord(txn_id=txn_id, participants=participants, started_at=now)
        self.records[txn_id] = txn
        client.stats["txns_started"] += 1
        client.stats["writes_issued"] += len(participants)
        client.stats["entries_sent"] += sum(
            len(p.entries) for p in participants.values()
        )
        # Root span of the transaction's trace: the prepares carry its
        # context to the participants, and txn.decide parents off it.
        with self._span(
            "txn.begin", parent=None, txn=str(txn_id), shards=len(participants)
        ) as span:
            if span is not None:
                self._obs_txn[txn_id] = span.context
            for participant in participants.values():
                self._send_prepare(participant)
        env.schedule(
            self._sharding().txn_receipt_timeout_s,
            lambda: self._receipt_timeout(txn_id),
            label=f"{client.node_id}:txn-receipt-timer",
        )
        return txn_id

    def _send_prepare(self, participant: TxnParticipant) -> None:
        client = self.client
        client.env.send(
            client.node_id,
            participant.owner,
            TxnPrepareRequest(
                statement=participant.statement,
                signature=participant.signature,
                operation_id=participant.operation_id,
                entries=participant.entries,
            ),
        )

    def reroute_prepare(
        self, txn_id: TxnId, shard_id: ShardId, owner: NodeId
    ) -> None:
        """Re-send one participant's prepare to a redirected owner.

        The statement is re-derived for the *new* owner: the staging
        watermark is per-edge (one past the highest block id observed from
        that edge), so re-sending the old owner's floor to a fresh edge
        whose log starts lower would be deterministically rejected.  The
        re-signed statement supersedes the old one everywhere the
        coordinator compares against it (receipt digest binding included).
        """

        client = self.client
        txn = self.records.get(txn_id)
        if txn is None or txn.state != "preparing":
            return
        participant = txn.participants.get(shard_id)
        if participant is None:
            return
        participant.owner = owner
        old = participant.statement
        participant.statement = TxnPrepareStatement(
            coordinator=old.coordinator,
            txn_id=old.txn_id,
            shard_id=old.shard_id,
            writes=old.writes,
            participant_shards=old.participant_shards,
            staged_floor=client._observed_block_ids.get(owner, -1) + 1,
            issued_at=client.env.now(),
        )
        participant.signature = client.env.registry.sign(
            client.node_id, participant.statement
        )
        client.stats["txn_prepare_reroutes"] += 1
        self._send_prepare(participant)

    # ------------------------------------------------------------------
    # Receipt collection → decision
    # ------------------------------------------------------------------
    def on_receipt(self, sender: NodeId, receipt: TxnPrepareReceipt) -> None:
        client = self.client
        env = client.env
        env.charge(env.params.verify_seconds)
        txn = self.records.get(receipt.txn_id)
        if txn is None:
            return
        participant = txn.participants.get(receipt.shard_id)
        if participant is None:
            return
        statement = receipt.statement
        if statement.edge != sender or sender != participant.owner:
            return
        if not receipt.verify(env.registry):
            return
        if txn.state != "preparing":
            # A straggler receipt after the decision (e.g. a prepare parked
            # behind a shard handoff): re-send the decision so the orphaned
            # stage resolves instead of waiting for its expiry.
            if txn.decision is not None:
                env.send(client.node_id, sender, txn.decision)
            return
        if (
            statement.txn_id != participant.statement.txn_id
            or statement.prepare_digest != digest_value(participant.statement)
            or statement.writes != participant.statement.writes
        ):
            # The edge signed a receipt for a write set (or a prepare) the
            # coordinator never sent it: a provable lie — dispute and abort.
            client.stats["txn_receipt_mismatches"] += 1
            self._dispute_receipt_mismatch(participant, receipt)
            self._decide(txn, TXN_ABORT, "tampered prepare receipt")
            return
        participant.receipt = receipt
        if not txn.all_prepared:
            return
        now = env.now()
        if any(
            now >= p.receipt.statement.expires_at
            for p in txn.participants.values()
        ):
            # A participant's promise horizon already passed: committing
            # could split the fleet (it may have presumed abort), so the
            # only safe decision is abort.
            self._decide(txn, TXN_ABORT, "prepare receipt expired")
            return
        self._decide(txn, TXN_COMMIT, "all participants prepared")

    def on_rejection(self, sender: NodeId, rejection: TxnPrepareRejection) -> None:
        txn = self.records.get(rejection.txn_id)
        if txn is None or txn.state != "preparing":
            return
        participant = txn.participants.get(rejection.shard_id)
        if participant is None or sender != participant.owner:
            return
        self.client.stats["txn_prepare_rejections"] += 1
        self._decide(txn, TXN_ABORT, f"participant refused: {rejection.reason}")

    def on_ack(self, sender: NodeId, ack: TxnDecisionAck) -> None:
        txn = self.records.get(ack.txn_id)
        if txn is None:
            return
        participant = txn.participants.get(ack.shard_id)
        if participant is None or ack.edge != sender:
            return
        if participant.ack is None:
            participant.ack = ack
            self.client.stats["txn_decision_acks"] += 1

    def _receipt_timeout(self, txn_id: TxnId) -> None:
        txn = self.records.get(txn_id)
        if txn is None or txn.state != "preparing":
            return
        missing = sum(1 for p in txn.participants.values() if p.receipt is None)
        self._decide(
            txn, TXN_ABORT, f"{missing} prepare receipt(s) missing at timeout"
        )

    # ------------------------------------------------------------------
    # Phase 2: the signed decision
    # ------------------------------------------------------------------
    def _decide(self, txn: TxnRecord, decision: str, reason: str) -> None:
        if txn.state != "preparing":
            return
        client = self.client
        env = client.env
        now = env.now()
        statement = TxnDecisionStatement(
            coordinator=client.node_id,
            txn_id=txn.txn_id,
            decision=decision,
            participant_shards=txn.participant_shards,
            decided_at=now,
        )
        message = TxnDecisionMessage(
            statement=statement, signature=env.registry.sign(client.node_id, statement)
        )
        txn.decision = message
        txn.decided_at = now
        txn.reason = reason
        txn.state = "committed" if decision == TXN_COMMIT else "aborted"
        client.stats[
            "txns_committed" if decision == TXN_COMMIT else "txns_aborted"
        ] += 1
        # Every participant gets the decision — including ones whose receipt
        # never arrived: if they staged late (parked request, slow link) the
        # decision cleans the orphan stage instead of leaving it to expire.
        with self._span(
            "txn.decide",
            parent=self._obs_txn.get(txn.txn_id),
            txn=str(txn.txn_id),
            decision=decision,
        ):
            for participant in txn.participants.values():
                env.send(client.node_id, participant.owner, message)
        self._arm_decision_retry(txn)
        for participant in txn.participants.values():
            # The signed entries exist to re-send prepares; after the
            # decision they are dead weight — drop them so long-running
            # workloads don't retain every transaction's payloads (the
            # statements, receipts, and acks kept below are tiny).
            participant.entries = ()
        self._arm_record_eviction(txn)
        if decision == TXN_ABORT:
            for participant in txn.participants.values():
                for write in participant.statement.writes:
                    pair = (write.key, write.value_digest)
                    if pair in self.recent_own_writes:
                        # This client committed the same pair itself as a
                        # plain write: a later serve of it is legitimate,
                        # not staged state.
                        continue
                    self.aborted_writes[pair] = txn.txn_id
                record = client.tracker.get(participant.operation_id)
                if record.phase_two_at is None:
                    client.tracker.mark_failed(
                        participant.operation_id, now, f"transaction aborted: {reason}"
                    )

    #: How many times an unacknowledged decision is re-sent before the
    #: coordinator gives up and leaves the participant to its presumed-abort
    #: expiry.
    DECISION_RETRY_LIMIT = 5

    def _decision_retry_policy(self) -> "RetryPolicy":
        """Spacing that lands *every* retry inside the safe delivery window.

        A commit is only signed while each receipt is unexpired, so the
        participants' stages live for at least ``txn_prepare_timeout_s -
        txn_receipt_timeout_s`` more seconds — retries past that horizon
        would hit already-discarded stages (the commit/abort split the
        retransmission exists to prevent).  The whole retry budget is
        therefore spread evenly across that gap: a constant
        :class:`~repro.faults.retry.RetryPolicy` with the budget as its
        attempt cap (exponential backoff would push late attempts out of
        the safe window).  Config guarantees the gap is positive
        (``txn_prepare_timeout_s > txn_receipt_timeout_s``).
        """

        sharding = self._sharding()
        window = sharding.txn_prepare_timeout_s - sharding.txn_receipt_timeout_s
        return RetryPolicy.constant(
            window / (self.DECISION_RETRY_LIMIT + 1),
            max_attempts=self.DECISION_RETRY_LIMIT,
        )

    def _arm_decision_retry(self, txn: TxnRecord) -> None:
        """Re-send the signed decision until every participant acknowledged.

        A decision lost on the wire must not split the transaction: without
        retransmission one participant would presume abort at its expiry
        while the rest committed.  Duplicate deliveries are harmless — the
        participants absorb them idempotently off the decided tombstone.
        """

        client = self.client

        def resend() -> bool:
            if txn.all_acked or txn.decision is None:
                return False
            for participant in txn.participants.values():
                if participant.ack is None:
                    client.stats["txn_decision_retries"] += 1
                    client.env.send(
                        client.node_id, participant.owner, txn.decision
                    )
            return True

        Retransmission(
            client.env.schedule,
            self._decision_retry_policy(),
            resend,
            label=f"{client.node_id}:txn-decision-retry",
        )

    def _arm_record_eviction(self, txn: TxnRecord) -> None:
        """Age a decided transaction's coordinator state out after a while.

        Mirrors the participant-side tombstone eviction: well past the
        signed timing window nothing protocol-critical can still reference
        the record, so it and its aborted-write index entries go — keeping
        a long-running coordinator's memory proportional to in-window
        transactions.
        """

        def evict() -> None:
            record = self.records.pop(txn.txn_id, None)
            self._obs_txn.pop(txn.txn_id, None)
            if record is None:
                return
            for participant in record.participants.values():
                for write in participant.statement.writes:
                    pair = (write.key, write.value_digest)
                    if self.aborted_writes.get(pair) == txn.txn_id:
                        del self.aborted_writes[pair]
            self._prune_own_writes()

        self.client.env.schedule(
            8 * self._sharding().txn_prepare_timeout_s,
            evict,
            label=f"{self.client.node_id}:txn-record-evict",
        )

    # ------------------------------------------------------------------
    # Disputes
    # ------------------------------------------------------------------
    def _dispute_receipt_mismatch(
        self, participant: TxnParticipant, receipt: TxnPrepareReceipt
    ) -> None:
        client = self.client
        client.stats["txn_disputes_sent"] += 1
        client.env.send(
            client.node_id,
            client.cloud,
            TxnDispute(
                reporter=client.node_id,
                accused=receipt.edge,
                txn_id=receipt.txn_id,
                kind="prepare-receipt-mismatch",
                prepare_statement=participant.statement,
                prepare_signature=participant.signature,
                receipt=receipt,
            ),
        )

    def maybe_dispute_staged_serve(
        self, statement, signature, record_sequence: Optional[int], proof=None
    ) -> bool:
        """Dispute a get response that serves an aborted transaction's write.

        Called by the client after a get response verified: if the served
        ``(key, value digest)`` matches a write staged by a transaction this
        coordinator *aborted*, and the proof places the record at or after
        the prepare receipt's staged log position, the serving edge is
        presenting state the signed abort ordered discarded.  The evidence
        triple (edge-signed receipt, coordinator-signed abort, edge-signed
        serve statement) is self-contained, so the cloud can convict without
        trusting the reporter.  Returns whether a dispute was raised.

        Two guards keep honest edges safe from their own coordinator:
        pairs the client legitimately *rewrites* after the abort leave the
        index (:meth:`note_rewrite`), and a value whose proven sequence
        *predates* the receipt's ``log_position`` is an earlier write that
        happens to share the bytes, never the staged state.  The common
        case stays near-free on the get hot path: the aborted-write lookup
        is a dict miss, and the response signature is only re-verified —
        and its CPU cost charged — once that lookup hits.
        """

        if not statement.found or statement.value_digest is None:
            return False
        if record_sequence is None:
            return False
        txn_id = self.aborted_writes.get((statement.key, statement.value_digest))
        if txn_id is None:
            return False
        if self._has_pending_own_write(statement.key, statement.value_digest):
            # This client's own plain write of the pair is still in flight:
            # the served value may be that legitimate write racing its ack.
            return False
        env = self.client.env
        env.charge(env.params.verify_seconds)
        if signature.signer != statement.edge or not env.registry.verify(
            signature, statement
        ):
            return False
        txn = self.records.get(txn_id)
        if txn is None or txn.decision is None:
            return False
        accused = None
        for participant in txn.participants.values():
            if (
                participant.receipt is not None
                and participant.receipt.edge == statement.edge
                and any(
                    write.key == statement.key
                    and write.value_digest == statement.value_digest
                    for write in participant.receipt.statement.writes
                )
            ):
                accused = participant
                break
        if accused is None:
            return False
        if record_sequence < accused.statement.staged_floor * SEQUENCE_STRIDE:
            # The proven record predates this coordinator's own staging
            # watermark: a legitimate pre-transaction write of the same
            # bytes (the watermark is coordinator-observed, so a lying
            # participant cannot widen this exoneration).
            return False
        client = self.client
        client.stats["txn_disputes_sent"] += 1
        # One dispute per staged pair: the ledger is append-only and the
        # evidence does not improve with repetition — re-reads of the same
        # key must not re-punish.
        del self.aborted_writes[(statement.key, statement.value_digest)]
        client.env.send(
            client.node_id,
            client.cloud,
            TxnDispute(
                reporter=client.node_id,
                accused=statement.edge,
                txn_id=txn_id,
                kind="staged-abort-serve",
                prepare_statement=accused.statement,
                prepare_signature=accused.signature,
                receipt=accused.receipt,
                decision=txn.decision,
                serve_statement=statement,
                serve_signature=signature,
                # The index proof + coordinator-signed floor make the
                # conviction proof-bound at the cloud: neither a backdated
                # issued_at nor an inflated receipt position can shield the
                # edge.
                serve_proof=proof,
            ),
        )
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state_of(self, txn_id: TxnId) -> str:
        return self.records[txn_id].state

    def record(self, txn_id: TxnId) -> TxnRecord:
        return self.records[txn_id]
