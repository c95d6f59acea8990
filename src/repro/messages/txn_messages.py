"""Messages of the cross-shard transaction protocol (client-coordinated 2PC).

A multi-key write that spans shards cannot ride one ``AppendBatchRequest``:
each shard's owning edge Phase I commits independently, so a client that
needs *atomicity* across partitions runs a two-phase commit over the
certified machinery (``repro.sharding.transactions``):

* **Phase 1 (prepare)** — the coordinating client signs one
  :class:`TxnPrepareStatement` per participant shard and ships it with the
  client-signed put entries.  The owning edge stages the writes (they stay
  invisible to gets and merges) and answers with a signed
  :class:`TxnPrepareReceipt` binding the transaction id, the staged write
  set, the shard's Phase I log position, and an expiry deadline.
* **Phase 2 (decision)** — once every participant's receipt is verified the
  client signs one :class:`TxnDecisionStatement` (commit or abort) and
  broadcasts it.  Each participant atomically applies or discards its
  staged writes and logs a decision record, so lazy certification covers
  the transaction end to end.

Every artifact is signed by the party it binds: prepare statements and
decisions by the coordinator, receipts by the participant edge.  That is
what makes misbehaviour *provable* (see
:func:`repro.sharding.judges.judge_txn_dispute`): a receipt that misquotes the
client-signed write set convicts the edge, an edge serving a staged write
after a signed abort convicts the edge, and two contradictory signed
decisions for one transaction convict the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.identifiers import BlockId, NodeId, OperationId, ShardId
from ..crypto.signatures import KeyRegistry, Signature
from ..log.entry import LogEntry
from ..lsmerkle.read_proof import GetProof
from ..messages.kv_messages import GetResponseStatement

#: The two possible transaction outcomes.
TXN_COMMIT = "commit"
TXN_ABORT = "abort"


@dataclass(frozen=True)
class TxnId:
    """Identifies one cross-shard transaction.

    ``(coordinator, sequence)`` is unique because every client numbers its
    own transactions; embedding the coordinator also pins which client's
    signature certifies the transaction's decisions.
    """

    coordinator: NodeId
    sequence: int

    def __str__(self) -> str:
        return f"txn:{self.coordinator.name}#{self.sequence}"


@dataclass(frozen=True)
class TxnWrite:
    """One staged write, summarized as ``(key, value digest)``.

    The full values travel as client-signed log entries; the signed
    statements and receipts carry only this summary, the same data-free
    discipline as certification itself.
    """

    key: str
    value_digest: str


# ----------------------------------------------------------------------
# Phase 1: prepare
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TxnPrepareStatement:
    """What the coordinator signs when asking one shard to stage writes.

    ``participant_shards`` binds the transaction's full scope, so every
    participant (and later, a dispute judge) knows exactly which shards the
    decision must cover.

    ``staged_floor`` is the coordinator's lower bound on the participant's
    Phase I log position — one past the highest block id the coordinator
    has *observed* from that edge in signed acknowledgements.  Because it
    is coordinator-signed (not participant-claimed), the staged-abort-serve
    judge can use it as the staging watermark: a record proven below the
    floor predates the transaction, and a participant cannot inflate the
    bound to shield itself.  An honest participant refuses a floor beyond
    its actual log position.
    """

    coordinator: NodeId
    txn_id: TxnId
    shard_id: ShardId
    writes: tuple[TxnWrite, ...]
    participant_shards: tuple[ShardId, ...]
    staged_floor: BlockId
    issued_at: float


@dataclass(frozen=True)
class TxnPrepareRequest:
    """txn-prepare: coordinator → participant edge, signed writes to stage.

    ``operation_id`` ties the prepare into the client's operation tracker so
    the existing signed-redirect machinery (``NotOwnerRedirect``) re-routes
    a misdirected prepare exactly like a put.
    """

    statement: TxnPrepareStatement
    signature: Signature
    operation_id: OperationId
    entries: tuple[LogEntry, ...]

    @property
    def txn_id(self) -> TxnId:
        return self.statement.txn_id

    @property
    def shard_id(self) -> ShardId:
        return self.statement.shard_id

    @property
    def wire_size(self) -> int:
        size = 64 + 96 + 48 * len(self.statement.writes)
        size += sum(entry.wire_size for entry in self.entries)
        return size


@dataclass(frozen=True)
class TxnPrepareReceiptStatement:
    """What the participant edge signs after staging a prepare.

    ``log_position`` is the shard's Phase I log position at staging time
    (the next block id): the commit record can only land at or after it,
    binding the receipt to a concrete point of the certified log.
    ``expires_at`` is the participant's promise horizon — the coordinator
    must deliver the decision before it, or the participant may presume
    abort and discard the staged writes.

    ``prepare_digest`` binds the receipt to the *exact* coordinator-signed
    prepare statement it answers (its canonical-encoding digest).  Without
    it, a malicious coordinator could mint a second self-signed prepare
    with different writes after the fact and frame an honest participant
    with a receipt/prepare "mismatch"; with it, a write-set mismatch
    against the digest-bound prepare is provably the edge's own lie.
    """

    edge: NodeId
    txn_id: TxnId
    shard_id: ShardId
    log_position: BlockId
    writes: tuple[TxnWrite, ...]
    prepare_digest: str
    prepared_at: float
    expires_at: float


@dataclass(frozen=True)
class TxnPrepareReceipt:
    """txn-prepare-receipt: participant edge → coordinator (the shard's vote)."""

    statement: TxnPrepareReceiptStatement
    signature: Signature

    @property
    def edge(self) -> NodeId:
        return self.statement.edge

    @property
    def txn_id(self) -> TxnId:
        return self.statement.txn_id

    @property
    def shard_id(self) -> ShardId:
        return self.statement.shard_id

    def verify(self, registry: KeyRegistry) -> bool:
        """Check the receipt was signed by the edge it names."""

        if self.signature.signer != self.statement.edge:
            return False
        return registry.verify(self.signature, self.statement)

    @property
    def wire_size(self) -> int:
        return 64 + 112 + 48 * len(self.statement.writes)


@dataclass(frozen=True)
class TxnPrepareRejection:
    """txn-prepare-rejection: the participant refused to stage (a no vote)."""

    edge: NodeId
    txn_id: TxnId
    shard_id: ShardId
    reason: str

    @property
    def wire_size(self) -> int:
        return 176


# ----------------------------------------------------------------------
# Phase 2: decision
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TxnDecisionStatement:
    """What the coordinator signs when it decides the transaction."""

    coordinator: NodeId
    txn_id: TxnId
    decision: str  # TXN_COMMIT or TXN_ABORT
    participant_shards: tuple[ShardId, ...]
    decided_at: float


@dataclass(frozen=True)
class TxnDecisionMessage:
    """txn-decision: coordinator → every participant edge (commit/abort).

    The signed statement is self-certifying: any holder can relay or present
    it, which is what lets a participant prove an abort to the cloud and a
    dispute judge detect an equivocating coordinator.
    """

    statement: TxnDecisionStatement
    signature: Signature

    @property
    def txn_id(self) -> TxnId:
        return self.statement.txn_id

    @property
    def decision(self) -> str:
        return self.statement.decision

    def verify(self, registry: KeyRegistry) -> bool:
        """Check the decision was signed by the transaction's coordinator."""

        statement = self.statement
        if statement.coordinator != statement.txn_id.coordinator:
            return False
        if self.signature.signer != statement.coordinator:
            return False
        return registry.verify(self.signature, statement)

    @property
    def wire_size(self) -> int:
        return 64 + 96 + 8 * len(self.statement.participant_shards)


@dataclass(frozen=True)
class TxnDecisionAck:
    """txn-decision-ack: participant edge → coordinator, outcome applied.

    ``block_id`` names the log block carrying the decision record (and, on
    commit, the applied writes) so the coordinator can audit the shard's
    certified log later.  Duplicate decisions are acknowledged idempotently
    with the original outcome.
    """

    edge: NodeId
    txn_id: TxnId
    shard_id: Optional[ShardId]
    applied: bool
    status: str
    block_id: Optional[BlockId] = None

    @property
    def wire_size(self) -> int:
        return 168


# ----------------------------------------------------------------------
# Transaction disputes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TxnDispute:
    """An accusation of 2PC misbehaviour, with the signed artifacts attached.

    Kinds (see :func:`repro.sharding.judges.judge_txn_dispute`):

    * ``prepare-receipt-mismatch`` — the coordinator presents its own signed
      prepare statement plus the edge-signed receipt whose write set
      differs: the edge signed a lie about what it staged.
    * ``staged-abort-serve`` — a client presents the edge-signed prepare
      receipt, the coordinator-signed *abort* decision, and an edge-signed
      get response serving one of the staged writes after the abort.
      ``serve_proof`` (the get response's index proof) makes the conviction
      *proof-bound*: the judge derives the served record's log position
      itself, so a backdated ``issued_at`` cannot exonerate the edge.
    * ``coordinator-equivocation`` — a participant presents two
      coordinator-signed decisions for the same transaction that disagree.
    """

    reporter: NodeId
    accused: NodeId
    txn_id: TxnId
    kind: str
    prepare_statement: Optional[TxnPrepareStatement] = None
    prepare_signature: Optional[Signature] = None
    receipt: Optional[TxnPrepareReceipt] = None
    decision: Optional[TxnDecisionMessage] = None
    second_decision: Optional[TxnDecisionMessage] = None
    serve_statement: Optional[GetResponseStatement] = None
    serve_signature: Optional[Signature] = None
    serve_proof: Optional[GetProof] = None

    @property
    def wire_size(self) -> int:
        size = 384
        if self.serve_proof is not None:
            size += self.serve_proof.wire_size
        return size


@dataclass(frozen=True)
class TxnDisputeVerdict:
    """The cloud's judgement on a transaction dispute.

    A punishing ``staged-abort-serve`` verdict is also delivered to the
    *accused* edge, carrying the coordinator-signed abort (``decision``)
    that convicted it: an edge that applied the same transaction under a
    coordinator-signed *commit* now holds two contradictory signed
    decisions and counter-disputes the equivocating coordinator.
    """

    cloud: NodeId
    reporter: NodeId
    accused: NodeId
    txn_id: TxnId
    punished: bool
    reason: str
    kind: str = ""
    decision: Optional[TxnDecisionMessage] = None

    @property
    def wire_size(self) -> int:
        size = 240
        if self.decision is not None:
            size += self.decision.wire_size
        return size
