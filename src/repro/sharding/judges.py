"""The fleet's dispute judges: shard ownership, replica leases and 2PC.

The counterpart of the paper's :func:`repro.core.dispute.judge_dispute` for
the lies only a fleet makes possible; each is judged from signed artifacts
alone, for :class:`~repro.sharding.cloud.ShardedCloudNode`, its only caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..common.errors import ProofVerificationError
from ..common.identifiers import NodeId
from ..crypto.hashing import digest_value
from ..crypto.signatures import KeyRegistry
from ..lsmerkle.codec import SEQUENCE_STRIDE
from ..lsmerkle.read_proof import verify_get_proof
from ..messages.shard_messages import ShardDispute
from ..messages.txn_messages import TXN_ABORT, TxnDispute


@dataclass(frozen=True)
class ShardDisputeJudgement:
    """Outcome of evaluating a shard dispute."""

    punished: bool
    reason: str


def judge_shard_dispute(
    dispute: ShardDispute,
    registry: KeyRegistry,
    owner_at: Callable[[int, float], Optional[NodeId]],
    granted_state_digest: Optional[str],
    shard_of: Optional[Callable[[str], int]] = None,
) -> ShardDisputeJudgement:
    """Evaluate a shard dispute against the cloud's authoritative state.

    * ``handoff-digest-mismatch``: the reporter (destination edge) presents
      the source-signed transfer statement.  The source is convicted when
      the state digest it *signed* differs from ``granted_state_digest`` —
      the digest the cloud countersigned for that handoff.  A transfer the
      source never signed (or signed consistently) convicts nobody: the
      destination simply refuses to install.
    * ``stale-owner-serve``: the reporter (a client) presents an edge-signed
      get-response statement.  The accused is convicted when the ownership
      history shows it no longer owned the key's shard at the statement's
      ``issued_at`` — a signed proof it kept serving a shard it had handed
      off.
    """

    kind = dispute.kind

    if kind == "handoff-digest-mismatch":
        statement = dispute.transfer_statement
        signature = dispute.transfer_signature
        if statement is None or signature is None:
            return ShardDisputeJudgement(False, "handoff dispute without evidence")
        if signature.signer != dispute.accused or not registry.verify(
            signature, statement
        ):
            return ShardDisputeJudgement(False, "transfer statement signature invalid")
        if statement.source != dispute.accused or statement.shard_id != dispute.shard_id:
            return ShardDisputeJudgement(
                False, "transfer statement does not concern the accused shard"
            )
        if granted_state_digest is None:
            return ShardDisputeJudgement(
                False, "no countersigned handoff on record for this shard"
            )
        if statement.state_digest != granted_state_digest:
            return ShardDisputeJudgement(
                True,
                "source signed a transfer whose state digest differs from the "
                "countersigned handoff certificate",
            )
        return ShardDisputeJudgement(
            False, "signed transfer matches the certified state digest"
        )

    if kind == "stale-owner-serve":
        statement = dispute.serve_statement
        signature = dispute.serve_signature
        if statement is None or signature is None:
            return ShardDisputeJudgement(False, "stale-owner dispute without evidence")
        if signature.signer != dispute.accused or not registry.verify(
            signature, statement
        ):
            return ShardDisputeJudgement(False, "serve statement signature invalid")
        if statement.edge != dispute.accused:
            return ShardDisputeJudgement(
                False, "serve statement names a different edge"
            )
        if shard_of is not None and shard_of(statement.key) != dispute.shard_id:
            return ShardDisputeJudgement(
                False, "served key does not belong to the disputed shard"
            )
        owner = owner_at(dispute.shard_id, statement.issued_at)
        if owner is None:
            return ShardDisputeJudgement(False, "shard has no recorded owner")
        if owner != dispute.accused:
            return ShardDisputeJudgement(
                True,
                "edge served a shard it did not own at the statement's issue "
                "time (certified handoff had already moved it)",
            )
        return ShardDisputeJudgement(
            False, "edge owned the shard when it served; no misbehaviour"
        )

    return ShardDisputeJudgement(False, f"unknown shard dispute kind {kind!r}")


def judge_stale_replica_dispute(
    dispute: ShardDispute,
    registry: KeyRegistry,
    owner_at: Callable[[int, float], Optional[NodeId]],
    cloud: Optional[NodeId] = None,
    shard_of: Optional[Callable[[str], int]] = None,
) -> ShardDisputeJudgement:
    """Judge a ``stale-replica-serve`` dispute from signed artifacts alone.

    Generalizes the stale-owner judge to replica reads: a read replica's
    serving authority is the cloud-signed lease it attaches to every
    response, so the evidence pair (replica-signed get-response statement,
    attached lease) is self-contained.  The accused is convicted when it
    provably served while it was not the shard's writer *and* the lease it
    presented (possibly none) did not cover the statement's ``issued_at``.
    An honest replica never signs a response without a covering lease in
    hand — it parks or redirects once its lease lapses — so no honest node
    can be convicted, even across lease-renewal races: whatever lease it
    actually held when signing is exactly what the client received and
    forwarded.
    """

    if dispute.kind != "stale-replica-serve":
        return ShardDisputeJudgement(
            False, f"not a stale-replica dispute: {dispute.kind!r}"
        )
    statement = dispute.serve_statement
    signature = dispute.serve_signature
    if statement is None or signature is None:
        return ShardDisputeJudgement(False, "stale-replica dispute without evidence")
    if signature.signer != dispute.accused or not registry.verify(
        signature, statement
    ):
        return ShardDisputeJudgement(False, "serve statement signature invalid")
    if statement.edge != dispute.accused:
        return ShardDisputeJudgement(False, "serve statement names a different edge")
    if shard_of is not None and shard_of(statement.key) != dispute.shard_id:
        return ShardDisputeJudgement(
            False, "served key does not belong to the disputed shard"
        )
    if owner_at(dispute.shard_id, statement.issued_at) == dispute.accused:
        return ShardDisputeJudgement(
            False, "accused was the shard's writer when it served; not a replica"
        )
    lease = dispute.lease
    if lease is not None:
        lease_valid = (
            lease.verify(registry)
            and (cloud is None or lease.statement.cloud == cloud)
            and lease.replica == dispute.accused
            and lease.shard_id == dispute.shard_id
        )
        if lease_valid and statement.issued_at <= lease.expires_at:
            return ShardDisputeJudgement(
                False, "attached lease covers the response; no misbehaviour"
            )
    return ShardDisputeJudgement(
        True,
        "replica signed a read response without a covering serving lease "
        "(served past its lease's certified watermark)",
    )


@dataclass(frozen=True)
class TxnDisputeJudgement:
    """Outcome of evaluating a cross-shard transaction dispute."""

    punished: bool
    reason: str


def judge_txn_dispute(
    dispute: TxnDispute,
    registry: KeyRegistry,
    cloud: Optional[NodeId] = None,
) -> TxnDisputeJudgement:
    """Evaluate a 2PC dispute from its signed artifacts alone.

    Every case is self-contained — the evidence is a set of signed
    statements that contradict each other, so the judge needs no trust in
    the reporter and no server-side transaction state:

    * ``prepare-receipt-mismatch``: the edge-signed receipt binds (via
      ``prepare_digest``) to the presented coordinator-signed prepare
      statement yet lists a different write set — the edge signed a lie
      about what it staged.  A receipt whose digest does not match the
      presented prepare convicts nobody: a coordinator can mint arbitrary
      self-signed prepares after the fact, so only the digest-bound pair
      is evidence.
    * ``staged-abort-serve``: the edge-signed receipt stages a write, the
      coordinator-signed decision aborts the transaction, and the
      edge-signed get response serves exactly that ``(key, value digest)``
      after the abort — the edge kept state the abort ordered discarded.
      Conviction is strictly *proof-bound*: the judge verifies the get
      proof itself and places the served record's sequence against the
      coordinator-signed ``staged_floor`` watermark (digest-bound through
      the receipt), so neither a backdated ``issued_at`` nor an inflated
      receipt position shields a lying edge, a record proven below the
      floor (an earlier legitimate write of the same bytes) acquits, and
      a dispute without the proof is simply unverifiable.  Residual, by
      design: matching stays at digest level, so a *malicious coordinator*
      that re-puts the exact aborted ``(key, value)`` after the abort and
      then disputes can still get a conviction — at the price of leaving
      its own signed re-put entry in the edge's certified log as standing
      counter-evidence; binding record versions (a production hardening)
      would close this, and the simulated workloads never produce it.
    * ``coordinator-equivocation``: two coordinator-signed decisions for
      one transaction disagree — a forked commit/abort, convicting the
      coordinator itself.
    """

    kind = dispute.kind
    txn_id = dispute.txn_id

    if kind == "prepare-receipt-mismatch":
        statement = dispute.prepare_statement
        signature = dispute.prepare_signature
        receipt = dispute.receipt
        if statement is None or signature is None or receipt is None:
            return TxnDisputeJudgement(False, "receipt dispute without evidence")
        if signature.signer != txn_id.coordinator or not registry.verify(
            signature, statement
        ):
            return TxnDisputeJudgement(False, "prepare statement signature invalid")
        if statement.txn_id != txn_id or receipt.txn_id != txn_id:
            return TxnDisputeJudgement(
                False, "evidence concerns a different transaction"
            )
        if receipt.edge != dispute.accused or not receipt.verify(registry):
            return TxnDisputeJudgement(False, "prepare receipt signature invalid")
        if receipt.statement.shard_id != statement.shard_id:
            return TxnDisputeJudgement(False, "receipt concerns a different shard")
        if receipt.statement.prepare_digest != digest_value(statement):
            return TxnDisputeJudgement(
                False,
                "receipt does not answer the presented prepare statement "
                "(digest mismatch — the reporter may be the equivocator)",
            )
        if receipt.statement.writes != statement.writes:
            return TxnDisputeJudgement(
                True,
                "edge signed a prepare receipt whose write set differs from "
                "the coordinator-signed prepare statement",
            )
        return TxnDisputeJudgement(
            False, "receipt matches the signed prepare; no misbehaviour"
        )

    if kind == "staged-abort-serve":
        receipt = dispute.receipt
        decision = dispute.decision
        statement = dispute.serve_statement
        signature = dispute.serve_signature
        if receipt is None or decision is None or statement is None or signature is None:
            return TxnDisputeJudgement(False, "staged-serve dispute without evidence")
        if receipt.edge != dispute.accused or not receipt.verify(registry):
            return TxnDisputeJudgement(False, "prepare receipt signature invalid")
        if receipt.txn_id != txn_id or decision.txn_id != txn_id:
            return TxnDisputeJudgement(
                False, "evidence concerns a different transaction"
            )
        if not decision.verify(registry):
            return TxnDisputeJudgement(False, "decision signature invalid")
        if decision.decision != TXN_ABORT:
            return TxnDisputeJudgement(
                False, "decision is not an abort; staged writes were committed"
            )
        if signature.signer != dispute.accused or not registry.verify(
            signature, statement
        ):
            return TxnDisputeJudgement(False, "serve statement signature invalid")
        if statement.edge != dispute.accused:
            return TxnDisputeJudgement(False, "serve statement names a different edge")
        if not statement.found or statement.value_digest is None:
            return TxnDisputeJudgement(False, "serve statement returned no value")
        staged = any(
            write.key == statement.key
            and write.value_digest == statement.value_digest
            for write in receipt.statement.writes
        )
        if not staged:
            return TxnDisputeJudgement(
                False, "served value is not one of the transaction's staged writes"
            )
        prepare = dispute.prepare_statement
        prepare_signature = dispute.prepare_signature
        if dispute.serve_proof is None or prepare is None:
            # Conviction is strictly proof-bound: without the serve proof
            # and the coordinator-signed prepare there is no
            # accused-independent way to place the served record relative
            # to the staging watermark — the edge-claimed ``issued_at`` is
            # not evidence.
            return TxnDisputeJudgement(
                False,
                "staged-serve dispute is unverifiable without the serve "
                "proof and the signed prepare statement",
            )
        # The staging watermark must be the *coordinator-signed* floor,
        # digest-bound to the receipt: the accused edge cannot inflate it
        # to shield itself (its receipt attests it accepted exactly this
        # prepare), and an honest edge rejected any floor beyond its real
        # log position at staging time.
        if prepare_signature is None or prepare_signature.signer != (
            txn_id.coordinator
        ) or not registry.verify(prepare_signature, prepare):
            return TxnDisputeJudgement(False, "prepare statement signature invalid")
        if (
            prepare.txn_id != txn_id
            or receipt.statement.prepare_digest != digest_value(prepare)
        ):
            return TxnDisputeJudgement(
                False, "receipt does not answer the presented prepare statement"
            )
        try:
            verified = verify_get_proof(
                registry=registry,
                cloud=cloud,
                edge=dispute.accused,
                key=statement.key,
                proof=dispute.serve_proof,
            )
        except ProofVerificationError:
            return TxnDisputeJudgement(False, "serve proof failed verification")
        record = verified.record
        if record is None or digest_value(record.value) != statement.value_digest:
            return TxnDisputeJudgement(
                False, "serve proof does not prove the served value"
            )
        if record.sequence < prepare.staged_floor * SEQUENCE_STRIDE:
            return TxnDisputeJudgement(
                False,
                "proven record predates the staged prepare; an earlier "
                "write of the same bytes, not the staged state",
            )
        return TxnDisputeJudgement(
            True,
            "edge serves a staged write its coordinator's signed abort "
            "ordered discarded (proof-bound: the record entered the log "
            "at or after the staged position)",
        )

    if kind == "coordinator-equivocation":
        first = dispute.decision
        second = dispute.second_decision
        if first is None or second is None:
            return TxnDisputeJudgement(False, "equivocation dispute without evidence")
        if dispute.accused != txn_id.coordinator:
            return TxnDisputeJudgement(
                False, "accused is not the transaction's coordinator"
            )
        if first.txn_id != txn_id or second.txn_id != txn_id:
            return TxnDisputeJudgement(
                False, "evidence concerns a different transaction"
            )
        if not first.verify(registry) or not second.verify(registry):
            return TxnDisputeJudgement(False, "decision signature invalid")
        if first.decision != second.decision:
            return TxnDisputeJudgement(
                True,
                "coordinator signed contradictory decisions for one transaction",
            )
        return TxnDisputeJudgement(False, "decisions agree; no equivocation")

    return TxnDisputeJudgement(False, f"unknown transaction dispute kind {kind!r}")
