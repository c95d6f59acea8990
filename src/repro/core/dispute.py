"""Disputes and punishment: the enforcement half of lazy certification.

Lazy certification is only a deterrent if lying edge nodes are reliably
detected and punished (Section II-D, assumptions 1-3, and Section IV-E
"Disputes").  The cloud node judges disputes with the evidence clients
collected (signed Phase I receipts and signed read responses) against the
digests it certified, and records punishments in a ledger that the
application owner would act upon (monetary/legal penalties are outside the
system; the ledger records the proof).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.identifiers import BlockId, NodeId
from ..crypto.signatures import KeyRegistry
from ..messages.log_messages import DisputeRequest


@dataclass(frozen=True)
class PunishmentRecord:
    """One proven malicious act."""

    edge: NodeId
    block_id: Optional[BlockId]
    reason: str
    reported_by: Optional[NodeId]
    recorded_at: float
    evidence: str = ""


class PunishmentLedger:
    """Append-only record of punished edge nodes kept by the cloud."""

    def __init__(self) -> None:
        self._records: list[PunishmentRecord] = []
        self._banned: set[NodeId] = set()

    def punish(
        self,
        edge: NodeId,
        reason: str,
        recorded_at: float,
        block_id: Optional[BlockId] = None,
        reported_by: Optional[NodeId] = None,
        evidence: str = "",
    ) -> PunishmentRecord:
        record = PunishmentRecord(
            edge=edge,
            block_id=block_id,
            reason=reason,
            reported_by=reported_by,
            recorded_at=recorded_at,
            evidence=evidence,
        )
        self._records.append(record)
        self._banned.add(edge)
        return record

    def is_punished(self, edge: NodeId) -> bool:
        """Punished nodes are banned from re-entering (model assumption 2)."""

        return edge in self._banned

    def records_for(self, edge: NodeId) -> tuple[PunishmentRecord, ...]:
        return tuple(record for record in self._records if record.edge == edge)

    def __len__(self) -> int:
        return len(self._records)


@dataclass(frozen=True)
class DisputeJudgement:
    """Outcome of evaluating a dispute."""

    edge_punished: bool
    reason: str
    certified_digest: Optional[str] = None


def disputed_block(dispute: DisputeRequest) -> Optional[tuple[NodeId, BlockId]]:
    """The (edge, block id) a dispute accuses: those its evidence's signed
    statement names — the Phase I receipt of a ``missing-proof`` dispute,
    the read statement of the others — or ``None`` without evidence."""

    if dispute.kind == "missing-proof":
        evidence = dispute.receipt.statement if dispute.receipt is not None else None
    else:
        evidence = dispute.read_statement
    if evidence is None:
        return None
    return evidence.edge, evidence.block_id


def judge_dispute(
    dispute: DisputeRequest,
    certified_digest: Optional[str],
    registry: KeyRegistry,
    certified_log_size: int,
) -> DisputeJudgement:
    """Evaluate a client's dispute against the cloud's certified state.

    *certified_digest* and *certified_log_size* are the cloud's record of
    the edge and block :func:`disputed_block` reads from the evidence, so
    an edge is only ever judged on a statement it signed.  The cases mirror
    Section IV-E:

    * ``missing-proof`` with a Phase I receipt: the edge promised a digest
      for the block; if the certified digest differs (or the block was never
      certified) the edge lied about Phase I commitment.
    * ``read-mismatch`` with a signed read response: the edge returned block
      content whose digest differs from the certified one.
    * ``omission``: the edge claimed a block is unavailable although the
      cloud certified it (detected through gossip about the log size).
    """

    kind = dispute.kind

    if kind == "missing-proof":
        receipt = dispute.receipt
        if receipt is None:
            return DisputeJudgement(False, "missing-proof dispute without a receipt")
        if not receipt.verify(registry):
            return DisputeJudgement(False, "receipt signature invalid; dispute rejected")
        if certified_digest is None:
            return DisputeJudgement(
                True,
                "edge issued a Phase I receipt but never certified the block",
                None,
            )
        if certified_digest != receipt.block_digest:
            return DisputeJudgement(
                True,
                "edge certified a different digest than it promised the client",
                certified_digest,
            )
        return DisputeJudgement(
            False, "certified digest matches the receipt; no misbehaviour", certified_digest
        )

    if kind == "read-mismatch":
        statement = dispute.read_statement
        signature = dispute.read_signature
        if statement is None or signature is None:
            return DisputeJudgement(False, "read-mismatch dispute without evidence")
        if signature.signer != statement.edge or not registry.verify(signature, statement):
            return DisputeJudgement(False, "read response signature invalid")
        if certified_digest is None:
            return DisputeJudgement(
                True,
                "edge served a read for a block it never certified",
                None,
            )
        if statement.block_digest != certified_digest:
            return DisputeJudgement(
                True,
                "edge served block content that differs from the certified digest",
                certified_digest,
            )
        return DisputeJudgement(
            False, "served content matches the certified digest", certified_digest
        )

    if kind == "omission":
        statement = dispute.read_statement
        signature = dispute.read_signature
        evidence_ok = (
            statement is not None
            and signature is not None
            and signature.signer == statement.edge
            and registry.verify(signature, statement)
            and not statement.found
        )
        if not evidence_ok:
            return DisputeJudgement(False, "omission dispute without a signed denial")
        if certified_digest is not None or statement.block_id < certified_log_size:
            return DisputeJudgement(
                True,
                "edge denied having a block the cloud has certified",
                certified_digest,
            )
        return DisputeJudgement(
            False, "block was indeed never certified; denial was truthful", None
        )

    return DisputeJudgement(False, f"unknown dispute kind {kind!r}")
