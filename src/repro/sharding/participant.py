"""Cross-shard transactions: the participant side of the 2PC.

:mod:`repro.sharding.transactions` holds the coordinator, the decision-record
codec and the protocol rationale; this is the edge's half.  A participant
stages a prepare's client-signed writes outside its partition's log, buffer
and index, answers with a signed receipt, and on the coordinator's signed
decision (or at the receipt's signed expiry — presumed abort) applies or
discards them and appends the decision record to the certified log.

:class:`TxnParticipantRole` is a plain class of methods that
:class:`~repro.sharding.edge.ShardedEdgeNode` lists as a base, so its
handlers are rows of that node's dispatch table and the adversary variants
override its hooks like any other method.  Like the node's own methods, every
partition-scoped method here takes the :class:`TxnPartitionState` it acts on
first; fleet state comes through ``self``.  What it adds is
:class:`TxnPartitionState`'s two tables and the node's ``_txn_record_seq``.
The paper's edge has neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..common.identifiers import BlockId, NodeId, ShardId
from ..crypto.hashing import digest_value
from ..log.entry import LogEntry, make_entry
from ..lsmerkle.codec import decode_put, is_put_payload, malformed_put
from ..messages.txn_messages import (
    TXN_ABORT,
    TXN_COMMIT,
    TxnDecisionAck,
    TxnDecisionMessage,
    TxnDispute,
    TxnDisputeVerdict,
    TxnId,
    TxnPrepareReceipt,
    TxnPrepareReceiptStatement,
    TxnPrepareRejection,
    TxnPrepareRequest,
    TxnPrepareStatement,
    TxnWrite,
)
from ..nodes.edge import PartitionState
from .transactions import StagedTxn, encode_txn_decision


@dataclass
class TxnPartitionState(PartitionState):
    """A served partition plus its 2PC tables (read-replica mirrors never
    stage a transaction and stay plain :class:`PartitionState`)."""

    #: Prepared-but-undecided transactions: txn id →
    #: :class:`~repro.sharding.transactions.StagedTxn`, until the signed
    #: decision applies or discards them (or the staged prepare expires).
    staged_txns: dict = field(default_factory=dict)
    #: Decided transactions: txn id → ``(decision, block id of the decision
    #: record, shard id, the signed decision acted on)``.  Duplicate
    #: prepares and decisions resolve against this tombstone idempotently,
    #: and a late prepare for an already-aborted transaction can never
    #: orphan-stage writes.  ``_record_txn_decision`` schedules its eviction.
    decided_txns: dict = field(default_factory=dict)


class TxnParticipantRole:
    """The 2PC participant handlers and hooks of a sharded edge."""

    def _txn_prepare_timeout(self) -> float:
        """The staged-prepare expiry horizon advertised in receipts."""

        return self.config.sharding_or_default().txn_prepare_timeout_s

    def _txn_shard_ok(self, shard_id: ShardId, key: str) -> bool:
        return self.partitioner.shard_of(key) == shard_id

    def _peek_next_block_id(self) -> BlockId:
        """The Phase I log position a prepare receipt binds to (no allocation)."""

        return self._next_block_id

    def _after_txn_resolved(self, shard_id: Optional[ShardId]) -> None:
        """A staged transaction was decided or expired: re-advance a handoff
        drain that was waiting for the shard's staged prepares to resolve."""

        if shard_id is not None and shard_id in self._migrating:
            self._advance_handoff(shard_id)

    def _handle_txn_prepare(
        self, state: TxnPartitionState, sender: NodeId, request: TxnPrepareRequest
    ) -> None:
        with self._span("txn.prepare", txn=str(request.statement.txn_id)):
            params = self.env.params
            self.stats.setdefault("txn_prepares", 0)
            self.stats["txn_prepares"] += 1
            statement = request.statement
            self.env.charge(params.txn_prepare_cost(len(request.entries)))
            if (
                statement.coordinator != sender
                or statement.txn_id.coordinator != sender
                or not self.env.registry.verify(request.signature, statement)
            ):
                return
            txn_id = statement.txn_id
            decided = state.decided_txns.get(txn_id)
            if decided is not None:
                # The transaction was already decided here (e.g. an abort raced
                # ahead of a redirected prepare): answer with the outcome.
                decision, block_id, shard_id, _message = decided
                self._send_txn_ack(
                    txn_id,
                    shard_id if shard_id is not None else statement.shard_id,
                    decision,
                    block_id,
                )
                return
            staged = state.staged_txns.get(txn_id)
            if staged is not None:
                # Duplicate prepare (a redirect loop or retry): idempotently
                # re-send the original signed receipt.
                self.env.send(self.node_id, sender, staged.receipt)
                return
            reason = self._validate_txn_writes(
                state, sender, statement, request.entries
            )
            if reason is not None:
                self.stats.setdefault("txn_prepare_rejections", 0)
                self.stats["txn_prepare_rejections"] += 1
                self.env.send(
                    self.node_id,
                    sender,
                    TxnPrepareRejection(
                        edge=self.node_id,
                        txn_id=txn_id,
                        shard_id=statement.shard_id,
                        reason=reason,
                    ),
                )
                return

            now = self.env.now()
            expires_at = now + self._txn_prepare_timeout()
            receipt = self._build_prepare_receipt(statement, now, expires_at)
            state.staged_txns[txn_id] = StagedTxn(
                txn_id=txn_id,
                shard_id=statement.shard_id,
                coordinator=sender,
                requester=sender,
                operation_id=request.operation_id,
                entries=request.entries,
                writes=statement.writes,
                staged_at=now,
                expires_at=expires_at,
                receipt=receipt,
            )
            self._arm_txn_expiry(state, txn_id, expires_at - now)
            self.env.send(self.node_id, sender, receipt)

    def _validate_txn_writes(
        self,
        state: TxnPartitionState,
        sender: NodeId,
        statement: TxnPrepareStatement,
        entries: tuple[LogEntry, ...],
    ) -> Optional[str]:
        """Why the prepare cannot be staged, or ``None`` when it can.

        Every entry must be a coordinator-produced, decodable put whose
        ``(key, value digest)`` matches the signed write summary, and every
        key must belong to the prepared shard — a write smuggled onto the
        wrong shard would escape that shard's decision record.

        Two self-protection rules guard the *edge* against a malicious
        coordinator's dispute machinery: the coordinator-signed
        ``staged_floor`` must not exceed the partition's actual log
        position (an absurd floor could only exist to skew later
        adjudication), and no staged write may duplicate a ``(key, value)``
        already committed in the partition — serving the pre-existing value
        would be indistinguishable from serving staged state.
        """

        if not entries or len(entries) != len(statement.writes):
            return "write-set-mismatch"
        if statement.staged_floor > self._peek_next_block_id():
            return "staged floor beyond the partition's log position"
        for entry, write in zip(entries, statement.writes):
            if entry.producer != sender:
                return "entries not produced by the coordinator"
            if not is_put_payload(entry.payload):
                return "non-put payload in a transactional write"
            if malformed_put(entry.payload):
                return "malformed put in a transactional write"
            key, value = decode_put(entry.payload)
            if key != write.key or digest_value(value) != write.value_digest:
                return "write-set-mismatch"
            if not self._txn_shard_ok(statement.shard_id, key):
                return "key outside the prepared shard"
            result = self._index_lookup(state, key)
            if result.found and digest_value(result.record.value) == write.value_digest:
                return "write already committed in the partition"
        return None

    # Hook overridden by the malicious tampering variant --------------------
    def _receipt_writes(self, writes: tuple[TxnWrite, ...]) -> tuple[TxnWrite, ...]:
        return writes

    def _build_prepare_receipt(
        self, statement: TxnPrepareStatement, now: float, expires_at: float
    ) -> TxnPrepareReceipt:
        receipt_statement = TxnPrepareReceiptStatement(
            edge=self.node_id,
            txn_id=statement.txn_id,
            shard_id=statement.shard_id,
            log_position=self._peek_next_block_id(),
            writes=self._receipt_writes(statement.writes),
            prepare_digest=digest_value(statement),
            prepared_at=now,
            expires_at=expires_at,
        )
        return TxnPrepareReceipt(
            statement=receipt_statement,
            signature=self.env.registry.sign(self.node_id, receipt_statement),
        )

    def _arm_txn_expiry(
        self, state: TxnPartitionState, txn_id: TxnId, delay: float
    ) -> None:
        """Presumed abort: an undecided stage is discarded at its deadline.

        The deadline is the ``expires_at`` the receipt *signed*, so the
        coordinator (which only commits while every receipt is unexpired)
        and the participant can never disagree about the horizon.
        """

        def expire() -> None:
            staged = state.staged_txns.pop(txn_id, None)
            if staged is None:
                return  # decided in time
            self.stats.setdefault("txn_prepares_expired", 0)
            self.stats["txn_prepares_expired"] += 1
            block_id = self._log_txn_decision(
                state, txn_id, TXN_ABORT, reason="prepare-expired"
            )
            self._record_txn_decision(
                state, txn_id, TXN_ABORT, block_id, staged.shard_id
            )
            self._after_txn_resolved(state.shard_id)

        self.env.schedule(delay, expire, label=f"{self.node_id}:txn-expiry")

    def _record_txn_decision(
        self,
        state: TxnPartitionState,
        txn_id: TxnId,
        decision: str,
        block_id: Optional[BlockId],
        shard_id: Optional[ShardId],
        message: Optional[TxnDecisionMessage] = None,
    ) -> None:
        """Tombstone a decided transaction and schedule the tombstone away.

        The tombstone only matters while a duplicate decision or a late
        prepare could still arrive — both are bounded by the transaction's
        signed timing window.  Evicting well past that horizon keeps
        ``decided_txns`` proportional to in-window transactions instead of
        growing with every transaction the partition ever decided.
        ``message`` keeps the coordinator-signed decision this partition
        acted on — the edge's half of an equivocation counter-dispute.
        """

        state.decided_txns[txn_id] = (decision, block_id, shard_id, message)

        def evict() -> None:
            state.decided_txns.pop(txn_id, None)

        self.env.schedule(
            4 * self._txn_prepare_timeout(),
            evict,
            label=f"{self.node_id}:txn-tombstone-evict",
        )

    def _handle_txn_decision(self, sender: NodeId, message: TxnDecisionMessage) -> None:
        statement = message.statement
        owned = [
            state
            for shard_id in statement.participant_shards
            if (state := self._shard_states.get(shard_id)) is not None
        ]
        if not owned:
            # No owned participant shard (e.g. the shard was handed off
            # after its stage resolved): nothing to decide here.
            self.stats.setdefault("txn_decisions_unowned", 0)
            self.stats["txn_decisions_unowned"] += 1
            return
        # One delivered message costs one request overhead and one signature
        # verification however many co-located participant shards apply it;
        # only the staging work scales with the shards' staged writes.
        staged_writes = sum(
            len(state.staged_txns[statement.txn_id].entries)
            for state in owned
            if statement.txn_id in state.staged_txns
        )
        self.env.charge(self.env.params.txn_decision_cost(staged_writes))
        if statement.decision not in (TXN_COMMIT, TXN_ABORT):
            return
        # The signed statement is self-certifying (the signer must be the
        # transaction's coordinator), so relayed decisions are as good as
        # direct ones — what matters is the signature, not the bearer.
        if not message.verify(self.env.registry):
            return
        for state in owned:
            self._apply_txn_decision(state, message)

    def _apply_txn_decision(
        self, state: TxnPartitionState, message: TxnDecisionMessage
    ) -> None:
        """Apply an already-verified decision to *state*."""

        statement = message.statement
        with self._span(
            "txn.apply", txn=str(statement.txn_id), decision=statement.decision
        ):
            staged = state.staged_txns.get(statement.txn_id)
            txn_id = statement.txn_id
            decided = state.decided_txns.get(txn_id)
            if decided is not None:
                # Duplicate decision: absorbed idempotently, original outcome
                # re-acknowledged, staged state untouched (there is none).
                self.stats.setdefault("txn_duplicate_decisions", 0)
                self.stats["txn_duplicate_decisions"] += 1
                decision, block_id, shard_id, _message = decided
                self._send_txn_ack(
                    txn_id,
                    shard_id if shard_id is not None else state.shard_id,
                    decision,
                    block_id,
                )
                return
            if staged is None:
                if statement.decision == TXN_ABORT:
                    # Abort for a transaction never staged here (its prepare may
                    # still be parked or in flight): tombstone it so a late
                    # prepare cannot orphan-stage writes that already aborted.
                    self._record_txn_decision(
                        state, txn_id, TXN_ABORT, None, state.shard_id, message
                    )
                    self.stats.setdefault("txn_aborts_applied", 0)
                    self.stats["txn_aborts_applied"] += 1
                    self._send_txn_ack(txn_id, state.shard_id, TXN_ABORT, None)
                else:
                    # A commit with nothing staged is unanswerable: this edge
                    # holds no writes to apply (e.g. its stage already expired
                    # and presumed abort).  The abort record is already in the
                    # certified log for the coordinator to audit.
                    self.stats.setdefault("txn_stale_commits", 0)
                    self.stats["txn_stale_commits"] += 1
                return
            del state.staged_txns[txn_id]
            if statement.decision == TXN_COMMIT:
                block_id = self._apply_staged_txn(state, staged)
                self.stats.setdefault("txn_commits_applied", 0)
                self.stats["txn_commits_applied"] += 1
                self._record_txn_decision(
                    state, txn_id, TXN_COMMIT, block_id, staged.shard_id, message
                )
                self._send_txn_ack(txn_id, staged.shard_id, TXN_COMMIT, block_id)
            else:
                block_id = self._log_txn_decision(
                    state, txn_id, TXN_ABORT, reason="coordinator-abort"
                )
                self.stats.setdefault("txn_aborts_applied", 0)
                self.stats["txn_aborts_applied"] += 1
                self._record_txn_decision(
                    state, txn_id, TXN_ABORT, block_id, staged.shard_id, message
                )
                self._send_txn_ack(txn_id, staged.shard_id, TXN_ABORT, block_id)
            self._after_txn_resolved(state.shard_id)

    def _apply_staged_txn(self, state: TxnPartitionState, staged: StagedTxn) -> BlockId:
        """Atomically apply a committed transaction's staged writes.

        The staged client-signed entries and the commit decision record
        enter the partition buffer together and the buffer is flushed
        immediately, so they Phase I commit as one block (plus any
        co-buffered entries), flow through the ordinary certification /
        index / merge machinery, and the coordinator receives the standard
        signed ``AppendBatchResponse`` for its tracked prepare operation —
        Phase I and Phase II commitment of the transaction reuse the
        paper's receipts and proofs unchanged.
        """

        params = self.env.params
        now = self.env.now()
        payload_bytes = sum(len(entry.payload) for entry in staged.entries)
        self.env.charge(
            params.append_seconds_per_op * len(staged.entries)
            + params.hash_cost(payload_bytes)
        )
        for entry in staged.entries:
            batch = state.buffer.append(
                entry,
                now=now,
                operation_id=staged.operation_id,
                requester=staged.requester,
            )
            if batch is not None:
                self._form_block(state, batch)
        return self._log_txn_decision(state, staged.txn_id, TXN_COMMIT, reason="")

    def _log_txn_decision(
        self, state: TxnPartitionState, txn_id: TxnId, decision: str, reason: str
    ) -> BlockId:
        """Append the decision record and flush it into a Phase I block.

        Returns the id of the block carrying the record.  The record enters
        the *certified log* (lazy certification covers it like any block)
        but not the index — its payload prefix is invisible to the LSMerkle
        page codec.
        """

        params = self.env.params
        now = self.env.now()
        self.env.charge(params.sign_seconds)
        entry = make_entry(
            registry=self.env.registry,
            producer=self.node_id,
            sequence=self._txn_record_seq.next(),
            payload=encode_txn_decision(txn_id, decision, reason),
            produced_at=now,
        )
        batch = state.buffer.append(entry, now=now)
        if batch is not None:
            self._form_block(state, batch)
        batch = state.buffer.flush()
        if batch is not None:
            self._form_block(state, batch)
        return state.log.next_block_id - 1

    def _send_txn_ack(
        self,
        txn_id: TxnId,
        shard_id: Optional[ShardId],
        decision: str,
        block_id: Optional[BlockId],
    ) -> None:
        self.env.send(
            self.node_id,
            txn_id.coordinator,
            TxnDecisionAck(
                edge=self.node_id,
                txn_id=txn_id,
                shard_id=shard_id,
                applied=decision == TXN_COMMIT,
                status="committed" if decision == TXN_COMMIT else "aborted",
                block_id=block_id,
            ),
        )

    def _handle_txn_verdict(self, sender: NodeId, verdict: TxnDisputeVerdict) -> None:
        """A conviction naming this edge may prove the coordinator forked.

        The cloud forwards a punishing ``staged-abort-serve`` verdict to
        the accused with the coordinator-signed abort that convicted it.
        If this edge applied the same transaction under a coordinator-
        signed *commit* (kept in the decided-transaction tombstone), it now
        holds two contradictory signed decisions — self-contained evidence
        that convicts the equivocating coordinator.
        """

        if sender != self.cloud:
            return
        self.txn_verdicts.append(verdict)
        if (
            not verdict.punished
            or verdict.accused != self.node_id
            or verdict.decision is None
        ):
            return
        for state in self._shard_states.values():
            decided = state.decided_txns.get(verdict.txn_id)
            if decided is None:
                continue
            _decision, _block_id, _shard_id, acted_on = decided
            if (
                acted_on is not None
                and acted_on.decision != verdict.decision.decision
            ):
                self.stats.setdefault("txn_equivocation_disputes", 0)
                self.stats["txn_equivocation_disputes"] += 1
                self.env.send(
                    self.node_id,
                    self.cloud,
                    TxnDispute(
                        reporter=self.node_id,
                        accused=verdict.txn_id.coordinator,
                        txn_id=verdict.txn_id,
                        kind="coordinator-equivocation",
                        decision=acted_on,
                        second_decision=verdict.decision,
                    ),
                )
                return
