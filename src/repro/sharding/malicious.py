"""Malicious sharded-edge variants that exercise the fleet's detection paths.

The fleet's :mod:`repro.nodes.malicious`: each variant overrides one handler
or hook of the honest :class:`~repro.sharding.edge.ShardedEdgeNode`, and its
class docstring names the signed artifacts that convict it.
"""

from __future__ import annotations

import copy
from typing import Any, Optional

from ..common.identifiers import NodeId, OperationId, ShardId
from ..log.block import Block
from ..messages.shard_messages import (
    ReplicaLease,
    ShardHandoffGrant,
    ShardMapMessage,
)
from ..messages.txn_messages import TXN_ABORT, TxnWrite
from ..nodes.edge import PartitionState
from ..nodes.malicious import _tamper_entries
from .edge import ShardedEdgeNode


class TamperingHandoffEdgeNode(ShardedEdgeNode):
    """Ships tampered block content during a shard handoff.

    The tampering is *self-consistent* — the signed transfer statement lists
    the digests of the blocks actually shipped — so the destination's
    payload check passes and the mismatch surfaces exactly where the
    protocol wants it: the signed statement contradicts the cloud's
    countersigned certificate, handing the destination provable evidence.
    """

    def _transfer_blocks(self, blocks: tuple) -> tuple:
        if not blocks:
            return blocks
        first = blocks[0]
        tampered = Block(
            edge=first.edge,
            block_id=first.block_id,
            entries=_tamper_entries(first.entries),
            created_at=first.created_at,
        )
        return (tampered,) + tuple(blocks[1:])


class TamperingPrepareEdgeNode(ShardedEdgeNode):
    """Signs prepare receipts that misquote the staged write set.

    The coordinator compares the receipt's write list against the statement
    it signed itself: the mismatch is two contradictory signed artifacts —
    the client-signed prepare and the edge-signed receipt — which is
    exactly the evidence pair the ``prepare-receipt-mismatch`` dispute
    needs.  The coordinator aborts the transaction and the cloud convicts
    the edge.
    """

    def _receipt_writes(
        self, writes: tuple[TxnWrite, ...]
    ) -> tuple[TxnWrite, ...]:
        if not writes:
            return writes
        first = writes[0]
        return (TxnWrite(key=first.key, value_digest="0" * 64),) + tuple(writes[1:])


class UnresponsivePrepareEdgeNode(ShardedEdgeNode):
    """Swallows transaction prepares: a crashed or partitioned participant.

    Everything else (puts, gets, certification) keeps working, so the
    coordinator's receipt timer — not some global failure detector — is
    what aborts the transaction on every responsive participant.
    """

    def _handle_txn_prepare(self, sender, request) -> None:
        self.stats.setdefault("txn_prepares_dropped", 0)
        self.stats["txn_prepares_dropped"] += 1


class AbortIgnoringEdgeNode(ShardedEdgeNode):
    """Applies staged writes despite a signed abort, then serves them.

    The node acknowledges the abort (to look honest) but installs the
    staged writes as if the transaction had committed.  Any client that
    later reads one of those keys holds the conviction triple: the edge's
    signed prepare receipt, the coordinator's signed abort, and the edge's
    own signed get response serving the staged value — the
    ``staged-abort-serve`` dispute.
    """

    def _apply_txn_decision(self, message) -> None:
        statement = message.statement
        if statement.decision == TXN_ABORT:
            state = self._active
            staged = state.staged_txns.pop(statement.txn_id, None)
            if staged is not None:
                block_id = self._apply_staged_txn(staged)  # commits anyway
                self._record_txn_decision(
                    state, statement.txn_id, TXN_ABORT, block_id,
                    staged.shard_id, message,
                )
                self._send_txn_ack(
                    statement.txn_id, staged.shard_id, TXN_ABORT, block_id
                )
                self._after_txn_resolved(state.shard_id)
                return
        super()._apply_txn_decision(message)


class StaleShardOwnerEdgeNode(ShardedEdgeNode):
    """Keeps serving a shard from a retained snapshot after handing it off.

    The handoff itself runs honestly (the certified transfer reaches the
    destination untampered), but the node squirrels away a deep copy of the
    partition and keeps answering gets for the shard as if nothing
    happened.  Clients holding the new shard map detect the non-owner
    response; the cloud's ownership history makes the signed response
    provable evidence.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stale_states: dict[ShardId, PartitionState] = {}

    def _handle_handoff_grant(self, sender: NodeId, grant: ShardHandoffGrant) -> None:
        shard_id = grant.certificate.shard_id
        state = self._shard_states.get(shard_id)
        if state is not None:
            self._stale_states[shard_id] = copy.deepcopy(state)
        super()._handle_handoff_grant(sender, grant)

    def _resolve_serving(
        self,
        sender: NodeId,
        message: Any,
        shard_id: ShardId,
        operation_id: OperationId,
    ) -> Optional[PartitionState]:
        stale = self._stale_states.get(shard_id)
        if stale is not None:
            return stale  # serve the shard it no longer owns
        return super()._resolve_serving(sender, message, shard_id, operation_id)


class DeposedWriterEdgeNode(ShardedEdgeNode):
    """Ignores its own deposition after a failover promotion.

    An honest writer of a replicated shard parks requests the moment its
    serving lease expires and retires the shard when the republished map
    deposes it.  This variant does neither: it pretends its lease never
    expires and discards any map that would take a shard away from it.
    Every signed get response it issues after the promotion is
    self-contained evidence — the cloud's ownership history says someone
    else owned the shard at ``issued_at`` (the ``stale-owner-serve``
    judge, unchanged from plain handoffs, convicts it).
    """

    def _writer_lease_valid(self, shard_id: ShardId) -> bool:
        return True  # serve as if the lease never expired

    def _handle_shard_map(self, sender: NodeId, message: ShardMapMessage) -> None:
        for assignment in message.statement.assignments:
            if (
                assignment.owner != self.node_id
                and assignment.shard_id in self._shard_states
                and assignment.shard_id not in self._migrating
                and assignment.shard_id not in self._outgoing_transfers
            ):
                # The map deposes this edge: pretend it never arrived.
                self.stats.setdefault("maps_ignored", 0)
                self.stats["maps_ignored"] += 1
                return
        super()._handle_shard_map(sender, message)


class ExpiredLeaseReplicaEdgeNode(ShardedEdgeNode):
    """A read replica that keeps serving after its lease expired.

    An honest replica cut off from the cloud redirects reads to the writer
    once its lease runs out.  This variant keeps answering, attaching the
    stale lease it still holds — and that attached lease is exactly what
    convicts it: the client forwards the signed response plus the lease as
    a ``stale-replica-serve`` dispute, and the judge sees a serve
    timestamp past the lease's expiry.
    """

    def _replica_lease_valid(
        self, lease: Optional[ReplicaLease], now: float
    ) -> bool:
        return lease is not None  # expired is good enough to keep serving
