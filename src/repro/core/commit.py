"""Client-side tracking of operations through the two commit phases.

Every operation a client issues is registered here.  The tracker records
when the operation reached Phase I (the edge's signed acknowledgement) and
Phase II (the cloud's certification), which the benchmark harness later turns
into the latency and commit-rate figures of the paper (Figures 4 and 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..common.errors import ProtocolError
from ..common.identifiers import BlockId, OperationId, OperationKind
from ..log.proofs import BlockProof, CommitPhase, PhaseOneReceipt


@dataclass
class OperationRecord:
    """Everything the client remembers about one of its operations."""

    operation_id: OperationId
    kind: OperationKind
    issued_at: float
    phase: CommitPhase = CommitPhase.PENDING
    block_id: Optional[BlockId] = None
    receipt: Optional[PhaseOneReceipt] = None
    proof: Optional[BlockProof] = None
    phase_one_at: Optional[float] = None
    phase_two_at: Optional[float] = None
    failed_at: Optional[float] = None
    failure_reason: Optional[str] = None
    #: Block ids whose proofs are still outstanding.
    awaiting_blocks: set[BlockId] = field(default_factory=set)
    #: The digest the edge promised (write receipt) or served (read / get
    #: evidence) for every block this operation has awaited a proof of.
    promised_digests: dict[BlockId, Optional[str]] = field(default_factory=dict)
    #: Free-form details (key, value digest, number of entries, ...).
    details: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived measurements
    # ------------------------------------------------------------------
    @property
    def phase_one_latency(self) -> Optional[float]:
        if self.phase_one_at is None:
            return None
        return self.phase_one_at - self.issued_at

    @property
    def phase_two_latency(self) -> Optional[float]:
        if self.phase_two_at is None:
            return None
        return self.phase_two_at - self.issued_at

    @property
    def is_write(self) -> bool:
        return self.kind in (OperationKind.ADD, OperationKind.PUT)


class CommitTracker:
    """Registry of a single client's operations and their commit progress."""

    def __init__(self) -> None:
        self._records: dict[OperationId, OperationRecord] = {}
        #: Operations per block in registration order (a dict, not a set:
        #: the order proofs settle operations in feeds event order).
        self._by_block: dict[BlockId, dict[OperationId, None]] = {}
        #: Optional hook ``f(record, phase)`` invoked on every phase change;
        #: used by closed-loop workload drivers to issue the next operation.
        self.on_phase_change = None

    def _notify(self, record: OperationRecord, phase: CommitPhase) -> None:
        if self.on_phase_change is not None:
            self.on_phase_change(record, phase)

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(
        self, operation_id: OperationId, kind: OperationKind, issued_at: float, **details
    ) -> OperationRecord:
        if operation_id in self._records:
            raise ProtocolError(f"operation {operation_id} already registered")
        record = OperationRecord(
            operation_id=operation_id,
            kind=kind,
            issued_at=issued_at,
            details=dict(details),
        )
        self._records[operation_id] = record
        return record

    def get(self, operation_id: OperationId) -> OperationRecord:
        try:
            return self._records[operation_id]
        except KeyError as exc:
            raise ProtocolError(f"unknown operation {operation_id}") from exc

    def __contains__(self, operation_id: OperationId) -> bool:
        return operation_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> tuple[OperationRecord, ...]:
        return tuple(self._records.values())

    # ------------------------------------------------------------------
    # Phase transitions
    # ------------------------------------------------------------------
    def _index_block(self, operation_id: OperationId, block_id: BlockId) -> None:
        self._by_block.setdefault(block_id, {})[operation_id] = None

    def mark_phase_one(
        self,
        operation_id: OperationId,
        at: float,
        block_id: Optional[BlockId] = None,
        receipt: Optional[PhaseOneReceipt] = None,
    ) -> OperationRecord:
        record = self.get(operation_id)
        if record.phase is CommitPhase.FAILED:
            return record
        record.phase_one_at = at if record.phase_one_at is None else record.phase_one_at
        if record.phase is CommitPhase.PENDING:
            record.phase = CommitPhase.PHASE_ONE
        if block_id is not None:
            record.block_id = block_id
            self._index_block(operation_id, block_id)
        if receipt is not None:
            record.receipt = receipt
        self._notify(record, CommitPhase.PHASE_ONE)
        return record

    def mark_phase_two(
        self,
        operation_id: OperationId,
        at: float,
        proof: Optional[BlockProof] = None,
    ) -> OperationRecord:
        record = self.get(operation_id)
        if record.phase is CommitPhase.FAILED:
            return record
        if record.phase_one_at is None:
            # Phase II implies Phase I (e.g. a read answered with a proof).
            record.phase_one_at = at
        record.phase_two_at = at if record.phase_two_at is None else record.phase_two_at
        record.phase = CommitPhase.PHASE_TWO
        if proof is not None:
            record.proof = proof
        self._notify(record, CommitPhase.PHASE_TWO)
        return record

    def mark_failed(
        self, operation_id: OperationId, at: float, reason: str
    ) -> OperationRecord:
        record = self.get(operation_id)
        if record.phase is CommitPhase.PHASE_TWO:
            # A Phase II commit is final (Definition 2); it cannot fail later.
            return record
        record.phase = CommitPhase.FAILED
        record.failed_at = at
        record.failure_reason = reason
        self._notify(record, CommitPhase.FAILED)
        return record

    # ------------------------------------------------------------------
    # Block-indexed access (used when block proofs arrive)
    # ------------------------------------------------------------------
    def operations_waiting_on_block(self, block_id: BlockId) -> tuple[OperationRecord, ...]:
        return tuple(
            self._records[op_id]
            for op_id in self._by_block.get(block_id, ())
            if self._records[op_id].phase is not CommitPhase.PHASE_TWO
        )

    def watch_block(
        self, operation_id: OperationId, block_id: BlockId, digest: Optional[str] = None
    ) -> None:
        """Associate an operation with a block whose proof it is waiting for."""

        record = self.get(operation_id)
        record.awaiting_blocks.add(block_id)
        record.promised_digests[block_id] = digest
        self._index_block(operation_id, block_id)

    def resolve_block(self, operation_id: OperationId, block_id: BlockId) -> bool:
        """Mark one awaited block as certified; returns True if none remain."""

        record = self.get(operation_id)
        record.awaiting_blocks.discard(block_id)
        return not record.awaiting_blocks

    # ------------------------------------------------------------------
    # Aggregates for the harness
    # ------------------------------------------------------------------
    def count_in_phase(self, phase: CommitPhase) -> int:
        return sum(1 for record in self._records.values() if record.phase is phase)

    def completed_operations(self) -> tuple[OperationRecord, ...]:
        return tuple(
            record
            for record in self._records.values()
            if record.phase in (CommitPhase.PHASE_ONE, CommitPhase.PHASE_TWO)
        )

    def pending_operations(self) -> tuple[OperationRecord, ...]:
        return tuple(
            record
            for record in self._records.values()
            if record.phase is CommitPhase.PENDING
        )

    def phase_one_latencies(self) -> list[float]:
        return [
            record.phase_one_latency
            for record in self._records.values()
            if record.phase_one_latency is not None
        ]

    def phase_two_latencies(self) -> list[float]:
        return [
            record.phase_two_latency
            for record in self._records.values()
            if record.phase_two_latency is not None
        ]

    @staticmethod
    def merge_latencies(trackers: Iterable["CommitTracker"], phase_two: bool = False) -> list[float]:
        """Pool latencies from several clients' trackers."""

        pooled: list[float] = []
        for tracker in trackers:
            if phase_two:
                pooled.extend(tracker.phase_two_latencies())
            else:
                pooled.extend(tracker.phase_one_latencies())
        return pooled
