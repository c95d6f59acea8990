"""The append-only block log stored at each edge node.

The log maps monotonic block ids to blocks and remembers, per block, whether
the cloud has certified it (and with which proof).  It is deliberately a
plain in-memory structure: durability at the edge is outside the paper's
threat model (a malicious edge can destroy data regardless; the cloud's
digests plus gossip bound the damage).  Deployments that want restarts to
keep the log pair it with a :mod:`repro.storage` segment log and rebuild it
through :mod:`repro.storage.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..common.errors import BlockNotFoundError, ProtocolError
from ..common.identifiers import BlockId, NodeId
from .block import Block, BlockSummary
from .proofs import AnyBlockProof

NodeIds = tuple[NodeId, ...]


@dataclass
class LogRecord:
    """A block plus its certification state."""

    block: Block
    proof: Optional[AnyBlockProof] = None

    @property
    def is_certified(self) -> bool:
        return self.proof is not None


class WedgeLog:
    """Append-only, digest-tracked block log for one edge partition."""

    def __init__(self, owner: NodeId, co_owners: NodeIds = ()) -> None:
        self._owner = owner
        #: Additional edges whose blocks this log may legitimately hold.  A
        #: promoted replica inherits the certified prefix written by the
        #: deposed writer; those blocks keep their original ``edge`` field
        #: (their certificates bind it), so the promoted log accepts the
        #: provenance chain alongside its own appends.  Empty by default —
        #: a single-writer log rejects foreign blocks exactly as before.
        self._co_owners: frozenset[NodeId] = frozenset(co_owners)
        self._records: dict[BlockId, LogRecord] = {}
        self._next_block_id: BlockId = 0
        #: Block ids below this were snapshot-truncated from durable storage
        #: (their contents live on as merged, manifest-covered pages).
        self.truncated_below: BlockId = 0

    @property
    def owner(self) -> NodeId:
        return self._owner

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._records

    def __iter__(self) -> Iterator[LogRecord]:
        for block_id in sorted(self._records):
            yield self._records[block_id]

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def allocate_block_id(self) -> BlockId:
        """Reserve the next monotonic block id (ids are edge-local)."""

        block_id = self._next_block_id
        self._next_block_id += 1
        return block_id

    @property
    def next_block_id(self) -> BlockId:
        return self._next_block_id

    def mark_truncated(self, before_block_id: BlockId) -> None:
        """Record that ids below *before_block_id* were durably truncated.

        Advances the allocator past the truncation point: a recovered log
        must never re-issue a block id the cloud may already hold a
        certificate for, even when the blocks themselves no longer replay
        (they were merged into manifest pages and their segments deleted).
        """

        if before_block_id > self.truncated_below:
            self.truncated_below = before_block_id
        if before_block_id > self._next_block_id:
            self._next_block_id = before_block_id

    def append(self, block: Block) -> LogRecord:
        """Append a formed block to the log."""

        if block.edge != self._owner and block.edge not in self._co_owners:
            raise ProtocolError(
                f"block owned by {block.edge} appended to log of {self._owner}"
            )
        if block.block_id in self._records:
            raise ProtocolError(f"block id {block.block_id} already in log")
        if block.block_id >= self._next_block_id:
            # Allow callers that assign ids themselves, but keep monotonicity.
            self._next_block_id = block.block_id + 1
        record = LogRecord(block=block)
        self._records[block.block_id] = record
        return record

    def adopt(self, block: Block, proof: Optional[AnyBlockProof]) -> LogRecord:
        """Append a block formed elsewhere (a mirror's or a promoted replica's
        copy) with the cloud proof it came with, if it has one yet."""

        record = self.append(block)
        if proof is not None:
            self.attach_proof(proof)
        return record

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def highest_block_id(self) -> BlockId:
        """The largest block id held, ``-1`` when empty (a shipping watermark)."""

        return max(self._records, default=-1)

    def get(self, block_id: BlockId) -> LogRecord:
        try:
            return self._records[block_id]
        except KeyError as exc:
            raise BlockNotFoundError(
                f"block {block_id} not found in log of {self._owner}"
            ) from exc

    def try_get(self, block_id: BlockId) -> Optional[LogRecord]:
        return self._records.get(block_id)

    def block(self, block_id: BlockId) -> Block:
        return self.get(block_id).block

    def proof_for(self, block_id: BlockId) -> Optional[AnyBlockProof]:
        record = self.try_get(block_id)
        return record.proof if record is not None else None

    # ------------------------------------------------------------------
    # Certification bookkeeping
    # ------------------------------------------------------------------
    def attach_proof(self, proof: AnyBlockProof) -> LogRecord:
        """Store the cloud's block proof next to the block it certifies."""

        record = self.get(proof.block_id)
        if record.block.digest() != proof.block_digest:
            raise ProtocolError(
                f"proof digest mismatch for block {proof.block_id} at {self._owner}"
            )
        record.proof = proof
        return record

    def uncertified_block_ids(self) -> tuple[BlockId, ...]:
        return tuple(
            block_id
            for block_id in sorted(self._records)
            if self._records[block_id].proof is None
        )

    def certified_count(self) -> int:
        return sum(1 for record in self._records.values() if record.is_certified)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summaries(self) -> tuple[BlockSummary, ...]:
        """Digest-only summaries of every block, in block-id order."""

        result = []
        for block_id in sorted(self._records):
            record = self._records[block_id]
            certified_at = (
                record.proof.certified_at if record.proof is not None else None
            )
            result.append(BlockSummary.of(record.block, certified_at))
        return tuple(result)

    def total_entries(self) -> int:
        return sum(record.block.num_entries for record in self._records.values())
