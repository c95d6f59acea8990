"""Blocks: batches of log entries identified by a monotonic block id.

A block is the unit of certification.  The cloud node never needs the block's
contents — only its *digest* — which is what makes certification data-free
(Section IV-B).  The digest covers the block id, the owning edge node, and
every entry, so agreement on the digest implies agreement on the content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..common.identifiers import BlockId, NodeId
from ..crypto.hashing import digest_value
from .entry import LogEntry


@dataclass(frozen=True)
class Block:
    """An immutable batch of entries appended to one edge node's log."""

    edge: NodeId
    block_id: BlockId
    entries: tuple[LogEntry, ...]
    created_at: float

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    @property
    def wire_size(self) -> int:
        """Approximate on-the-wire size of the full block in bytes.

        Cached after the first computation, like :meth:`digest`: the value
        is a function of the immutable block alone.
        """

        cached = getattr(self, "_wire_size_cache", None)
        if cached is None:
            cached = 48 + sum(entry.wire_size for entry in self.entries)
            object.__setattr__(self, "_wire_size_cache", cached)
        return cached

    def digest(self) -> str:
        """The block digest the cloud certifies (a one-way hash).

        The digest of an immutable block is cached after the first
        computation; recomputation from scratch is available through
        :func:`compute_block_digest` (used by verifiers that must not trust
        any cached state attached to a received object).
        """

        cached = getattr(self, "_digest_cache", None)
        if cached is None:
            cached = compute_block_digest(self.edge, self.block_id, self.entries)
            object.__setattr__(self, "_digest_cache", cached)
        return cached

    def contains_entry(self, producer: NodeId, sequence: int) -> bool:
        """Whether an entry from *producer* with *sequence* is in the block."""

        return any(
            entry.producer == producer and entry.sequence == sequence
            for entry in self.entries
        )

    def entries_for(self, producer: NodeId) -> tuple[LogEntry, ...]:
        """All entries contributed by one client."""

        return tuple(entry for entry in self.entries if entry.producer == producer)

    def producers(self) -> frozenset[NodeId]:
        """The set of clients with at least one entry in this block."""

        return frozenset(entry.producer for entry in self.entries)


def compute_block_digest(
    edge: NodeId, block_id: BlockId, entries: Sequence[LogEntry]
) -> str:
    """Digest of a block's identity and content.

    Defined as a module-level function (not only a method) so that clients
    and the cloud can recompute the digest from a received block without
    trusting any digest field the edge node may have attached.
    """

    entry_digests = tuple(
        digest_value((entry.body, entry.signature)) for entry in entries
    )
    return digest_value((str(edge), block_id, entry_digests))


def build_block(
    edge: NodeId,
    block_id: BlockId,
    entries: Iterable[LogEntry],
    created_at: float,
) -> Block:
    """Construct a block from buffered entries."""

    return Block(
        edge=edge,
        block_id=block_id,
        entries=tuple(entries),
        created_at=created_at,
    )


@dataclass(frozen=True)
class BlockSummary:
    """A lightweight, digest-only view of a block (what the cloud stores)."""

    edge: NodeId
    block_id: BlockId
    digest: str
    num_entries: int
    created_at: float
    certified_at: Optional[float] = None

    @classmethod
    def of(cls, block: Block, certified_at: Optional[float] = None) -> "BlockSummary":
        return cls(
            edge=block.edge,
            block_id=block.block_id,
            digest=block.digest(),
            num_entries=block.num_entries,
            created_at=block.created_at,
            certified_at=certified_at,
        )
