"""The edge node's entry buffer.

Incoming ``add``/``put`` entries are batched until ``block_size`` entries are
available (or a flush is forced by the block timeout); the batch then becomes
the next block.  The buffer also remembers which pending operation each entry
belongs to so that the edge node can route add-responses back to the right
clients once the block forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..common.errors import ConfigurationError
from ..common.identifiers import NodeId, OperationId
from .entry import LogEntry


@dataclass
class BufferedEntry:
    """An entry waiting in the buffer plus bookkeeping for its response."""

    entry: LogEntry
    operation_id: Optional[OperationId]
    requester: Optional[NodeId]
    buffered_at: float


@dataclass
class PendingBatch:
    """A batch of buffered entries that is ready to become a block."""

    entries: list[BufferedEntry] = field(default_factory=list)

    @property
    def log_entries(self) -> tuple[LogEntry, ...]:
        return tuple(item.entry for item in self.entries)

    @property
    def requesters(self) -> tuple[NodeId, ...]:
        seen: list[NodeId] = []
        for item in self.entries:
            if item.requester is not None and item.requester not in seen:
                seen.append(item.requester)
        return tuple(seen)


class BlockBuffer:
    """Accumulates entries and emits full batches."""

    def __init__(self, block_size: int) -> None:
        if block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        self._block_size = block_size
        self._pending: list[BufferedEntry] = []
        self._pending_keys: set[tuple[NodeId, int]] = set()
        self._total_buffered = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def is_empty(self) -> bool:
        return not self._pending

    @property
    def total_buffered(self) -> int:
        """Total number of entries ever buffered (monotonic counter)."""

        return self._total_buffered

    def append(
        self,
        entry: LogEntry,
        now: float,
        operation_id: Optional[OperationId] = None,
        requester: Optional[NodeId] = None,
    ) -> Optional[PendingBatch]:
        """Add an entry; return a full batch once ``block_size`` is reached."""

        self._pending.append(
            BufferedEntry(
                entry=entry,
                operation_id=operation_id,
                requester=requester,
                buffered_at=now,
            )
        )
        self._pending_keys.add((entry.producer, entry.sequence))
        self._total_buffered += 1
        if len(self._pending) >= self._block_size:
            return self.flush()
        return None

    def contains(self, producer: NodeId, sequence: int) -> bool:
        """Whether an entry with this (producer, sequence) is buffered.

        Replay protection for entries that have not formed a block yet:
        ``entry_locations`` only covers formed blocks, so a duplicated
        append arriving before the block timeout would otherwise be
        buffered — and applied — twice.
        """

        return (producer, sequence) in self._pending_keys

    def flush(self) -> Optional[PendingBatch]:
        """Force the current contents out as a batch (None if empty)."""

        if not self._pending:
            return None
        batch = PendingBatch(entries=self._pending)
        self._pending = []
        self._pending_keys = set()
        return batch

    def oldest_age(self, now: float) -> Optional[float]:
        """Age in seconds of the oldest buffered entry, if any."""

        if not self._pending:
            return None
        return now - self._pending[0].buffered_at
