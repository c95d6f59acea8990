"""Signed gossip from the cloud node (omission-attack mitigation).

The cloud periodically signs ``(edge, certified log size, timestamp)``
statements and propagates them to clients (Section IV-E).  A client holding
such gossip knows that every block id below the certified log size exists,
so an edge node denying one of those blocks can be disputed.  The window of
vulnerability for fresh blocks equals the gossip interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..common.identifiers import NodeId
from ..crypto.signatures import KeyRegistry
from ..messages.log_messages import (
    GossipBatchMessage,
    GossipBatchStatement,
    GossipEntry,
    GossipMessage,
    GossipStatement,
)

#: Either gossip form: the per-edge message or the batched multi-edge one.
AnyGossipMessage = Union[GossipMessage, GossipBatchMessage]


def build_gossip(
    registry: KeyRegistry,
    cloud: NodeId,
    edge: NodeId,
    certified_log_size: int,
    timestamp: float,
) -> GossipMessage:
    """Create a cloud-signed gossip message about one edge node's log."""

    statement = GossipStatement(
        cloud=cloud,
        edge=edge,
        certified_log_size=certified_log_size,
        timestamp=timestamp,
    )
    return GossipMessage(statement=statement, signature=registry.sign(cloud, statement))


def build_gossip_batch(
    registry: KeyRegistry,
    cloud: NodeId,
    certified_log_sizes: Mapping[NodeId, int],
    timestamp: float,
) -> GossipBatchMessage:
    """Create one cloud-signed gossip message covering every edge at once.

    One signature per gossip interval instead of one per edge; entries are
    ordered by edge id so the signed bytes are deterministic regardless of
    the cloud's internal bookkeeping order.
    """

    entries = tuple(
        GossipEntry(edge=edge, certified_log_size=certified_log_sizes[edge])
        for edge in sorted(certified_log_sizes)
    )
    statement = GossipBatchStatement(cloud=cloud, timestamp=timestamp, entries=entries)
    return GossipBatchMessage(
        statement=statement, signature=registry.sign(cloud, statement)
    )


def verify_gossip(
    registry: KeyRegistry,
    message: AnyGossipMessage,
    cloud: Optional[NodeId] = None,
) -> bool:
    """Verify the cloud's signature on either gossip form."""

    if cloud is not None and message.signature.signer != cloud:
        return False
    return registry.verify(message.signature, message.statement)


@dataclass
class GossipView:
    """A client's latest view of the certified log size of its edge node."""

    edge: NodeId
    certified_log_size: int = 0
    as_of: float = 0.0

    def update(self, message: AnyGossipMessage) -> bool:
        """Apply newer gossip; returns whether the view advanced.

        Accepts both the per-edge and the batched multi-edge form.  A
        message that does not mention this view's edge — the single-edge
        form for a different edge, or a batch without an entry for it — is
        ignored entirely: it returns ``False`` and leaves both the size and
        ``as_of`` untouched, even when its timestamp is strictly newer.  A
        message at exactly ``as_of`` is applied (sizes are monotone, so an
        equal-timestamp replay can only confirm or advance the view).
        """

        statement = message.statement
        if isinstance(statement, GossipBatchStatement):
            size = statement.size_for(self.edge)
            if size is None:
                return False
        else:
            if statement.edge != self.edge:
                return False
            size = statement.certified_log_size
        if statement.timestamp < self.as_of:
            return False
        advanced = size > self.certified_log_size
        self.certified_log_size = max(self.certified_log_size, size)
        self.as_of = statement.timestamp
        return advanced

    def block_should_exist(self, block_id: int) -> bool:
        """Whether gossip proves the block id has been certified already."""

        return block_id < self.certified_log_size

