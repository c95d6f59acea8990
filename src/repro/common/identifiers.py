"""Node, client, block, and operation identifiers.

WedgeChain distinguishes three kinds of participants (Section III of the
paper): trusted *cloud* nodes, untrusted *edge* nodes, and authenticated
*clients*.  Block ids are monotonic integers scoped to a single edge node.
Operation ids let the client-side commit tracker correlate Phase I and
Phase II events for the same logical request.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum


class NodeRole(str, Enum):
    """The trust role a node plays in the system."""

    CLOUD = "cloud"
    EDGE = "edge"
    CLIENT = "client"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class NodeId:
    """A globally unique node identifier.

    Parameters
    ----------
    role:
        Whether the node is a cloud node, an edge node, or a client.
    name:
        A human readable, unique name (e.g. ``"edge-0"`` or ``"sensor-17"``).
    """

    role: NodeRole
    name: str

    def __str__(self) -> str:
        return f"{self.role.value}:{self.name}"


def cloud_id(name: str = "cloud-0") -> NodeId:
    """Convenience constructor for a cloud node identifier."""

    return NodeId(NodeRole.CLOUD, name)


def edge_id(name: str) -> NodeId:
    """Convenience constructor for an edge node identifier."""

    return NodeId(NodeRole.EDGE, name)


def client_id(name: str) -> NodeId:
    """Convenience constructor for a client identifier."""

    return NodeId(NodeRole.CLIENT, name)


#: Block ids are monotonic non-negative integers local to one edge node
#: (Section III: "Block ids are unique monotonic numbers assigned by the
#: edge node ... unique relative to an edge node").
BlockId = int

#: Shard ids index the key-space partitions of a sharded edge fleet
#: (``repro.sharding``); the cloud-signed shard map assigns each shard to
#: exactly one owning edge node.
ShardId = int


@dataclass(frozen=True, order=True)
class OperationId:
    """Identifies one logical client operation (add/read/put/get).

    The pair ``(client, sequence)`` is unique because every client numbers
    its own operations with a local counter.
    """

    client: NodeId
    sequence: int

    def __str__(self) -> str:
        return f"{self.client.name}#{self.sequence}"


class OperationKind(str, Enum):
    """The four public operations exposed by WedgeChain."""

    ADD = "add"
    READ = "read"
    PUT = "put"
    GET = "get"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SequenceGenerator:
    """A small monotonic counter used for operation and message sequencing."""

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)

    def next(self) -> int:
        """Return the next value in the sequence."""

        return next(self._counter)
