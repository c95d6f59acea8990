"""Shard routing: key → shard → owning edge.

The :class:`ShardRouter` is the small, hot piece of a shard-aware client:
every operation resolves its key through the partitioner (pure computation)
and the verified shard-map view (one dict lookup).  The ``shard_route``
micro-benchmark in :mod:`repro.bench.perf` tracks exactly this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..common.identifiers import NodeId, ShardId
from .partitioner import KeyPartitioner
from .shard_map import ShardMapView


@dataclass(frozen=True)
class Route:
    """Resolution of one key: its shard and the edge believed to own it."""

    key: str
    shard_id: ShardId
    owner: Optional[NodeId]


class ShardRouter:
    """Routes keys to owning edges through a verified shard-map view."""

    def __init__(
        self,
        partitioner: KeyPartitioner,
        view: ShardMapView,
        default_owner: Optional[NodeId] = None,
    ) -> None:
        self.partitioner = partitioner
        self.view = view
        #: Used before the first shard map arrives (fresh client bootstrap).
        self.default_owner = default_owner
        self.stats = {"routes": 0, "unresolved": 0}

    def owner_of(self, shard_id: ShardId) -> Optional[NodeId]:
        owner = self.view.owner_of(shard_id)
        if owner is None:
            owner = self.default_owner
        return owner

    def route(self, key: str) -> Route:
        """Resolve one key to ``(shard, owner)``."""

        shard_id = self.partitioner.shard_of(key)
        owner = self.owner_of(shard_id)
        self.stats["routes"] += 1
        if owner is None:
            self.stats["unresolved"] += 1
        return Route(key=key, shard_id=shard_id, owner=owner)

    def split_batch(
        self, items: Iterable[tuple[str, bytes]]
    ) -> dict[tuple[ShardId, Optional[NodeId]], list[tuple[str, bytes]]]:
        """Group put items by (shard, owner) for per-owner batch requests.

        Preserves the within-group item order, so per-shard batches retain
        the client's write order.
        """

        groups: dict[tuple[ShardId, Optional[NodeId]], list[tuple[str, bytes]]] = {}
        for key, value in items:
            route = self.route(key)
            groups.setdefault((route.shard_id, route.owner), []).append((key, value))
        return groups
