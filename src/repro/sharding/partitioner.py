"""Key-space partitioning: mapping keys to shard ids.

Two partitioners are provided behind one interface:

``HashRingPartitioner``
    Consistent hashing over a ring of virtual nodes.  Each shard owns
    several deterministic points on a 2^64 ring; a key hashes to a point
    and belongs to the first shard point at or after it.  Load spreads
    uniformly regardless of key skew in *key space* (hot individual keys
    still concentrate on their shard), and shard count changes move only a
    proportional slice of the ring.

``RangePartitioner``
    Contiguous lexicographic ranges over the fixed-width key format of
    :func:`repro.workloads.generator.format_key`.  Ordered scans stay
    shard-local, but skewed workloads (Zipfian over key indices) pile onto
    the low shards — exactly the hotspot case the certified shard-handoff
    protocol rebalances away.

Both are pure functions of their configuration: every node of a fleet
(clients, edges, cloud) instantiates the same partitioner from the shard
map's ``partitioner`` name and agrees on key placement without
communication.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right

from ..common.errors import ConfigurationError
from ..common.identifiers import ShardId

#: Virtual ring points per shard (hash-ring only).  Enough to keep the
#: per-shard share of the ring within a few percent of uniform.
DEFAULT_VNODES_PER_SHARD = 32

_RING_BITS = 64
_RING_SIZE = 1 << _RING_BITS


class KeyPartitioner:
    """Interface every partitioner implements: key → shard id."""

    #: Registry name ("hash-ring" / "range"), set by subclasses.
    name: str = ""

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        self.num_shards = num_shards

    def shard_of(self, key: str) -> ShardId:
        """The shard id owning *key*."""

        raise NotImplementedError


def _ring_point(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRingPartitioner(KeyPartitioner):
    """Consistent hashing over a 2^64 ring of virtual shard points."""

    name = "hash-ring"

    def __init__(
        self, num_shards: int, vnodes_per_shard: int = DEFAULT_VNODES_PER_SHARD
    ) -> None:
        super().__init__(num_shards)
        if vnodes_per_shard <= 0:
            raise ConfigurationError("vnodes_per_shard must be positive")
        self.vnodes_per_shard = vnodes_per_shard
        points: list[tuple[int, ShardId]] = []
        for shard_id in range(num_shards):
            for vnode in range(vnodes_per_shard):
                points.append((_ring_point(f"shard-{shard_id}:vn-{vnode}"), shard_id))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_of(self, key: str) -> ShardId:
        point = _ring_point(f"key:{key}")
        index = bisect_left(self._points, point)
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._owners[index]


class RangePartitioner(KeyPartitioner):
    """Contiguous lexicographic key ranges, one per shard.

    Split points divide the sorted key universe into ``num_shards`` equal
    slices of the fixed-width decimal suffix produced by ``format_key``.
    Keys outside that format still partition deterministically (by falling
    into whichever range their string sorts into).
    """

    name = "range"

    #: Width of the decimal suffix in ``format_key`` ("key%012d").
    KEY_INDEX_WIDTH = 12

    def __init__(self, num_shards: int, key_space: int = 10**KEY_INDEX_WIDTH) -> None:
        super().__init__(num_shards)
        if key_space < num_shards:
            raise ConfigurationError("key_space must be at least num_shards")
        self.key_space = key_space
        width = self.KEY_INDEX_WIDTH
        #: Lower bound key of each shard after the first.
        self._split_keys = [
            f"key{(shard_id * key_space) // num_shards:0{width}d}"
            for shard_id in range(1, num_shards)
        ]

    def shard_of(self, key: str) -> ShardId:
        return bisect_right(self._split_keys, key)


def make_partitioner(
    name: str, num_shards: int, key_space: int = 10**RangePartitioner.KEY_INDEX_WIDTH
) -> KeyPartitioner:
    """Instantiate a partitioner by registry name."""

    if name == HashRingPartitioner.name:
        return HashRingPartitioner(num_shards)
    if name == RangePartitioner.name:
        return RangePartitioner(num_shards, key_space=key_space)
    raise ConfigurationError(f"unknown partitioner {name!r}")
