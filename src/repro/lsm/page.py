"""Pages: the immutable unit of storage in the LSM/LSMerkle structure.

A page holds a key-sorted batch of records plus meta information ("the range
of keys in the page and a timestamp of the time the page was created",
Section V-A).  Pages at level 0 come straight from WedgeChain blocks and may
contain several versions of the same key; pages at higher levels are produced
by merges and contain at most one version per key.

Because pages are immutable, lookup-relevant derived state (the key tuple,
the wire size, the content digest) is computed once and memoized on the
instance; lookups binary-search the sorted key tuple instead of scanning.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional

from ..common.errors import ProtocolError
from ..common.identifiers import BlockId
from ..crypto.hashing import digest_value
from .records import KeyFence, KVRecord

_page_counter = itertools.count()


def _next_page_id() -> int:
    return next(_page_counter)


@dataclass(frozen=True)
class Page:
    """An immutable, key-sorted batch of records with a key fence."""

    records: tuple[KVRecord, ...]
    fence: KeyFence
    created_at: float
    page_id: int = field(default_factory=_next_page_id)
    #: The WedgeChain block this page was formed from (level-0 pages only).
    source_block_id: Optional[BlockId] = None

    def __post_init__(self) -> None:
        records = self.records
        for left, right in zip(records, records[1:]):
            if left.key > right.key:
                raise ProtocolError("page records must be sorted by key")
        # With sorted keys and an interval fence, checking the two endpoint
        # records covers every record in between.
        if records:
            for record in (records[0], records[-1]):
                if not self.fence.contains(record.key):
                    raise ProtocolError(
                        f"record key {record.key!r} outside page fence {self.fence}"
                    )

    @classmethod
    def _trusted(
        cls,
        records: tuple[KVRecord, ...],
        fence: KeyFence,
        created_at: float,
        source_block_id: Optional[BlockId] = None,
    ) -> "Page":
        """Construct without validation for provably well-formed inputs.

        Merge and codec paths build pages from records they just sorted and
        fences they just derived; re-validating each page costs an
        O(n log n) sort plus a fence scan on the hottest write path.  Pages
        received from other nodes must never be built through this
        constructor — trust is scoped to the exact call, with no global
        state, so no concurrent construction can bypass validation.
        """

        page = object.__new__(cls)
        object.__setattr__(page, "records", records)
        object.__setattr__(page, "fence", fence)
        object.__setattr__(page, "created_at", created_at)
        object.__setattr__(page, "page_id", _next_page_id())
        object.__setattr__(page, "source_block_id", source_block_id)
        return page

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def min_key(self) -> Optional[str]:
        return self.records[0].key if self.records else None

    @property
    def max_key(self) -> Optional[str]:
        return self.records[-1].key if self.records else None

    @property
    def wire_size(self) -> int:
        cached = getattr(self, "_wire_size_cache", None)
        if cached is None:
            cached = 64 + sum(record.wire_size for record in self.records)
            object.__setattr__(self, "_wire_size_cache", cached)
        return cached

    def digest(self) -> str:
        """Content digest of the page (what Merkle leaves are built from).

        Cached after the first computation — pages are immutable and their
        digests are recomputed frequently (Merkle rebuilds, merge checks).
        """

        cached = getattr(self, "_digest_cache", None)
        if cached is not None:
            return cached
        computed = digest_value(
            (
                tuple(self.records),
                self.fence.lower,
                self.fence.upper,
                self.created_at,
                self.source_block_id,
            )
        )
        object.__setattr__(self, "_digest_cache", computed)
        return computed

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[KVRecord]:
        """Return the most recent record for *key* within this page.

        Binary-searches the sorted key tuple; when a level-0 page carries
        several versions of the key, the newest one in the equal-key run
        wins.
        """

        keys = self.keys()
        start = bisect_left(keys, key)
        if start == len(keys) or keys[start] != key:
            return None
        stop = bisect_right(keys, key, lo=start)
        best = self.records[start]
        for record in self.records[start + 1 : stop]:
            if record.is_newer_than(best):
                best = record
        return best

    def keys(self) -> tuple[str, ...]:
        cached = getattr(self, "_keys_cache", None)
        if cached is None:
            cached = tuple(record.key for record in self.records)
            object.__setattr__(self, "_keys_cache", cached)
        return cached

    def could_contain(self, key: str) -> bool:
        """Whether this page's fence covers *key*."""

        return self.fence.contains(key)


def build_page(
    records: Iterable[KVRecord],
    created_at: float,
    fence: Optional[KeyFence] = None,
    source_block_id: Optional[BlockId] = None,
) -> Page:
    """Sort records by key (recency-stable) and wrap them in a page.

    If no fence is given, a tight fence covering exactly the page's keys is
    used (suitable for level-0 pages where fences are informational; merge
    code assigns contiguous fences explicitly for higher levels).
    """

    ordered = sorted(records, key=attrgetter("key", "sequence"))
    if fence is None:
        if ordered:
            fence = KeyFence(lower=ordered[0].key, upper=None)
            # A tight upper bound cannot be expressed exactly with half-open
            # string ranges; keep it unbounded above, which is always safe.
        else:
            fence = KeyFence.covering_everything()
    elif ordered and not (
        fence.contains(ordered[0].key) and fence.contains(ordered[-1].key)
    ):
        offending = ordered[0] if not fence.contains(ordered[0].key) else ordered[-1]
        raise ProtocolError(
            f"record key {offending.key!r} outside page fence {fence}"
        )
    return Page._trusted(
        records=tuple(ordered),
        fence=fence,
        created_at=created_at,
        source_block_id=source_block_id,
    )
