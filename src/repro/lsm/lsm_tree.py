"""The LSM tree: levels, lookups, and merge scheduling.

This substrate is deliberately independent of trust: it is a plain,
in-memory, multi-level structure with the shape described in Section II-B.1
(level 0 in memory, per-level page thresholds, merge into the next level when
a threshold is exceeded).  The trusted index (LSMerkle) layers Merkle trees
and cloud certification on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..common.config import LSMerkleConfig
from ..common.errors import ConfigurationError
from .compaction import DEFAULT_PAGE_CAPACITY, MergeResult, merge_levels
from .level import Level
from .page import Page
from .records import KVRecord


@dataclass(frozen=True)
class LookupResult:
    """Where a key's most recent version was found."""

    record: Optional[KVRecord]
    level_index: Optional[int] = None
    page: Optional[Page] = None

    @property
    def found(self) -> bool:
        return self.record is not None


class LSMTree:
    """A multi-level LSM tree over immutable pages."""

    def __init__(
        self,
        config: Optional[LSMerkleConfig] = None,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
    ) -> None:
        self._config = config if config is not None else LSMerkleConfig.paper_default()
        if page_capacity <= 0:
            raise ConfigurationError("page_capacity must be positive")
        self._page_capacity = page_capacity
        self.levels: list[Level] = [
            Level(index=index, threshold=threshold)
            for index, threshold in enumerate(self._config.level_thresholds)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> LSMerkleConfig:
        return self._config

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def level_zero(self) -> Level:
        return self.levels[0]

    def total_records(self) -> int:
        return sum(level.total_records for level in self.levels)

    def total_pages(self) -> int:
        return sum(level.num_pages for level in self.levels)

    def level_page_counts(self) -> tuple[int, ...]:
        return tuple(level.num_pages for level in self.levels)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add_level_zero_page(self, page: Page) -> bool:
        """Append a fresh page to level 0; return whether a merge is due."""

        self.level_zero.append_page(page)
        return self.level_zero.exceeds_threshold

    def levels_needing_merge(self) -> tuple[int, ...]:
        """Indices of levels currently over their threshold (excluding the last)."""

        return tuple(
            level.index
            for level in self.levels[:-1]
            if level.exceeds_threshold
        )

    def plan_merge(self, level_index: int) -> tuple[Sequence[Page], Sequence[Page]]:
        """Return (source pages, target pages) for merging level ``i`` into ``i+1``."""

        if not 0 <= level_index < self.num_levels - 1:
            raise ConfigurationError(
                f"cannot merge level {level_index} of {self.num_levels}"
            )
        return (
            tuple(self.levels[level_index].pages),
            tuple(self.levels[level_index + 1].pages),
        )

    def merge_level(self, level_index: int, created_at: float) -> MergeResult:
        """Merge level ``i`` into ``i+1`` locally and apply the result.

        WedgeChain proper delegates the merge computation to the cloud node;
        this local variant is used by the untrusted-free baselines and tests.
        """

        source, target = self.plan_merge(level_index)
        result = merge_levels(source, target, created_at, self._page_capacity)
        self.apply_merge(level_index, result.pages)
        return result

    def apply_merge(self, level_index: int, merged_pages: Sequence[Page]) -> None:
        """Install externally computed merge results (e.g. from the cloud)."""

        if not 0 <= level_index < self.num_levels - 1:
            raise ConfigurationError(
                f"cannot merge level {level_index} of {self.num_levels}"
            )
        self.levels[level_index].clear()
        self.levels[level_index + 1].replace_pages(merged_pages)

    def compact_all(self, created_at: float) -> list[MergeResult]:
        """Run local merges until no level (except the last) is over threshold."""

        results: list[MergeResult] = []
        pending = self.levels_needing_merge()
        while pending:
            results.append(self.merge_level(pending[0], created_at))
            pending = self.levels_needing_merge()
        return results

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> LookupResult:
        """Find the most recent version of *key* across all levels.

        Level 0 is searched first (it always holds the newest data); lower
        levels are searched in order and the first hit wins because levels
        below never contain fresher versions than levels above.
        """

        level_zero_hit = self.level_zero.lookup(key)
        if level_zero_hit is not None:
            page = self._containing_page(self.level_zero, key, level_zero_hit)
            return LookupResult(record=level_zero_hit, level_index=0, page=page)

        for level in self.levels[1:]:
            page = level.intersecting_page(key)
            if page is None:
                continue
            record = page.lookup(key)
            if record is not None:
                return LookupResult(record=record, level_index=level.index, page=page)
        return LookupResult(record=None)

    @staticmethod
    def _containing_page(level: Level, key: str, record: KVRecord) -> Optional[Page]:
        for page in level.pages_newest_first():
            candidate = page.lookup(key)
            if candidate is not None and candidate.sequence == record.sequence:
                return page
        return None
