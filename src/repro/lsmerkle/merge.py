"""The cloud-coordinated merge (compaction) protocol of LSMerkle.

When a level of the edge's LSMerkle tree exceeds its threshold, the edge
sends the pages undergoing the merge to the cloud node (Section V-B
"Merging").  The cloud:

1. verifies the authenticity of the received state — level-0 pages are
   checked against the block digests it certified earlier, higher-level pages
   against the page digests it produced in previous merges;
2. performs the LSM merge (dropping stale versions);
3. recomputes the affected level's Merkle tree, re-signs the global root, and
   returns the merged pages plus the new :class:`SignedGlobalRoot`.

The cloud's view of the index state is digests only (:class:`CloudIndexMirror`),
preserving the data-free spirit for everything except the merge traffic the
paper explicitly accounts for; the records of the pages it answered with are
held apart, for its decoder only (``held`` in :mod:`repro.nodes.cloud`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..common.config import LSMerkleConfig
from ..common.errors import MergeProtocolError
from ..common.identifiers import BlockId, NodeId
from ..crypto.signatures import KeyRegistry
from ..log.block import Block
from ..lsm.compaction import MergeResult, merge_levels
from ..lsm.page import Page
from ..merkle.tree import MerkleTree
from .codec import page_from_block
from .mlsm import SignedGlobalRoot, sign_global_root


@dataclass(frozen=True)
class MergeProposal:
    """What the edge sends to the cloud to request a merge.

    For a level-0 merge the source state is the list of *blocks* backing the
    level-0 pages (the cloud verifies them against certified digests and
    derives the pages itself).  For higher levels the source state is the
    pages, verified against the cloud's digest mirror.
    """

    edge: NodeId
    level_index: int
    source_blocks: tuple[Block, ...] = ()
    source_pages: tuple[Page, ...] = ()
    target_pages: tuple[Page, ...] = ()
    #: Shard the merge concerns (sharded fleets keep one index — and one
    #: cloud mirror — per shard; ``None`` for the single-partition system).
    shard_id: Optional[int] = None

    @property
    def wire_size(self) -> int:
        size = 64
        size += sum(block.wire_size for block in self.source_blocks)
        size += sum(page.wire_size for page in self.source_pages)
        size += sum(page.wire_size for page in self.target_pages)
        return size


@dataclass(frozen=True)
class MergeOutcome:
    """What the cloud returns: the merged pages and the fresh signed root."""

    edge: NodeId
    level_index: int
    merged_pages: tuple[Page, ...]
    signed_root: SignedGlobalRoot
    records_in: int
    records_out: int
    #: Echoed from the proposal so the edge routes the outcome to the
    #: right shard's index (``None`` for the single-partition system).
    shard_id: Optional[int] = None

    @property
    def wire_size(self) -> int:
        return (
            96
            + sum(page.wire_size for page in self.merged_pages)
            + self.signed_root.wire_size
        )


@dataclass
class CloudIndexMirror:
    """The cloud's digest-level view of one edge node's LSMerkle tree."""

    edge: NodeId
    config: LSMerkleConfig
    page_capacity: int = 100
    #: Page digests per level (index 0 unused — level 0 is covered by block
    #: certification, not by the mirror).
    level_page_digests: list[list[str]] = field(default_factory=list)
    version: int = 0
    #: Block ids already consumed by a level-0 merge (prevents replaying the
    #: same blocks into the index twice).
    merged_block_ids: set[BlockId] = field(default_factory=set)
    #: Memoized per-level Merkle roots, keyed by level index and guarded by a
    #: fingerprint of the digest list so direct mutation of
    #: ``level_page_digests`` can never serve a stale root.
    _root_cache: dict[int, tuple[tuple[str, ...], str]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.level_page_digests:
            self.level_page_digests = [[] for _ in range(self.config.num_levels)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def level_roots(self) -> tuple[str, ...]:
        roots: list[str] = []
        for level_index, digests in enumerate(self.level_page_digests[1:], start=1):
            fingerprint = tuple(digests)
            cached = self._root_cache.get(level_index)
            if cached is not None and cached[0] == fingerprint:
                roots.append(cached[1])
                continue
            root = MerkleTree(fingerprint).root
            self._root_cache[level_index] = (fingerprint, root)
            roots.append(root)
        return tuple(roots)

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------
    def _verify_level_zero_sources(
        self,
        proposal: MergeProposal,
        certified_digests: dict[BlockId, str],
    ) -> None:
        for block in proposal.source_blocks:
            recomputed = block.digest()
            certified = certified_digests.get(block.block_id)
            if certified is None:
                raise MergeProtocolError(
                    f"block {block.block_id} from {proposal.edge} was never certified"
                )
            if certified != recomputed:
                raise MergeProtocolError(
                    f"block {block.block_id} content does not match its certified "
                    "digest — edge node flagged as malicious"
                )
            if block.block_id in self.merged_block_ids:
                raise MergeProtocolError(
                    f"block {block.block_id} was already merged into the index"
                )

    def _verify_page_digests(
        self, pages: Sequence[Page], level_index: int, label: str
    ) -> None:
        expected = Counter(self.level_page_digests[level_index])
        received = Counter(page.digest() for page in pages)
        if received != expected:
            raise MergeProtocolError(
                f"{label} pages for level {level_index} of {self.edge} do not match "
                "the cloud's digest mirror"
            )

    # ------------------------------------------------------------------
    # Merge execution
    # ------------------------------------------------------------------
    def execute_merge(
        self,
        proposal: MergeProposal,
        certified_digests: dict[BlockId, str],
        registry: KeyRegistry,
        cloud: NodeId,
        now: float,
    ) -> MergeOutcome:
        """Verify a merge proposal, perform the merge, and sign the new root."""

        level_index = proposal.level_index
        if not 0 <= level_index < self.config.num_levels - 1:
            raise MergeProtocolError(
                f"cannot merge level {level_index} of {self.config.num_levels}"
            )

        if level_index == 0:
            self._verify_level_zero_sources(proposal, certified_digests)
        else:
            self._verify_page_digests(proposal.source_pages, level_index, "source")

        self._verify_page_digests(proposal.target_pages, level_index + 1, "target")

        result = self._merge(proposal, now)

        # Update the digest mirror.
        if level_index == 0:
            self.merged_block_ids.update(
                block.block_id for block in proposal.source_blocks
            )
        else:
            self.level_page_digests[level_index] = []
        self.level_page_digests[level_index + 1] = [
            page.digest() for page in result.pages
        ]
        self.version += 1

        signed_root = sign_global_root(
            registry=registry,
            cloud=cloud,
            edge=self.edge,
            level_roots=self.level_roots(),
            version=self.version,
            timestamp=now,
        )
        return self._outcome(proposal, result, signed_root)

    def replay_merge(
        self, proposal: MergeProposal, signed_root: SignedGlobalRoot
    ) -> MergeOutcome:
        """Rebuild the outcome of a proposal this mirror already executed.

        *signed_root* is the root the execution signed.  The merge is a pure
        function of the proposal's pages, the root's timestamp and the page
        capacity, so re-running it yields the original pages (only the
        process-local ``page_id`` differs, which no digest covers).  The
        caller must have matched the proposal's content fingerprint to that
        execution: no check is re-run and the mirror is left as it is.
        """

        result = self._merge(proposal, signed_root.statement.timestamp)
        return self._outcome(proposal, result, signed_root)

    def _merge(self, proposal: MergeProposal, now: float) -> MergeResult:
        """The LSM merge a proposal asks for, shared by execution and replay."""

        if proposal.level_index == 0:
            # No memo: on the simulator these are the edge's own blocks, and
            # a replayed merge would re-attach records the edge has released.
            source_pages = [
                page
                for page in (
                    page_from_block(block, memoize=False)
                    for block in proposal.source_blocks
                )
                if page is not None
            ]
        else:
            source_pages = list(proposal.source_pages)
        return merge_levels(
            source_pages,
            proposal.target_pages,
            created_at=now,
            page_capacity=self.page_capacity,
        )

    def _outcome(
        self,
        proposal: MergeProposal,
        result: MergeResult,
        signed_root: SignedGlobalRoot,
    ) -> MergeOutcome:
        return MergeOutcome(
            edge=self.edge,
            level_index=proposal.level_index,
            merged_pages=result.pages,
            signed_root=signed_root,
            records_in=result.records_in,
            records_out=result.records_out,
            shard_id=proposal.shard_id,
        )

    def sign_current_root(
        self, registry: KeyRegistry, cloud: NodeId, now: float
    ) -> SignedGlobalRoot:
        """Re-sign the current roots with a fresh timestamp (no-op merge).

        Used to refresh the freshness window when updates are infrequent
        (Section V-D: the edge can trigger no-op root refreshes).
        """

        self.version += 1
        return sign_global_root(
            registry=registry,
            cloud=cloud,
            edge=self.edge,
            level_roots=self.level_roots(),
            version=self.version,
            timestamp=now,
        )
