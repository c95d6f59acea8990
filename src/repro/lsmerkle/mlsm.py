"""The merkleized LSM structure (mLSM) and cloud-signed global roots.

mLSM (Raju et al., HotStorage'18) combines an LSM tree with Merkle trees: the
pages of every level above 0 are leaves of a per-level Merkle tree, and a
*global root* commits to all level roots.  LSMerkle adopts this structure at
the edge and replaces the memory component (level 0) with the WedgeChain
log/buffer whose pages are certified lazily through block proofs.

The trusted cloud node signs a :class:`GlobalRootStatement` whenever it
performs a merge; that signed statement is what read proofs are verified
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..common.config import LSMerkleConfig
from ..common.errors import ProofVerificationError
from ..common.identifiers import NodeId
from ..crypto.hashing import digest_chain
from ..crypto.signatures import KeyRegistry, Signature
from ..lsm.lsm_tree import LSMTree
from ..lsm.page import Page
from ..merkle.tree import InclusionProof, MerkleTree


@dataclass(frozen=True)
class GlobalRootStatement:
    """What the cloud signs after every merge: all level roots + global root.

    ``version`` increases with every merge so stale roots can be recognised;
    ``timestamp`` enables the freshness window of Section V-D.
    """

    edge: NodeId
    level_roots: tuple[str, ...]
    global_root: str
    version: int
    timestamp: float


@dataclass(frozen=True)
class SignedGlobalRoot:
    """A cloud-signed global root statement."""

    statement: GlobalRootStatement
    signature: Signature

    @property
    def wire_size(self) -> int:
        return 96 + 72 * len(self.statement.level_roots)

    def verify(self, registry: KeyRegistry, cloud: Optional[NodeId] = None) -> bool:
        """Check the cloud's signature (and optionally the signer identity)."""

        if cloud is not None and self.signature.signer != cloud:
            return False
        if not registry.verify(self.signature, self.statement):
            return False
        expected = compute_global_root(self.statement.level_roots)
        return expected == self.statement.global_root

    def verify_cached(self, registry: KeyRegistry, cloud: Optional[NodeId] = None) -> bool:
        """Like :meth:`verify`, memoized per signer identity.

        Every get between two merges verifies the same signed root; the
        statement, signature, and registry keys are immutable, so the result
        can be reused within one simulation.  The verdict lives in the
        registry's cache, never on this (edge-relayed) object, so a
        malicious edge cannot attach a forged verdict.
        """

        memo = registry.verdict_memo(self)
        verdict = memo.get(cloud)
        if verdict is None:
            verdict = self.verify(registry, cloud)
            memo[cloud] = verdict
        return verdict


def compute_global_root(level_roots: Sequence[str]) -> str:
    """The global root is the hash chain over all per-level Merkle roots."""

    return digest_chain(level_roots)


def empty_level_root() -> str:
    """Merkle root of a level with no pages."""

    return MerkleTree([]).root


def sign_global_root(
    registry: KeyRegistry,
    cloud: NodeId,
    edge: NodeId,
    level_roots: Sequence[str],
    version: int,
    timestamp: float,
) -> SignedGlobalRoot:
    """Build and sign a global root statement on behalf of the cloud."""

    statement = GlobalRootStatement(
        edge=edge,
        level_roots=tuple(level_roots),
        global_root=compute_global_root(level_roots),
        version=version,
        timestamp=timestamp,
    )
    return SignedGlobalRoot(statement=statement, signature=registry.sign(cloud, statement))


class MerkleizedLSM:
    """An LSM tree whose levels above 0 carry Merkle trees over page digests.

    This class is pure data structure: it does not know about the cloud or
    certification.  The edge node holds one (driven by certified merges), and
    the cloud node holds a digest-level mirror per edge to validate merges.
    """

    def __init__(
        self,
        config: Optional[LSMerkleConfig] = None,
        page_capacity: int = 100,
    ) -> None:
        self.tree = LSMTree(config=config, page_capacity=page_capacity)
        self._level_merkles: dict[int, MerkleTree] = {}
        self._rebuild_all_merkles()

    # ------------------------------------------------------------------
    # Merkle maintenance
    # ------------------------------------------------------------------
    def _rebuild_all_merkles(self) -> None:
        for level in self.tree.levels[1:]:
            self._level_merkles[level.index] = MerkleTree(level.page_digests())

    def _rebuild_level_merkle(self, level_index: int) -> None:
        level = self.tree.levels[level_index]
        existing = self._level_merkles.get(level_index)
        if existing is None:
            self._level_merkles[level_index] = MerkleTree(level.page_digests())
        else:
            # Incremental: only the pages that actually changed are re-hashed.
            existing.update_leaves(level.page_digests())

    def level_merkle(self, level_index: int) -> MerkleTree:
        """The Merkle tree of a level above 0."""

        if level_index <= 0 or level_index >= self.tree.num_levels:
            raise ProofVerificationError(
                f"level {level_index} has no Merkle tree"
            )
        return self._level_merkles[level_index]

    def level_roots(self) -> tuple[str, ...]:
        """Merkle roots of levels 1..n, in level order."""

        return tuple(
            self._level_merkles[level.index].root for level in self.tree.levels[1:]
        )

    def global_root(self) -> str:
        return compute_global_root(self.level_roots())

    def roots_match(self, signed_root: SignedGlobalRoot) -> bool:
        """Whether this index's Merkle-tracked roots equal the signed ones.

        Level 0 is deliberately outside the comparison: the signed root only
        ever covers levels 1..n (level 0 is the uncertified WedgeChain
        buffer), so blocks logged after the root was signed do not disturb
        the match.  Used by crash recovery to check a rebuilt index against
        the last durable :class:`SignedGlobalRoot`.
        """

        return self.level_roots() == signed_root.statement.level_roots

    # ------------------------------------------------------------------
    # Structure updates
    # ------------------------------------------------------------------
    def add_level_zero_page(self, page: Page) -> bool:
        """Append a level-0 page; returns whether a merge is now due."""

        return self.tree.add_level_zero_page(page)

    def apply_merge(self, level_index: int, merged_pages: Sequence[Page]) -> None:
        """Install merge results and refresh the affected Merkle tree."""

        self.tree.apply_merge(level_index, merged_pages)
        self._rebuild_level_merkle(level_index + 1)
        if level_index >= 1:
            self._rebuild_level_merkle(level_index)

    def install_level_pages(self, level_index: int, pages: Sequence[Page]) -> None:
        """Install the full page list of one Merkle-tracked level.

        Used when adopting a shard through the certified handoff protocol:
        the destination edge receives every level's pages from the source
        and installs them wholesale, then verifies the resulting level
        roots against the cloud-countersigned state digest.
        """

        if level_index <= 0 or level_index >= self.tree.num_levels:
            raise ProofVerificationError(
                f"level {level_index} cannot be installed wholesale"
            )
        self.tree.levels[level_index].replace_pages(pages)
        self._rebuild_level_merkle(level_index)

    def install_merge(
        self,
        level_index: int,
        merged_pages: Sequence[Page],
        remaining_source_pages: Sequence[Page] = (),
    ) -> None:
        """Install a cloud-computed merge, keeping unmerged source pages.

        Because certification is lazy, a level-0 merge may cover only the
        *certified* prefix of level 0; pages whose blocks are still awaiting
        certification stay behind (``remaining_source_pages``).
        """

        self.tree.levels[level_index + 1].replace_pages(merged_pages)
        self.tree.levels[level_index].replace_pages(remaining_source_pages)
        self._rebuild_level_merkle(level_index + 1)
        if level_index >= 1:
            self._rebuild_level_merkle(level_index)

    # ------------------------------------------------------------------
    # Proof helpers
    # ------------------------------------------------------------------
    def prove_page(self, level_index: int, page: Page) -> InclusionProof:
        """Inclusion proof of *page* under its level's Merkle root."""

        level = self.tree.levels[level_index]
        digests = level.page_digests()
        try:
            leaf_index = digests.index(page.digest())
        except ValueError as exc:
            raise ProofVerificationError(
                f"page {page.page_id} not present in level {level_index}"
            ) from exc
        return self.level_merkle(level_index).prove(leaf_index)

    # ------------------------------------------------------------------
    # Convenience passthroughs
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return self.tree.num_levels

    def get(self, key: str):
        return self.tree.get(key)

    def levels_needing_merge(self) -> tuple[int, ...]:
        return self.tree.levels_needing_merge()

    def level_page_counts(self) -> tuple[int, ...]:
        return self.tree.level_page_counts()

    def total_records(self) -> int:
        return self.tree.total_records()
