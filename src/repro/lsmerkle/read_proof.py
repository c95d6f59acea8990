"""Construction and verification of LSMerkle read (get) proofs.

A get response must convince the client that the returned value is the most
recent version of the key (Section V-B "Reading"):

* every level-0 page is returned (as its source block plus, when available,
  the cloud's block proof), because any of them could hold a newer version;
* for each Merkle-tracked level between level 0 and the level where the value
  was found, the single page whose key fence covers the key is returned with
  a Merkle inclusion proof against the cloud-signed level root;
* the cloud-signed global root statement authenticates the level roots and
  carries the timestamp used by the freshness window (Section V-D).

If some level-0 blocks are not yet certified the read is only Phase I
committed — the client keeps the signed response as dispute evidence and
upgrades to Phase II when the block proofs arrive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..common.errors import ProofVerificationError, SerializationError
from ..common.identifiers import BlockId, NodeId
from ..crypto.signatures import KeyRegistry
from ..log.block import Block
from ..log.proofs import BlockProof, CommitPhase
from ..lsm.page import Page
from ..lsm.records import KVRecord
from ..merkle.tree import InclusionProof
from .codec import key_map, records_with_key
from .mlsm import MerkleizedLSM, SignedGlobalRoot, empty_level_root


@dataclass(frozen=True)
class LevelZeroEvidence:
    """One level-0 page, presented as its source block plus certification."""

    block: Block
    proof: Optional[BlockProof] = None

    @property
    def block_id(self) -> BlockId:
        return self.block.block_id

    @property
    def is_certified(self) -> bool:
        return self.proof is not None

    @property
    def wire_size(self) -> int:
        size = self.block.wire_size
        if self.proof is not None:
            size += self.proof.wire_size
        return size


@dataclass(frozen=True)
class LevelPageEvidence:
    """The intersecting page of one Merkle-tracked level plus its proof."""

    level_index: int
    page: Page
    inclusion: InclusionProof

    @property
    def wire_size(self) -> int:
        return self.page.wire_size + self.inclusion.wire_size


@dataclass(frozen=True)
class GetProof:
    """Everything attached to a get response besides the value itself."""

    key: str
    level_zero: tuple[LevelZeroEvidence, ...]
    level_pages: tuple[LevelPageEvidence, ...]
    signed_root: Optional[SignedGlobalRoot]

    @property
    def wire_size(self) -> int:
        size = 64
        size += sum(item.wire_size for item in self.level_zero)
        size += sum(item.wire_size for item in self.level_pages)
        if self.signed_root is not None:
            size += self.signed_root.wire_size
        return size

    @property
    def uncertified_block_ids(self) -> tuple[BlockId, ...]:
        return tuple(
            evidence.block_id for evidence in self.level_zero if not evidence.is_certified
        )


@dataclass(frozen=True)
class VerifiedGet:
    """Result of verifying a get proof at the client."""

    found: bool
    record: Optional[KVRecord]
    phase: CommitPhase
    uncertified_block_ids: tuple[BlockId, ...]
    root_timestamp: Optional[float]
    #: Version of the signed global root the response was verified against
    #: (``None`` before the first merge).  Clients implementing session
    #: consistency (Section V-D alternative) reject responses whose version
    #: is older than one they have already observed.
    root_version: Optional[int] = None


#: ``id(block) -> (block, key_map(block))``: the key maps a reader keeps for
#: level-0 blocks it verified before (:func:`key_maps_for`).
KeyMaps = dict[int, tuple[Block, dict[str, tuple[KVRecord, ...]]]]


def key_maps_for(blocks: Sequence[Block], previous: Optional[KeyMaps] = None) -> KeyMaps:
    """The key map (:func:`~repro.lsmerkle.codec.key_map`) of every block of
    *blocks*, taking *previous*'s for a block it already maps, so each
    block's map is built once however many gets repeat it.  Each entry
    keeps its block alive, so an id *previous* maps is that very block."""

    previous = previous or {}
    return {
        id(block): previous.get(id(block)) or (block, key_map(block))
        for block in blocks
    }


# ----------------------------------------------------------------------
# Proof construction (edge side)
# ----------------------------------------------------------------------
def build_get_proof(
    key: str,
    index: MerkleizedLSM,
    level_zero_blocks: Sequence[tuple[Block, Optional[BlockProof]]],
    signed_root: Optional[SignedGlobalRoot],
    found_level: Optional[int],
) -> GetProof:
    """Assemble a get proof at the edge node.

    ``level_zero_blocks`` are the blocks backing the current level-0 pages in
    arrival order.  ``found_level`` is the level where the newest version was
    found (``None`` when the key was found in level 0 or not found at all —
    in the not-found case evidence from every level is attached).
    """

    level_zero = tuple(
        LevelZeroEvidence(block=block, proof=proof)
        for block, proof in level_zero_blocks
    )

    level_pages: list[LevelPageEvidence] = []
    if found_level == 0:
        deepest = 0
    elif found_level is None:
        deepest = index.num_levels - 1
    else:
        deepest = found_level
    for level in index.tree.levels[1:]:
        if level.index > deepest:
            break
        page = level.intersecting_page(key)
        if page is None:
            continue
        inclusion = index.prove_page(level.index, page)
        level_pages.append(
            LevelPageEvidence(level_index=level.index, page=page, inclusion=inclusion)
        )
    return GetProof(
        key=key,
        level_zero=level_zero,
        level_pages=tuple(level_pages),
        signed_root=signed_root,
    )


# ----------------------------------------------------------------------
# Proof verification (client side)
# ----------------------------------------------------------------------
def _verify_level_zero(
    registry: KeyRegistry,
    cloud: Optional[NodeId],
    edge: NodeId,
    evidence: Sequence[LevelZeroEvidence],
    provenance: Sequence[NodeId] = (),
) -> None:
    """Pin every level-0 block (and its proof) to a permitted writer, and
    every proof to *cloud* (when given), like the signed root.

    ``provenance`` extends the single expected writer with prior writers of
    a replicated shard: after a failover promotion the certified blocks of
    the deposed writer legitimately remain in the promoted state, and a
    replica serves the current writer's blocks.  Each block's certificate
    must still name the block's own writer — provenance widens *which*
    writers are acceptable, never the binding between block and proof.
    """

    allowed = {edge, *provenance}
    for item in evidence:
        if item.block.edge not in allowed:
            raise ProofVerificationError(
                f"level-0 block {item.block_id} belongs to {item.block.edge}, "
                f"expected one of {sorted(allowed)}"
            )
        if item.proof is None:
            continue
        recomputed = item.block.digest()
        if item.proof.block_digest != recomputed:
            raise ProofVerificationError(
                f"block proof digest mismatch for block {item.block_id}"
            )
        if item.proof.edge != item.block.edge or item.proof.block_id != item.block_id:
            raise ProofVerificationError(
                f"block proof identity mismatch for block {item.block_id}"
            )
        if cloud is not None and item.proof.cloud != cloud:
            raise ProofVerificationError(
                f"block {item.block_id} is certified by {item.proof.cloud}, "
                f"not by {cloud}"
            )
        if not item.proof.verify_cached(registry):
            raise ProofVerificationError(
                f"block proof signature invalid for block {item.block_id}"
            )


def _verify_level_pages(
    key: str,
    evidence: Sequence[LevelPageEvidence],
    signed_root: Optional[SignedGlobalRoot],
) -> None:
    if not evidence:
        return
    if signed_root is None:
        raise ProofVerificationError(
            "level pages presented without a signed global root"
        )
    level_roots = signed_root.statement.level_roots
    for item in evidence:
        root_index = item.level_index - 1
        if not 0 <= root_index < len(level_roots):
            raise ProofVerificationError(
                f"level {item.level_index} outside the signed root's levels"
            )
        if item.inclusion.leaf_digest != item.page.digest():
            raise ProofVerificationError(
                f"inclusion proof leaf does not match page digest at level "
                f"{item.level_index}"
            )
        if not item.inclusion.verifies_against(level_roots[root_index]):
            raise ProofVerificationError(
                f"inclusion proof does not verify against level "
                f"{item.level_index} root"
            )
        if not item.page.could_contain(key):
            raise ProofVerificationError(
                f"returned page at level {item.level_index} does not cover key "
                f"{key!r}"
            )


def _coverage_satisfied(
    key: str,
    found_level: Optional[int],
    evidence_by_level: dict[int, LevelPageEvidence],
    signed_root: Optional[SignedGlobalRoot],
) -> None:
    """Check that every level that could hide a newer version was disclosed."""

    if signed_root is None:
        # Before the first merge there are no Merkle-tracked levels to cover
        # (level pages without a root were refused by _verify_level_pages).
        return
    level_roots = signed_root.statement.level_roots
    deepest_required = (
        len(level_roots) if found_level is None else max(found_level - 1, 0)
    )
    for level_index in range(1, deepest_required + 1):
        if level_index in evidence_by_level:
            continue
        root = level_roots[level_index - 1]
        if root != empty_level_root():
            raise ProofVerificationError(
                f"no evidence for non-empty level {level_index}"
            )


def verify_get_proof(
    registry: KeyRegistry,
    cloud: Optional[NodeId],
    edge: NodeId,
    key: str,
    proof: GetProof,
    now: Optional[float] = None,
    freshness_window_s: Optional[float] = None,
    provenance: Sequence[NodeId] = (),
    key_maps: Optional[KeyMaps] = None,
) -> VerifiedGet:
    """Verify a get proof and independently derive the correct answer.

    The function *recomputes* the newest version of the key from the returned
    evidence rather than trusting any value field in the response; the caller
    compares the derived record with the value the edge claimed.

    *key_maps* are the maps of level-0 blocks the caller verified before: a
    level-0 block that is one of those very objects is answered from its
    map, which gives exactly what :func:`records_with_key` gives; any other
    block is scanned.  Every block's digest, writer and proof are checked
    either way.
    """

    if proof.key != key:
        raise ProofVerificationError(
            f"proof is for key {proof.key!r}, expected {key!r}"
        )

    if proof.signed_root is not None and not proof.signed_root.verify_cached(
        registry, cloud
    ):
        raise ProofVerificationError("signed global root failed verification")

    _verify_level_zero(registry, cloud, edge, proof.level_zero, provenance=provenance)

    # Newest version present in level 0, derived from the blocks themselves.
    level_zero_best: Optional[KVRecord] = None
    for item in proof.level_zero:
        mapped = key_maps.get(id(item.block)) if key_maps else None
        if mapped is not None and mapped[0] is item.block:
            records = mapped[1].get(key, ())
        else:
            try:
                records = records_with_key(item.block, key)
            except SerializationError as exc:
                # An honest edge refuses a malformed put at admission.
                raise ProofVerificationError(
                    f"level-0 block {item.block_id} holds a malformed put: {exc}"
                ) from exc
        for record in records:
            if level_zero_best is None or record.is_newer_than(level_zero_best):
                level_zero_best = record

    _verify_level_pages(key, proof.level_pages, proof.signed_root)
    evidence_by_level = {item.level_index: item for item in proof.level_pages}

    derived: Optional[KVRecord] = level_zero_best
    found_level: Optional[int] = 0 if level_zero_best is not None else None
    if derived is None:
        for level_index in sorted(evidence_by_level):
            record = evidence_by_level[level_index].page.lookup(key)
            if record is not None:
                derived = record
                found_level = level_index
                break

    _coverage_satisfied(key, found_level, evidence_by_level, proof.signed_root)

    if freshness_window_s is not None:
        if proof.signed_root is None:
            raise ProofVerificationError(
                "freshness window requested but no signed root returned"
            )
        if now is None:
            raise ProofVerificationError("freshness check requires the current time")
        age = now - proof.signed_root.statement.timestamp
        if age > freshness_window_s:
            raise ProofVerificationError(
                f"signed root is {age:.3f}s old, beyond the freshness window of "
                f"{freshness_window_s:.3f}s"
            )

    uncertified = proof.uncertified_block_ids
    phase = CommitPhase.PHASE_TWO if not uncertified else CommitPhase.PHASE_ONE
    root_timestamp = (
        proof.signed_root.statement.timestamp if proof.signed_root is not None else None
    )
    root_version = (
        proof.signed_root.statement.version if proof.signed_root is not None else None
    )
    return VerifiedGet(
        found=derived is not None,
        record=derived,
        phase=phase,
        uncertified_block_ids=uncertified,
        root_timestamp=root_timestamp,
        root_version=root_version,
    )
