"""Commit proofs: the artifacts behind Phase I and Phase II commitment.

*Phase I* — the edge node's signed response.  It does not prove the data is
durable or agreed upon; it proves the edge node *promised* this block content
for this block id, which is enough to punish the edge node later if the
promise is broken (Definition 1 in the paper).

*Phase II* — the cloud node's signed ``block-proof`` over ``(edge, block id,
digest)``.  Because the cloud signs at most one digest per block id, two
clients can never both hold Phase II proofs for conflicting contents
(Definition 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from ..common.errors import ProofVerificationError
from ..common.identifiers import BlockId, NodeId
from ..crypto.signatures import (
    BatchRootStatement,
    KeyRegistry,
    Signature,
    batch_item_leaf,
    sign_batch_root,
    verify_batch_root,
)
from ..merkle.tree import InclusionProof, MerkleTree
from .block import Block


class CommitPhase(Enum):
    """Lifecycle of an operation under lazy certification."""

    PENDING = "pending"
    PHASE_ONE = "phase_one"
    PHASE_TWO = "phase_two"
    FAILED = "failed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_committed(self) -> bool:
        """Phase I already allows the client to make progress."""

        return self in (CommitPhase.PHASE_ONE, CommitPhase.PHASE_TWO)


@dataclass(frozen=True)
class PhaseOneStatement:
    """The content an edge node signs when it acknowledges an operation."""

    edge: NodeId
    block_id: BlockId
    block_digest: str
    issued_at: float


@dataclass(frozen=True)
class PhaseOneReceipt:
    """A signed Phase I acknowledgement (the client's evidence of a promise)."""

    statement: PhaseOneStatement
    signature: Signature

    @property
    def edge(self) -> NodeId:
        return self.statement.edge

    @property
    def block_digest(self) -> str:
        return self.statement.block_digest

    @property
    def wire_size(self) -> int:
        return 64 + 64 + 16

    def verify(self, registry: KeyRegistry) -> bool:
        """Check that the receipt was signed by the edge node it names."""

        if self.signature.signer != self.statement.edge:
            return False
        return registry.verify(self.signature, self.statement)

    def matches_block(self, block: Block) -> bool:
        """Whether this receipt's digest matches *block*'s content digest."""

        recomputed = block.digest()
        return (
            block.edge == self.statement.edge
            and block.block_id == self.statement.block_id
            and recomputed == self.statement.block_digest
        )


def issue_phase_one_receipt(
    registry: KeyRegistry, edge: NodeId, block: Block, issued_at: float
) -> PhaseOneReceipt:
    """Create an edge-signed Phase I receipt for *block*."""

    statement = PhaseOneStatement(
        edge=edge,
        block_id=block.block_id,
        block_digest=block.digest(),
        issued_at=issued_at,
    )
    return PhaseOneReceipt(statement=statement, signature=registry.sign(edge, statement))


@dataclass(frozen=True)
class BlockProofStatement:
    """The content the cloud signs when certifying a block digest."""

    cloud: NodeId
    edge: NodeId
    block_id: BlockId
    block_digest: str
    certified_at: float


@dataclass(frozen=True)
class BlockProof:
    """The cloud-signed certification of a block digest (Phase II evidence)."""

    statement: BlockProofStatement
    signature: Signature

    @property
    def cloud(self) -> NodeId:
        return self.statement.cloud

    @property
    def edge(self) -> NodeId:
        return self.statement.edge

    @property
    def block_id(self) -> BlockId:
        return self.statement.block_id

    @property
    def block_digest(self) -> str:
        return self.statement.block_digest

    @property
    def certified_at(self) -> float:
        return self.statement.certified_at

    @property
    def wire_size(self) -> int:
        return 64 + 64 + 24

    def verify(self, registry: KeyRegistry) -> bool:
        """Check that the proof was signed by the cloud node it names."""

        if self.signature.signer != self.statement.cloud:
            return False
        return registry.verify(self.signature, self.statement)

    def verify_cached(self, registry: KeyRegistry) -> bool:
        """Like :meth:`verify`, memoized on the verifier's registry.

        Read proofs re-present the same block proofs on every get until the
        underlying blocks are merged away; proofs and registry keys are
        immutable, so the verification outcome can be reused within one
        simulation.  The verdict lives in the registry's cache, never on
        this (sender-constructed) object, so a malicious edge cannot attach
        a forged verdict.
        """

        memo = registry.verdict_memo(self)
        verdict = memo.get("proof")
        if verdict is None:
            verdict = self.verify(registry)
            memo["proof"] = verdict
        return verdict

    def certifies(self, block: Block) -> bool:
        """Whether this proof certifies exactly *block* (content digest)."""

        recomputed = block.digest()
        return (
            block.edge == self.statement.edge
            and block.block_id == self.statement.block_id
            and recomputed == self.statement.block_digest
        )


def issue_block_proof(
    registry: KeyRegistry,
    cloud: NodeId,
    edge: NodeId,
    block_id: BlockId,
    block_digest: str,
    certified_at: float,
) -> BlockProof:
    """Create a cloud-signed block proof over a digest."""

    statement = BlockProofStatement(
        cloud=cloud,
        edge=edge,
        block_id=block_id,
        block_digest=block_digest,
        certified_at=certified_at,
    )
    return BlockProof(statement=statement, signature=registry.sign(cloud, statement))


# ----------------------------------------------------------------------
# Batch certification: one cloud signature covering N block digests
# ----------------------------------------------------------------------
#: Domain-separation context for batch certification roots (Section IV-E:
#: certification is asynchronous, so nothing client-visible needs a
#: per-block signature — only a per-block proof).
CERTIFY_BATCH_CONTEXT = "certify-batch"


def certify_batch_leaf(block_id: BlockId, block_digest: str) -> str:
    """The Merkle leaf a batch certificate commits to for one block.

    The leaf binds the *pair* (block id, digest): a proof derived from the
    batch can never attest a certified digest under a different block id.
    """

    return batch_item_leaf((block_id, block_digest))


@dataclass(frozen=True)
class BatchCertificate:
    """The cloud's signature over one batch root covering N block digests.

    One Schnorr/HMAC signature certifies every block in the batch on both
    the sign and the verify side; per-block :class:`BatchedBlockProof`\\ s are
    derived locally from the ordered ``(block id, digest)`` list the root
    was built over.
    """

    statement: BatchRootStatement
    signature: Signature

    def __post_init__(self) -> None:
        if self.statement.context != CERTIFY_BATCH_CONTEXT:
            raise ProofVerificationError(
                f"batch certificate context {self.statement.context!r} is not "
                f"{CERTIFY_BATCH_CONTEXT!r}"
            )
        if self.statement.about is None:
            raise ProofVerificationError("batch certificate names no edge")

    @property
    def cloud(self) -> NodeId:
        return self.statement.signer

    @property
    def edge(self) -> NodeId:
        return self.statement.about

    @property
    def batch_root(self) -> str:
        return self.statement.root

    @property
    def num_blocks(self) -> int:
        return self.statement.count

    @property
    def certified_at(self) -> float:
        return self.statement.issued_at

    @property
    def wire_size(self) -> int:
        return 64 + 64 + 32

    def verify(self, registry: KeyRegistry) -> bool:
        """Check the cloud's root signature (memoized on the registry)."""

        return verify_batch_root(
            registry,
            self.statement,
            self.signature,
            expected_context=CERTIFY_BATCH_CONTEXT,
        )


def issue_batch_certificate(
    registry: KeyRegistry,
    cloud: NodeId,
    edge: NodeId,
    batch_root: str,
    num_blocks: int,
    certified_at: float,
) -> BatchCertificate:
    """Create the cloud's single-signature certificate over a batch root."""

    statement, signature = sign_batch_root(
        registry,
        signer=cloud,
        context=CERTIFY_BATCH_CONTEXT,
        root=batch_root,
        count=num_blocks,
        issued_at=certified_at,
        about=edge,
    )
    return BatchCertificate(statement=statement, signature=signature)


@dataclass(frozen=True)
class BatchedBlockProof:
    """Phase II evidence anchored in a batch root instead of a per-block
    signature: batch-root membership path + the signed root.

    Interchangeable with :class:`BlockProof` everywhere a proof travels
    (log attachment, read responses, client commit tracking): it exposes the
    same ``block_id``/``block_digest``/``verify``/``certifies`` surface, but
    verification costs one leaf digest plus an O(log N) path fold — the
    certificate signature itself is checked once per batch and memoized.
    """

    certificate: BatchCertificate
    block_id: BlockId
    block_digest: str
    membership: InclusionProof

    @property
    def cloud(self) -> NodeId:
        return self.certificate.cloud

    @property
    def edge(self) -> NodeId:
        return self.certificate.edge

    @property
    def certified_at(self) -> float:
        return self.certificate.certified_at

    @property
    def wire_size(self) -> int:
        return self.certificate.wire_size + self.membership.wire_size + 24

    def verify(self, registry: KeyRegistry) -> bool:
        """Leaf binding + membership path + (amortized) root signature."""

        if self.membership.leaf_digest != certify_batch_leaf(
            self.block_id, self.block_digest
        ):
            return False
        if not self.membership.verifies_against(self.certificate.batch_root):
            return False
        return self.certificate.verify(registry)

    def verify_cached(self, registry: KeyRegistry) -> bool:
        """Like :meth:`verify`, memoized on the verifier's registry."""

        memo = registry.verdict_memo(self)
        verdict = memo.get("proof")
        if verdict is None:
            verdict = self.verify(registry)
            memo["proof"] = verdict
        return verdict

    def certifies(self, block: Block) -> bool:
        """Whether this proof certifies exactly *block* (content digest)."""

        recomputed = block.digest()
        return (
            block.edge == self.certificate.edge
            and block.block_id == self.block_id
            and recomputed == self.block_digest
        )


#: Either certification artifact: the per-block signature form or the
#: batch-anchored form.  Protocol code treats them interchangeably.
AnyBlockProof = Union[BlockProof, BatchedBlockProof]


def build_certify_batch_tree(
    blocks: Sequence[tuple[BlockId, str]]
) -> MerkleTree:
    """The Merkle tree a batch certificate's root is computed over."""

    return MerkleTree(
        [certify_batch_leaf(block_id, digest) for block_id, digest in blocks]
    )


def derive_batched_proofs(
    certificate: BatchCertificate,
    blocks: Sequence[tuple[BlockId, str]],
    tree: Optional[MerkleTree] = None,
) -> tuple[BatchedBlockProof, ...]:
    """Derive per-block proofs locally from a certificate and its leaf list.

    Raises :class:`ProofVerificationError` when *blocks* is not the exact
    ordered list the certificate's root was built over — the caller is
    holding a certificate for a different batch (or a tampered list).

    ``tree`` lets a caller that already built the batch tree (the cloud,
    which built it to compute the root it just signed) skip rebuilding it;
    callers receiving the certificate over the wire must omit it so the
    tree is rebuilt from the untrusted ``blocks`` list.
    """

    if tree is None:
        tree = build_certify_batch_tree(blocks)
    if len(blocks) != certificate.num_blocks or tree.root != certificate.batch_root:
        raise ProofVerificationError(
            f"batch of {len(blocks)} blocks does not match certificate root "
            f"(expected {certificate.num_blocks} blocks under "
            f"{certificate.batch_root[:12]}…)"
        )
    return tuple(
        BatchedBlockProof(
            certificate=certificate,
            block_id=block_id,
            block_digest=digest,
            membership=tree.prove(index),
        )
        for index, (block_id, digest) in enumerate(blocks)
    )

