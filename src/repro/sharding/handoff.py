"""The certified shard-handoff protocol (rebalancing a sharded fleet).

Moving a shard between untrusted edges must not create a window where a
client can be served tampered or forked state.  The protocol keeps the
cloud's lazy-certification invariants across the move:

1. **Drain** — the source edge stops serving the shard (requests are
   answered with signed ``NotOwnerRedirect``\\ s), flushes its buffer, waits
   until every block of the shard is certified, and merges level 0 into
   level 1 so the shard's whole index state is committed under the cloud's
   digest mirror.
2. **Offer** — the source signs the shard's certified log prefix (every
   ``(block id, digest)`` in id order) plus a :func:`shard_state_digest`
   binding that prefix to the shard's level roots, and sends the offer to
   the cloud (digests only — data-free, like certification itself).
3. **Countersign** — the cloud checks every digest against what it
   certified and recomputes the state digest from its own mirror.  On a
   match it reassigns the shard in the registry, re-signs the global root
   for the destination, and countersigns a ``ShardHandoffCertificate``.
4. **Transfer & verify** — the source ships blocks, proofs, and level
   pages to the destination together with its *own signed transfer
   statement*.  The destination recomputes the state digest from the bytes
   it actually received and verifies it against the cloud's certificate
   before serving a single request.
5. **Dispute** — if the digests disagree, the destination holds a
   source-signed statement that contradicts a cloud-countersigned one:
   it raises a shard dispute and the cloud punishes the source.

This module holds the pure helpers shared by all three parties; the
message flow lives in :mod:`repro.sharding.edge` and
:mod:`repro.sharding.cloud`.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from ..common.identifiers import BlockId, NodeId, ShardId
from ..crypto.signatures import KeyRegistry
from ..log.block import Block
from ..lsm.page import Page
from ..merkle.tree import MerkleTree


def shard_state_digest(
    shard_id: ShardId,
    level_roots: Sequence[str],
    blocks: Sequence[tuple[BlockId, str]],
) -> str:
    """One digest committing to a shard's full transferable state.

    Binds, with domain separation: the shard id (a digest for shard 3 can
    never certify shard 5), the Merkle roots of every tracked level, and
    the certified log prefix in block-id order.  All three parties compute
    it independently — source from its live state, cloud from its digest
    mirror plus certified digests, destination from the bytes it received.
    """

    hasher = hashlib.sha256(b"shard-state:")
    hasher.update(str(shard_id).encode("ascii"))
    hasher.update(b"|roots:")
    for root in level_roots:
        hasher.update(root.encode("ascii"))
        hasher.update(b"|")
    hasher.update(b"blocks:")
    for block_id, digest in blocks:
        hasher.update(str(block_id).encode("ascii"))
        hasher.update(b":")
        hasher.update(digest.encode("ascii"))
        hasher.update(b"|")
    return hasher.hexdigest()


def level_roots_from_pages(
    level_pages: Iterable[tuple[int, tuple[Page, ...]]],
    num_levels: int,
) -> tuple[str, ...]:
    """Recompute per-level Merkle roots from transferred page lists.

    ``level_pages`` carries ``(level_index, pages)`` for levels 1..n-1;
    levels absent from the list are empty.  This is what the destination
    edge computes from the untrusted transfer payload and compares against
    the certificate's state digest.
    """

    by_level = {level_index: pages for level_index, pages in level_pages}
    roots: list[str] = []
    for level_index in range(1, num_levels):
        pages = by_level.get(level_index, ())
        roots.append(MerkleTree([page.digest() for page in pages]).root)
    return tuple(roots)


def level_pages_match_root(
    level_pages: Sequence[tuple[int, tuple[Page, ...]]],
    signed_root,
    num_levels: int,
) -> bool:
    """Whether untrusted *level_pages* are exactly what *signed_root* commits to.

    The page half of :func:`shipped_state_is_certified`: every listed level
    is a distinct merged level 1..n-1 and the pages hash to the cloud-signed
    level roots.  The signed root covers levels 1..n only,
    so a non-empty level 0 does not disturb it.  Pages that pass are the
    cloud's own merge output, so installing them cannot fail.
    """

    levels = {level_index for level_index, _ in level_pages}
    if len(levels) != len(level_pages) or not all(
        1 <= level_index < num_levels for level_index in levels
    ):
        return False
    roots = level_roots_from_pages(level_pages, num_levels)
    return roots == tuple(signed_root.statement.level_roots)


def shipped_state_is_certified(
    registry: KeyRegistry,
    cloud: NodeId,
    blocks: Sequence[Block],
    proofs: Sequence,
    level_pages: Sequence[tuple[int, tuple[Page, ...]]],
    signed_root,
    num_levels: int,
) -> bool:
    """Whether shipped shard state carries *cloud*'s word for all of it.

    The checks both installers make (the handoff destination on a transfer,
    a read replica on a log shipment) before installing a byte: exactly one
    proof per block (a short tuple would let the zipped loop skip blocks),
    each proof *cloud*'s valid certificate of its block, and the merged
    pages exactly what a root signed by *cloud* commits to.  A rootless
    shipment passes only without pages (a never-merged shard); whether one
    is acceptable at all, which edges may have written the blocks and whom
    the root must name differ per protocol and stay with the callers.
    """

    if len(proofs) != len(blocks):
        return False
    for block, proof in zip(blocks, proofs):
        if (
            proof is None
            or proof.cloud != cloud
            or not proof.certifies(block)
            or not proof.verify(registry)
        ):
            return False
    if signed_root is None:
        return not level_pages
    return signed_root.verify(registry, cloud) and level_pages_match_root(
        level_pages, signed_root, num_levels
    )


def seed_partition_store(
    store,
    level_pages: Iterable[tuple[int, tuple[Page, ...]]],
    signed_root,
    next_block_id: BlockId = 0,
) -> None:
    """Seed a freshly installed shard's durable store from a transfer.

    The destination persists exactly what it verified: the transferred
    level pages and the cloud's re-signed global root, written as the
    store's first manifest.  The transferred *blocks* are deliberately not
    appended to the segment log — they live in the source edge's block-id
    space (the audit archive in ``_imported_blocks`` keeps them in memory);
    every certified datum they carry is already inside the pages this
    manifest makes durable.  A crash right after the install therefore
    recovers to the same verified index the handoff produced.
    """

    store.write_manifest(
        next_block_id=next_block_id,
        level_pages={
            level_index: list(pages)
            for level_index, pages in level_pages
            if pages
        },
        level_zero_blocks=(),
        signed_root=signed_root,
    )


__all__ = [
    "shard_state_digest",
    "level_roots_from_pages",
    "level_pages_match_root",
    "shipped_state_is_certified",
    "seed_partition_store",
]
