"""Crash recovery: rebuild a partition from its durable store, verified.

``recover_partition`` replays a :class:`~repro.storage.store.PartitionStore`
into a *fresh* partition state — nothing the pre-crash process held in
memory is trusted — and then proves the rebuild correct: the recovered
index's Merkle-tracked level roots must equal the ``level_roots`` of the
last durable cloud-signed global root, and that signed root must itself
verify against the cloud's key.  An edge that passes resumes exactly where
the trust model says it should: certified blocks certified, uncertified
blocks re-tracked for certification, replay protection intact.

An edge that fails — a sealed segment with a bad checksum, a manifest that
does not hash, a page that does not match its digest, a proof that
contradicts its block, roots that disagree with the signature — is
**quarantined**: the partition refuses every request rather than serve data
it can no longer prove.  Crucially, quarantine is a *local, typed* outcome
(:class:`~repro.common.errors.StorageCorruptionError` recorded on the
partition), never a protocol action: an honest edge with a corrupt disk
stops serving, so the dispute machinery has nothing to convict it for.

Torn tails are the one kind of damage that is *not* corruption: the active
segment legitimately ends mid-record when a crash interrupts an append.
Replay truncates the debris and counts it.  With ``fsync="always"`` nothing
acknowledged is ever in the debris; with the cheaper policies, writes since
the last sync may be lost — the report says how many records were dropped
so operators can see the durability they paid for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.errors import (
    ProtocolError,
    StorageCorruptionError,
    StorageError,
)
from ..common.identifiers import NodeId, ShardId
from ..crypto.signatures import KeyRegistry
from ..lsmerkle.codec import page_from_block
from .store import PartitionStore


@dataclass
class RecoveryReport:
    """What one partition recovery replayed, verified, or refused."""

    shard_id: Optional[ShardId] = None
    blocks_replayed: int = 0
    proofs_replayed: int = 0
    torn_records_dropped: int = 0
    manifest_version: Optional[int] = None
    root_version: Optional[int] = None
    #: ``True`` when a durable signed root existed and the rebuilt index
    #: matched it (a partition that never merged has no root to verify).
    root_verified: bool = False
    #: ``None`` for a healthy recovery; the corruption reason otherwise.
    quarantined: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.quarantined is None


def recover_partition(
    state,
    store: PartitionStore,
    registry: KeyRegistry,
    cloud: NodeId,
) -> RecoveryReport:
    """Rebuild *state* (a fresh ``PartitionState``) from *store*.

    On corruption the partition is marked quarantined (``state.quarantined``
    holds the reason) and the report says why; the caller must refuse to
    serve it.  The function never raises for disk damage — quarantine *is*
    the handling.
    """

    report = RecoveryReport(shard_id=state.shard_id)
    try:
        _rebuild(state, store, registry, cloud, report)
    except (StorageError, ProtocolError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        state.quarantined = reason
        report.quarantined = reason
    return report


def _rebuild(
    state,
    store: PartitionStore,
    registry: KeyRegistry,
    cloud: NodeId,
    report: RecoveryReport,
) -> None:
    # Re-scan the directory: sealed corruption surfaces here, torn active
    # tails are repaired here.
    store.reopen()

    manifest = store.load_manifest()
    manifest_next = 0
    manifest_l0: frozenset = frozenset()
    if manifest is not None:
        report.manifest_version = manifest.version
        manifest_next = manifest.next_block_id
        manifest_l0 = frozenset(manifest.level_zero_blocks)
        for level_index, pages in sorted(store.load_pages(manifest).items()):
            state.index.install_level_pages(level_index, pages)

    replay = store.replay()
    report.torn_records_dropped = replay.torn_records_dropped
    for block in replay.blocks:
        state.log.append(block)
        receipt = replay.receipts.get(block.block_id)
        if receipt is not None:
            state.receipts[block.block_id] = receipt
        for entry in block.entries:
            state.entry_locations[(entry.producer, entry.sequence)] = block.block_id
    report.blocks_replayed = len(replay.blocks)

    for block_id in sorted(replay.proofs):
        if state.log.try_get(block_id) is None:
            # The proof's block was snapshot-truncated (merged into manifest
            # pages); the proof record simply outlived it in a later segment.
            continue
        # attach_proof re-checks the digest: a durable proof contradicting
        # its durable block is corruption (raises, -> quarantine).
        state.log.attach_proof(replay.proofs[block_id])
        report.proofs_replayed += 1

    # The allocator must clear both everything replayed and everything the
    # manifest says once existed, or a recovered edge could re-issue a block
    # id the cloud already certified under different content.
    state.log.mark_truncated(manifest_next)

    # Level 0 holds the pages of blocks not yet merged into the manifest's
    # levels: the ids the manifest recorded as level 0, plus every block
    # logged after the manifest was written.
    for block in replay.blocks:
        bid = block.block_id
        if bid in manifest_l0 or bid >= manifest_next:
            page = page_from_block(block)
            if page is not None:
                state.index.add_level_zero_page(page)
                state.level_zero_blocks.append(bid)

    signed_root = manifest.signed_root if manifest is not None else None
    if signed_root is not None:
        if not signed_root.verify(registry, cloud):
            raise StorageCorruptionError(
                "durable signed root fails signature verification"
            )
        if not state.index.roots_match(signed_root):
            raise StorageCorruptionError(
                "recovered level roots do not match the durable signed root"
            )
        state.signed_root = signed_root
        state.merge_installed_version = signed_root.statement.version
        report.root_version = signed_root.statement.version
        report.root_verified = True

    # Uncertified blocks go back under the certifier; the restart then
    # re-dispatches them through the ordinary certify path.
    for block in replay.blocks:
        if state.log.proof_for(block.block_id) is None:
            state.certifier.track(block.block_id, block.digest())
