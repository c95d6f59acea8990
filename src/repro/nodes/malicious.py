"""Malicious edge-node variants used to exercise detection and punishment.

Each variant overrides one small, explicit hook of the honest
:class:`~repro.nodes.edge.EdgeNode`.  The paper's security argument is that
every lie is eventually detectable; the integration tests drive these nodes
and assert that clients detect the lie, disputes reach the cloud, and the
cloud's punishment ledger records the offender.

Variants
--------
``TamperingReadEdgeNode``
    Serves altered block content on reads (``read-response`` lie, Section
    IV-E case 2).  Detected when the cloud's block proof for the true digest
    reaches the client.
``BrokenPromiseEdgeNode``
    Issues Phase I receipts for the real block but certifies a digest of a
    tampered block that drops client entries (``add-response`` lie, case 1).
``OmittingEdgeNode``
    Denies having blocks it committed (omission attack).  Detected through
    cloud gossip about the certified log size.
``NonCertifyingEdgeNode``
    Never contacts the cloud for certification.  Detected by the client's
    dispute timeout.
``EquivocatingCertifierEdgeNode``
    Attempts to certify two different digests for the same block id.
    Detected directly by the cloud.
``StaleServingEdgeNode``
    After ``freeze()``, answers gets from an old snapshot.  Only detectable
    through the freshness window (Section V-D) — exactly the limitation the
    paper describes.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Optional

from ..common.identifiers import BlockId
from ..log.block import Block, build_block
from ..log.entry import LogEntry
from ..messages.log_messages import BlockCertifyRequest, CertifyStatement
from .edge import EdgeNode


def _tamper_entries(entries: tuple[LogEntry, ...]) -> tuple[LogEntry, ...]:
    """Flip the payload of the first entry (signature left stale on purpose)."""

    if not entries:
        return entries
    first = entries[0]
    tampered_body = replace(first.body, payload=first.body.payload + b"~tampered")
    tampered = LogEntry(body=tampered_body, signature=first.signature)
    return (tampered,) + entries[1:]


class TamperingReadEdgeNode(EdgeNode):
    """Returns modified block content to readers while certifying the original."""

    def __init__(self, *args, target_blocks: Optional[set[BlockId]] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.target_blocks = target_blocks if target_blocks is not None else set()
        self.tamper_all_reads = target_blocks is None

    def _block_for_read(self, block: Block) -> Block:
        if self.tamper_all_reads or block.block_id in self.target_blocks:
            return Block(
                edge=block.edge,
                block_id=block.block_id,
                entries=_tamper_entries(block.entries),
                created_at=block.created_at,
            )
        return block

    def _handle_read(self, sender, request) -> None:  # type: ignore[override]
        # Never hand out the genuine proof alongside tampered content — the
        # digest mismatch would be caught instantly; a smarter liar serves a
        # Phase I response and hopes the client forgets to check later.
        record = self.log.try_get(request.block_id)
        withheld = None
        if record is not None and (
            self.tamper_all_reads or request.block_id in self.target_blocks
        ):
            withheld = record.proof
            record.proof = None
        try:
            super()._handle_read(sender, request)
        finally:
            if record is not None and withheld is not None:
                record.proof = withheld


class BrokenPromiseEdgeNode(EdgeNode):
    """Promises clients one block but certifies a tampered one with the cloud."""

    def _digest_to_certify(self, block: Block) -> str:
        tampered = build_block(
            self.node_id,
            block.block_id,
            _tamper_entries(block.entries),
            block.created_at,
        )
        return tampered.digest()


class OmittingEdgeNode(EdgeNode):
    """Claims requested blocks are unavailable even though they exist."""

    def __init__(self, *args, omit_blocks: Optional[set[BlockId]] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.omit_blocks = omit_blocks if omit_blocks is not None else set()
        self.omit_all = omit_blocks is None

    def _read_record(self, block_id: BlockId):
        if self.omit_all or block_id in self.omit_blocks:
            return None
        return super()._read_record(block_id)


class NonCertifyingEdgeNode(EdgeNode):
    """Phase I commits normally but never asks the cloud to certify anything."""

    def _send_certify_request(self, block: Block) -> None:
        self.stats.setdefault("certify_requests_dropped", 0)
        self.stats["certify_requests_dropped"] += 1


class EquivocatingCertifierEdgeNode(EdgeNode):
    """Sends a second, conflicting certification request for every block."""

    def _send_certify_request(self, block: Block) -> None:
        super()._send_certify_request(block)
        tampered = build_block(
            self.node_id,
            block.block_id,
            _tamper_entries(block.entries),
            block.created_at,
        )
        statement = CertifyStatement(
            edge=self.node_id,
            block_id=block.block_id,
            block_digest=tampered.digest(),
            num_entries=tampered.num_entries,
        )
        signature = self.env.registry.sign(self.node_id, statement)
        self.env.send(
            self.node_id,
            self.cloud,
            BlockCertifyRequest(statement=statement, signature=signature),
        )


class StaleServingEdgeNode(EdgeNode):
    """After ``freeze()``, serves gets from a snapshot of the index state."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._frozen_index = None
        self._frozen_blocks: Optional[list[BlockId]] = None
        self._frozen_root = None

    def freeze(self) -> None:
        """Capture the current index state; all later gets are served from it."""

        self._frozen_index = copy.deepcopy(self.index)
        self._frozen_blocks = list(self.level_zero_blocks)
        self._frozen_root = self.signed_root

    @property
    def is_frozen(self) -> bool:
        return self._frozen_index is not None

    def _handle_get(self, sender, request) -> None:  # type: ignore[override]
        if not self.is_frozen:
            super()._handle_get(sender, request)
            return
        # Temporarily swap in the frozen state, serve, then swap back.
        live_index, live_blocks, live_root = (
            self.index,
            self.level_zero_blocks,
            self.signed_root,
        )
        self.index = self._frozen_index
        self.level_zero_blocks = self._frozen_blocks
        self.signed_root = self._frozen_root
        try:
            super()._handle_get(sender, request)
        finally:
            self.index, self.level_zero_blocks, self.signed_root = (
                live_index,
                live_blocks,
                live_root,
            )
