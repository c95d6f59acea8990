"""The WedgeChain logging layer: entries, blocks, buffers, proofs, and logs."""

from .block import Block, BlockSummary, build_block, compute_block_digest
from .buffer import BlockBuffer, BufferedEntry, PendingBatch
from .entry import EntryBody, LogEntry, make_entry, require_valid_entry
from .proofs import (
    AnyBlockProof,
    BatchCertificate,
    BatchedBlockProof,
    BlockProof,
    BlockProofStatement,
    CommitPhase,
    PhaseOneReceipt,
    PhaseOneStatement,
    build_certify_batch_tree,
    certify_batch_leaf,
    derive_batched_proofs,
    issue_batch_certificate,
    issue_block_proof,
    issue_phase_one_receipt,
)
from .wedge_log import LogRecord, WedgeLog

__all__ = [
    "AnyBlockProof",
    "BatchCertificate",
    "BatchedBlockProof",
    "Block",
    "BlockBuffer",
    "BlockProof",
    "BlockProofStatement",
    "BlockSummary",
    "BufferedEntry",
    "CommitPhase",
    "EntryBody",
    "LogEntry",
    "LogRecord",
    "PendingBatch",
    "PhaseOneReceipt",
    "PhaseOneStatement",
    "WedgeLog",
    "build_block",
    "build_certify_batch_tree",
    "certify_batch_leaf",
    "compute_block_digest",
    "derive_batched_proofs",
    "issue_batch_certificate",
    "issue_block_proof",
    "issue_phase_one_receipt",
    "make_entry",
    "require_valid_entry",
]
