"""LSMerkle: the trusted, fast-ingestion key-value index of WedgeChain."""

from .codec import (
    SEQUENCE_STRIDE,
    decode_put,
    encode_put,
    is_put_payload,
    page_from_block,
    record_sequence,
    records_from_block,
)
from .merge import CloudIndexMirror, MergeOutcome, MergeProposal
from .mlsm import (
    GlobalRootStatement,
    MerkleizedLSM,
    SignedGlobalRoot,
    compute_global_root,
    empty_level_root,
    sign_global_root,
)
from .read_proof import (
    GetProof,
    LevelPageEvidence,
    LevelZeroEvidence,
    VerifiedGet,
    build_get_proof,
    verify_get_proof,
)

__all__ = [
    "CloudIndexMirror",
    "GetProof",
    "GlobalRootStatement",
    "LevelPageEvidence",
    "LevelZeroEvidence",
    "MergeOutcome",
    "MergeProposal",
    "MerkleizedLSM",
    "SEQUENCE_STRIDE",
    "SignedGlobalRoot",
    "VerifiedGet",
    "build_get_proof",
    "compute_global_root",
    "decode_put",
    "empty_level_root",
    "encode_put",
    "is_put_payload",
    "page_from_block",
    "record_sequence",
    "records_from_block",
    "sign_global_root",
    "verify_get_proof",
]
