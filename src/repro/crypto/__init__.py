"""Cryptographic substrate: hashing, signatures, key registry."""

from .hashing import (
    DIGEST_HEX_LENGTH,
    EMPTY_DIGEST,
    digest_chain,
    digest_leaf,
    digest_pair,
    digest_value,
    is_hex_digest,
    sha256_hex,
)
from .signatures import (
    BatchRootStatement,
    HmacSignatureScheme,
    KeyPair,
    KeyRegistry,
    SchnorrSignatureScheme,
    Signature,
    SignatureScheme,
    batch_item_leaf,
    get_scheme,
    sign_batch_root,
    verify_batch_root,
)

__all__ = [
    "BatchRootStatement",
    "DIGEST_HEX_LENGTH",
    "EMPTY_DIGEST",
    "HmacSignatureScheme",
    "KeyPair",
    "KeyRegistry",
    "SchnorrSignatureScheme",
    "Signature",
    "SignatureScheme",
    "batch_item_leaf",
    "sign_batch_root",
    "verify_batch_root",
    "digest_chain",
    "digest_leaf",
    "digest_pair",
    "digest_value",
    "get_scheme",
    "is_hex_digest",
    "sha256_hex",
]
