"""Signature schemes used by clients, edge nodes, and the cloud node.

Every message exchanged in WedgeChain is signed by its sender (Section IV-A).
Two interchangeable schemes are provided:

``HmacSignatureScheme``
    A fast symmetric scheme.  Each node holds a secret; signatures are
    HMAC-SHA256 over the canonical message bytes.  Verification goes through
    a :class:`KeyRegistry` that acts as the PKI/trusted-verifier oracle of the
    simulation.  This is the default for large simulated experiments because
    signing costs dominate nothing we measure.

``SchnorrSignatureScheme``
    A genuinely asymmetric Schnorr signature over a 2048-bit MODP group
    (RFC 3526 group 14).  Verification needs only the public key.  It is pure
    Python and therefore slow, but it demonstrates that the protocol never
    relies on verifiers knowing secrets.

Both schemes implement the same :class:`SignatureScheme` interface, so the
protocol code is agnostic to which one is in use (the ``signature_scheme``
field of :class:`repro.common.SecurityConfig` selects it).
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from typing import Any, Optional, Protocol
from weakref import WeakKeyDictionary

from ..common.encoding import canonical_encode
from ..common.errors import SignatureError, UnknownSignerError
from ..common.identifiers import NodeId

# RFC 3526, 2048-bit MODP group (group 14).  Using a well-known safe prime
# keeps the Schnorr implementation short and auditable.
_MODP_2048_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
_MODP_GENERATOR = 2
# Order of the subgroup generated by 2 is (p - 1) / 2 for a safe prime.
_MODP_ORDER = (_MODP_2048_PRIME - 1) // 2

# ----------------------------------------------------------------------
# Fixed-base exponentiation for the generator
# ----------------------------------------------------------------------
# Every Schnorr signing (``g^nonce``) and half of every verification
# (``g^response``) exponentiates the *fixed* generator.  A one-time
# precomputed window table turns those from ~2048 squarings + ~1024
# multiplications into ~410 table multiplications — the textbook fixed-base
# optimization every production signature library ships.  Built lazily on
# first Schnorr use (HMAC runs never pay for it); exponent-dependent work is
# the same digit walk regardless of the exponent's value.
_FIXED_BASE_WINDOW = 5
_FIXED_BASE_TABLE: "list[list[int]] | None" = None


def _generator_table() -> "list[list[int]]":
    global _FIXED_BASE_TABLE
    if _FIXED_BASE_TABLE is None:
        table: list[list[int]] = []
        radix = 1 << _FIXED_BASE_WINDOW
        base = _MODP_GENERATOR
        bits = 0
        while bits < _MODP_ORDER.bit_length() + 1:
            row = [1] * radix
            for digit in range(1, radix):
                row[digit] = row[digit - 1] * base % _MODP_2048_PRIME
            table.append(row)
            base = row[radix - 1] * base % _MODP_2048_PRIME
            bits += _FIXED_BASE_WINDOW
        _FIXED_BASE_TABLE = table
    return _FIXED_BASE_TABLE


def _pow_generator(exponent: int) -> int:
    """``generator ** exponent mod p`` via the precomputed window table."""

    table = _generator_table()
    result = 1
    mask = (1 << _FIXED_BASE_WINDOW) - 1
    index = 0
    while exponent:
        digit = exponent & mask
        if digit:
            result = result * table[index][digit] % _MODP_2048_PRIME
        exponent >>= _FIXED_BASE_WINDOW
        index += 1
    return result


@dataclass(frozen=True)
class KeyPair:
    """A signing key pair bound to a node identity.

    ``private_key`` is an integer (Schnorr) or random bytes (HMAC), encoded
    here as bytes in both cases; ``public_key`` is what verifiers may see.
    """

    owner: NodeId
    scheme: str
    private_key: bytes
    public_key: bytes


@dataclass(frozen=True)
class Signature:
    """A signature over canonical message bytes."""

    signer: NodeId
    scheme: str
    value: bytes

    def __post_init__(self) -> None:
        if not self.value:
            raise SignatureError("empty signature value")


class SignatureScheme(Protocol):
    """Interface implemented by both signature schemes."""

    name: str

    def generate_keypair(self, owner: NodeId) -> KeyPair:
        """Create a fresh key pair for *owner*."""

    def sign(self, keypair: KeyPair, message: Any) -> Signature:
        """Sign the canonical encoding of *message*."""

    def verify(self, public_key: bytes, signature: Signature, message: Any) -> bool:
        """Return ``True`` if *signature* is valid for *message*."""


class HmacSignatureScheme:
    """HMAC-SHA256 "signatures" verified through the key registry oracle.

    Within the simulation's trust model this is sound: the registry (which
    plays the role of a PKI plus trusted verifier) is the only component able
    to verify, and no simulated adversary is given access to other nodes'
    secrets.  DESIGN.md documents this substitution.
    """

    name = "hmac"

    def generate_keypair(self, owner: NodeId) -> KeyPair:
        secret = secrets.token_bytes(32)
        # The "public key" is a commitment to the secret; it lets verifiers
        # detect registry tampering but cannot be used to verify directly.
        public = hashlib.sha256(b"hmac-pub:" + secret).digest()
        return KeyPair(owner=owner, scheme=self.name, private_key=secret, public_key=public)

    def sign(self, keypair: KeyPair, message: Any) -> Signature:
        if keypair.scheme != self.name:
            raise SignatureError(f"keypair scheme {keypair.scheme!r} != {self.name!r}")
        mac = hmac.new(keypair.private_key, canonical_encode(message), hashlib.sha256)
        return Signature(signer=keypair.owner, scheme=self.name, value=mac.digest())

    def verify(self, public_key: bytes, signature: Signature, message: Any) -> bool:
        # Verification requires the private key; the registry supplies it by
        # calling :meth:`verify_with_private`.  A bare public key cannot
        # verify an HMAC, so reject outright (the registry path is the only
        # supported one for this scheme).
        raise SignatureError(
            "HMAC signatures must be verified through the KeyRegistry"
        )

    def verify_with_private(
        self, private_key: bytes, signature: Signature, message: Any
    ) -> bool:
        expected = hmac.new(private_key, canonical_encode(message), hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature.value)


class SchnorrSignatureScheme:
    """Schnorr signatures over the RFC 3526 2048-bit MODP group."""

    name = "schnorr"

    def generate_keypair(self, owner: NodeId) -> KeyPair:
        private = secrets.randbelow(_MODP_ORDER - 1) + 1
        public = pow(_MODP_GENERATOR, private, _MODP_2048_PRIME)
        return KeyPair(
            owner=owner,
            scheme=self.name,
            private_key=private.to_bytes(256, "big"),
            public_key=public.to_bytes(256, "big"),
        )

    @staticmethod
    def _challenge(commitment: int, public_key: int, message_bytes: bytes) -> int:
        hasher = hashlib.sha256()
        hasher.update(commitment.to_bytes(256, "big"))
        hasher.update(public_key.to_bytes(256, "big"))
        hasher.update(message_bytes)
        return int.from_bytes(hasher.digest(), "big") % _MODP_ORDER

    def sign(self, keypair: KeyPair, message: Any) -> Signature:
        if keypair.scheme != self.name:
            raise SignatureError(f"keypair scheme {keypair.scheme!r} != {self.name!r}")
        private = int.from_bytes(keypair.private_key, "big")
        public = int.from_bytes(keypair.public_key, "big")
        message_bytes = canonical_encode(message)
        nonce = secrets.randbelow(_MODP_ORDER - 1) + 1
        commitment = _pow_generator(nonce)
        challenge = self._challenge(commitment, public, message_bytes)
        response = (nonce + challenge * private) % _MODP_ORDER
        value = commitment.to_bytes(256, "big") + response.to_bytes(256, "big")
        return Signature(signer=keypair.owner, scheme=self.name, value=value)

    def verify(self, public_key: bytes, signature: Signature, message: Any) -> bool:
        if signature.scheme != self.name or len(signature.value) != 512:
            return False
        public = int.from_bytes(public_key, "big")
        commitment = int.from_bytes(signature.value[:256], "big")
        response = int.from_bytes(signature.value[256:], "big")
        message_bytes = canonical_encode(message)
        challenge = self._challenge(commitment, public, message_bytes)
        left = _pow_generator(response % _MODP_ORDER)
        right = (commitment * pow(public, challenge, _MODP_2048_PRIME)) % _MODP_2048_PRIME
        return left == right


_SCHEMES: dict[str, SignatureScheme] = {
    HmacSignatureScheme.name: HmacSignatureScheme(),
    SchnorrSignatureScheme.name: SchnorrSignatureScheme(),
}


def get_scheme(name: str) -> SignatureScheme:
    """Look up a signature scheme by name (``"hmac"`` or ``"schnorr"``)."""

    try:
        return _SCHEMES[name]
    except KeyError as exc:
        raise SignatureError(f"unknown signature scheme {name!r}") from exc


class KeyRegistry:
    """The simulation's PKI: maps node identities to their key pairs.

    The registry plays two roles.  First, it is the certificate authority
    that the paper assumes exists (clients are "authenticated nodes", edge
    nodes have known identities).  Second, for the HMAC scheme it acts as the
    trusted verifier oracle.  Protocol code only ever calls
    :meth:`sign` and :meth:`verify`, so swapping schemes is transparent.
    """

    def __init__(self, scheme_name: str = "hmac") -> None:
        self._scheme = get_scheme(scheme_name)
        self._keys: dict[NodeId, KeyPair] = {}
        # Verifier-side memo of verification verdicts for immutable signed
        # objects (block proofs, signed roots).  Held here — never on the
        # received object — so a malicious sender cannot pre-seed a verdict.
        self._verdict_cache: "WeakKeyDictionary[Any, dict]" = WeakKeyDictionary()

    def verdict_memo(self, holder: Any) -> dict:
        """Per-object mutable verdict store, keyed weakly by *holder*.

        Callers memoize verification outcomes in the returned dict; entries
        die with the holder object.  Keys are immutable signed containers,
        so value-equality collisions are harmless (equal objects verify
        identically).
        """

        try:
            return self._verdict_cache[holder]
        except KeyError:
            memo: dict = {}
            self._verdict_cache[holder] = memo
            return memo

    def register(self, node: NodeId) -> KeyPair:
        """Create (or return the existing) key pair for *node*."""

        if node not in self._keys:
            self._keys[node] = self._scheme.generate_keypair(node)
        return self._keys[node]

    def sign(self, node: NodeId, message: Any) -> Signature:
        """Sign *message* on behalf of *node* (node must be registered)."""

        try:
            keypair = self._keys[node]
        except KeyError as exc:
            raise UnknownSignerError(f"no key registered for {node}") from exc
        return self._scheme.sign(keypair, message)

    def verify(self, signature: Signature, message: Any) -> bool:
        """Verify that *signature* was produced by its claimed signer."""

        keypair = self._keys.get(signature.signer)
        if keypair is None:
            raise UnknownSignerError(f"no key registered for {signature.signer}")
        if signature.scheme != self._scheme.name:
            return False
        if isinstance(self._scheme, HmacSignatureScheme):
            return self._scheme.verify_with_private(
                keypair.private_key, signature, message
            )
        return self._scheme.verify(keypair.public_key, signature, message)

    def require_valid(self, signature: Signature, message: Any) -> None:
        """Raise :class:`SignatureError` unless *signature* verifies."""

        if not self.verify(signature, message):
            raise SignatureError(
                f"invalid signature from {signature.signer} over message"
            )


# ----------------------------------------------------------------------
# Batch signing: one signature over a Merkle root covering many items
# ----------------------------------------------------------------------
# Lazy certification (Section IV-E) never needs a per-block signature on the
# client-visible path — only a per-block *proof*.  The helpers below let a
# signer commit to N items with a single signature: each item becomes a
# domain-separated leaf digest, the leaves are folded into a Merkle root, and
# the signature covers a :class:`BatchRootStatement` binding the root to a
# context string, an item count, and (optionally) the node the batch is
# about.  Per-item verification is then a leaf digest plus an O(log N)
# inclusion path; the single root signature is checked once per batch and
# the verdict memoized on the verifier's registry.


@dataclass(frozen=True)
class BatchRootStatement:
    """What a signer commits to when one signature covers many items.

    ``context`` provides domain separation between protocols that batch
    (e.g. ``"certify-batch"``) so a root signed for one purpose can never be
    replayed for another; ``about`` names the node the batch concerns (the
    edge whose blocks are being certified), keeping the binding explicit in
    the signed bytes rather than implied by the transport.
    """

    signer: NodeId
    context: str
    root: str
    count: int
    issued_at: float
    about: Optional[NodeId] = None


def batch_item_leaf(item: Any) -> str:
    """Leaf digest of one batched item (domain-separated canonical digest).

    The ``batch-item:`` prefix separates batch leaves from every other use
    of the canonical encoding, so a signed batch root can only ever attest
    to values hashed through this function.
    """

    return hashlib.sha256(b"batch-item:" + canonical_encode(item)).hexdigest()


def sign_batch_root(
    registry: "KeyRegistry",
    signer: NodeId,
    context: str,
    root: str,
    count: int,
    issued_at: float,
    about: Optional[NodeId] = None,
) -> tuple[BatchRootStatement, Signature]:
    """Sign a single Merkle *root* covering *count* items for *signer*."""

    if count <= 0:
        raise SignatureError("cannot sign an empty batch")
    statement = BatchRootStatement(
        signer=signer,
        context=context,
        root=root,
        count=count,
        issued_at=issued_at,
        about=about,
    )
    return statement, registry.sign(signer, statement)


def verify_batch_root(
    registry: "KeyRegistry",
    statement: BatchRootStatement,
    signature: Signature,
    expected_signer: Optional[NodeId] = None,
    expected_context: Optional[str] = None,
) -> bool:
    """Verify the one signature that covers a whole batch, memoized.

    The verdict lives in the verifier registry's cache, never on a received
    object, so N per-item checks against the same batch cost one real
    signature verification.  The memo entry is keyed by the *signature* as
    well as the statement: two deliveries of a value-equal statement with
    different signature bytes (a forgery riding a previously verified
    statement, or a garbage signature arriving before the genuine one) each
    get their own verdict instead of sharing one.
    """

    if signature.signer != statement.signer:
        return False
    if expected_signer is not None and statement.signer != expected_signer:
        return False
    if expected_context is not None and statement.context != expected_context:
        return False
    memo = registry.verdict_memo(statement)
    verdict = memo.get(signature)
    if verdict is None:
        verdict = registry.verify(signature, statement)
        memo[signature] = verdict
    return verdict
