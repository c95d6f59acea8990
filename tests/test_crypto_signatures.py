"""Unit tests for the signature schemes and the key registry."""

from __future__ import annotations

import pytest

from repro.common import SignatureError, UnknownSignerError
from repro.common.identifiers import client_id, edge_id
from repro.crypto.signatures import (
    HmacSignatureScheme,
    KeyRegistry,
    SchnorrSignatureScheme,
    Signature,
    get_scheme,
)


class TestHmacScheme:
    def test_sign_and_verify_through_registry(self):
        registry = KeyRegistry("hmac")
        alice = client_id("alice")
        registry.register(alice)
        signature = registry.sign(alice, {"op": "add", "value": 1})
        assert registry.verify(signature, {"op": "add", "value": 1})

    def test_tampered_message_fails(self):
        registry = KeyRegistry("hmac")
        alice = client_id("alice")
        registry.register(alice)
        signature = registry.sign(alice, "original")
        assert not registry.verify(signature, "tampered")

    def test_direct_verify_without_registry_rejected(self):
        scheme = HmacSignatureScheme()
        keypair = scheme.generate_keypair(client_id("alice"))
        signature = scheme.sign(keypair, "message")
        with pytest.raises(SignatureError):
            scheme.verify(keypair.public_key, signature, "message")

    def test_wrong_scheme_keypair_rejected(self):
        hmac_scheme = HmacSignatureScheme()
        schnorr = SchnorrSignatureScheme()
        keypair = schnorr.generate_keypair(client_id("alice"))
        with pytest.raises(SignatureError):
            hmac_scheme.sign(keypair, "message")


class TestSchnorrScheme:
    def test_sign_and_verify_with_public_key_only(self):
        scheme = SchnorrSignatureScheme()
        keypair = scheme.generate_keypair(client_id("alice"))
        signature = scheme.sign(keypair, {"op": "put"})
        assert scheme.verify(keypair.public_key, signature, {"op": "put"})

    def test_tampered_message_fails(self):
        scheme = SchnorrSignatureScheme()
        keypair = scheme.generate_keypair(client_id("alice"))
        signature = scheme.sign(keypair, "original")
        assert not scheme.verify(keypair.public_key, signature, "tampered")

    def test_wrong_scheme_keypair_rejected(self):
        keypair = HmacSignatureScheme().generate_keypair(client_id("alice"))
        with pytest.raises(SignatureError, match="keypair scheme 'hmac'"):
            SchnorrSignatureScheme().sign(keypair, "message")

    def test_wrong_public_key_fails(self):
        scheme = SchnorrSignatureScheme()
        alice_keys = scheme.generate_keypair(client_id("alice"))
        bob_keys = scheme.generate_keypair(client_id("bob"))
        signature = scheme.sign(alice_keys, "message")
        assert not scheme.verify(bob_keys.public_key, signature, "message")

    def test_registry_with_schnorr_scheme(self):
        registry = KeyRegistry("schnorr")
        edge = edge_id("edge-0")
        registry.register(edge)
        signature = registry.sign(edge, ["block", 7])
        assert registry.verify(signature, ["block", 7])
        assert not registry.verify(signature, ["block", 8])


class TestKeyRegistry:
    def test_unknown_signer_raises(self):
        registry = KeyRegistry("hmac")
        with pytest.raises(UnknownSignerError):
            registry.sign(client_id("ghost"), "message")

    def test_verify_unknown_signer_raises(self):
        registry = KeyRegistry("hmac")
        other = KeyRegistry("hmac")
        alice = client_id("alice")
        other.register(alice)
        signature = other.sign(alice, "hi")
        with pytest.raises(UnknownSignerError):
            registry.verify(signature, "hi")

    def test_register_is_idempotent(self):
        registry = KeyRegistry("hmac")
        alice = client_id("alice")
        first = registry.register(alice)
        second = registry.register(alice)
        assert first is second

    def test_require_valid_raises_on_forgery(self):
        registry = KeyRegistry("hmac")
        alice, bob = client_id("alice"), client_id("bob")
        registry.register(alice)
        registry.register(bob)
        signature = registry.sign(bob, "msg")
        forged = Signature(signer=alice, scheme=signature.scheme, value=signature.value)
        with pytest.raises(SignatureError):
            registry.require_valid(forged, "msg")

    def test_get_scheme_unknown_name(self):
        with pytest.raises(SignatureError):
            get_scheme("unknown")

    def test_cross_signer_signatures_do_not_verify(self):
        registry = KeyRegistry("hmac")
        alice, bob = client_id("alice"), client_id("bob")
        registry.register(alice)
        registry.register(bob)
        signature = registry.sign(alice, "payload")
        impersonated = Signature(signer=bob, scheme=signature.scheme, value=signature.value)
        assert not registry.verify(impersonated, "payload")

    def test_empty_signature_value_rejected(self):
        with pytest.raises(SignatureError):
            Signature(signer=client_id("alice"), scheme="hmac", value=b"")

