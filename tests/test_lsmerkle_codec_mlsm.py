"""Unit tests for the LSMerkle codec, mLSM structure, and signed roots."""

from __future__ import annotations

import pytest

from repro.common import SerializationError
from repro.common.config import LSMerkleConfig
from repro.common.identifiers import client_id, cloud_id, edge_id
from repro.log.block import build_block
from repro.log.entry import make_entry
from repro.lsm.compaction import partition_into_pages
from repro.lsm.records import KVRecord
from repro.lsmerkle.codec import (
    SEQUENCE_STRIDE,
    decode_put,
    encode_put,
    is_put_payload,
    key_map,
    page_from_block,
    record_sequence,
    records_from_block,
)
from repro.lsmerkle.mlsm import (
    MerkleizedLSM,
    compute_global_root,
    empty_level_root,
    sign_global_root,
)

ALICE = client_id("alice")
EDGE = edge_id("edge-0")
CLOUD = cloud_id()


def put_block(registry, block_id: int, items, edge=EDGE):
    entries = [
        make_entry(registry, ALICE, index, encode_put(key, value), 1.0)
        for index, (key, value) in enumerate(items)
    ]
    return build_block(edge, block_id, entries, created_at=float(block_id))


class TestPutCodec:
    def test_roundtrip(self):
        payload = encode_put("sensor-1", b"\x00\x01value")
        assert is_put_payload(payload)
        assert decode_put(payload) == ("sensor-1", b"\x00\x01value")

    def test_empty_value(self):
        assert decode_put(encode_put("k", b"")) == ("k", b"")

    def test_unicode_keys(self):
        assert decode_put(encode_put("café", b"v")) == ("café", b"v")

    def test_rejects_nul_in_key(self):
        with pytest.raises(SerializationError):
            encode_put("bad\x00key", b"v")

    def test_non_put_payload(self):
        assert not is_put_payload(b"just a log entry")
        with pytest.raises(SerializationError):
            decode_put(b"just a log entry")
        # Laid out as a put but for its prefix: only the prefix check
        # refuses it, where the text above also has no decodable key.
        lookalike = b"kvpux\x00" + (1).to_bytes(4, "big") + b"kv"
        assert not is_put_payload(lookalike)
        with pytest.raises(SerializationError, match="does not encode a put"):
            decode_put(lookalike)

    def test_truncated_payload_rejected(self):
        payload = encode_put("key", b"value")
        with pytest.raises(SerializationError):
            decode_put(payload[:8])

    def test_record_sequence_ordering(self):
        assert record_sequence(0, 0) < record_sequence(0, 1)
        assert record_sequence(0, SEQUENCE_STRIDE - 1) < record_sequence(1, 0)
        with pytest.raises(SerializationError):
            record_sequence(0, SEQUENCE_STRIDE)


class TestPageFromBlock:
    def test_derivation_is_deterministic(self, registry):
        block = put_block(registry, 3, [("b", b"2"), ("a", b"1")])
        page_one = page_from_block(block)
        page_two = page_from_block(block)
        assert page_one.digest() == page_two.digest()
        assert page_one.source_block_id == 3
        assert page_one.keys() == ("a", "b")

    def test_records_carry_block_order_sequences(self, registry):
        block = put_block(registry, 2, [("x", b"1"), ("y", b"2")])
        records = records_from_block(block)
        assert [r.sequence for r in records] == [
            record_sequence(2, 0),
            record_sequence(2, 1),
        ]

    def test_non_put_entries_are_skipped(self, registry):
        entries = [
            make_entry(registry, ALICE, 0, b"plain log entry", 1.0),
            make_entry(registry, ALICE, 1, encode_put("k", b"v"), 1.0),
        ]
        block = build_block(EDGE, 0, entries, 1.0)
        records = records_from_block(block)
        assert len(records) == 1 and records[0].key == "k"

    def test_key_map_reads_a_records_memo_and_attaches_none(self, registry):
        block = put_block(registry, 4, [("k", b"1"), ("j", b"2"), ("k", b"3")])
        assert [r.value for r in key_map(block).get("k", ())] == [b"1", b"3"]
        assert getattr(block, "_records_cache", None) is None
        # A block that carries the memo is answered from it.
        memo = (KVRecord("k", 7, b"memo"), KVRecord("j", 8, b"other"))
        object.__setattr__(block, "_records_cache", memo)
        assert key_map(block).get("k", ()) == memo[:1]

    def test_pure_logging_block_has_no_page(self, registry):
        entries = [make_entry(registry, ALICE, 0, b"log only", 1.0)]
        block = build_block(EDGE, 0, entries, 1.0)
        assert page_from_block(block) is None


class TestMerkleizedLSM:
    def _mlsm(self) -> MerkleizedLSM:
        return MerkleizedLSM(
            config=LSMerkleConfig(level_thresholds=(2, 2, 4)), page_capacity=2
        )

    def test_empty_levels_have_empty_roots(self):
        mlsm = self._mlsm()
        assert mlsm.level_roots() == (empty_level_root(), empty_level_root())
        assert mlsm.global_root() == compute_global_root(mlsm.level_roots())

    def test_apply_merge_updates_roots(self):
        mlsm = self._mlsm()
        before = mlsm.global_root()
        pages = partition_into_pages(
            [KVRecord("a", 1, b"v"), KVRecord("b", 2, b"v")], page_capacity=2, created_at=0.0
        )
        mlsm.apply_merge(0, pages)
        assert mlsm.global_root() != before
        assert mlsm.level_roots()[0] != empty_level_root()

    def test_install_merge_keeps_remaining_level_zero_pages(self, registry):
        mlsm = self._mlsm()
        merged_block = put_block(registry, 0, [("a", b"1")])
        pending_block = put_block(registry, 1, [("b", b"2")])
        merged_page = page_from_block(merged_block)
        pending_page = page_from_block(pending_block)
        mlsm.add_level_zero_page(merged_page)
        mlsm.add_level_zero_page(pending_page)
        new_level_one = partition_into_pages(
            list(merged_page.records), page_capacity=2, created_at=1.0
        )
        mlsm.install_merge(0, new_level_one, remaining_source_pages=[pending_page])
        assert mlsm.tree.levels[0].pages == [pending_page]
        assert mlsm.tree.levels[1].num_pages == 1

    def test_prove_page_roundtrip(self):
        mlsm = self._mlsm()
        pages = partition_into_pages(
            [KVRecord(k, i, b"v") for i, k in enumerate("abcd")], page_capacity=2, created_at=0.0
        )
        mlsm.apply_merge(0, pages)
        level = mlsm.tree.levels[1]
        for page in level.pages:
            proof = mlsm.prove_page(1, page)
            assert proof.verifies_against(mlsm.level_merkle(1).root)

    def test_prove_unknown_page_raises(self):
        from repro.common import ProofVerificationError
        from repro.lsm.page import build_page

        mlsm = self._mlsm()
        stranger = build_page([KVRecord("z", 9, b"v")], created_at=0.0)
        with pytest.raises(ProofVerificationError):
            mlsm.prove_page(1, stranger)

    def test_level_merkle_bounds(self):
        from repro.common import ProofVerificationError

        mlsm = self._mlsm()
        with pytest.raises(ProofVerificationError):
            mlsm.level_merkle(0)
        with pytest.raises(ProofVerificationError):
            mlsm.level_merkle(9)


class TestSignedGlobalRoot:
    def test_sign_and_verify(self, registry):
        roots = (empty_level_root(), empty_level_root())
        signed = sign_global_root(registry, CLOUD, EDGE, roots, version=1, timestamp=2.0)
        assert signed.verify(registry, CLOUD)
        assert signed.statement.global_root == compute_global_root(roots)

    def test_wrong_cloud_identity_rejected(self, registry):
        roots = (empty_level_root(),)
        signed = sign_global_root(registry, CLOUD, EDGE, roots, version=1, timestamp=2.0)
        assert not signed.verify(registry, cloud=edge_id("edge-0"))

    def test_inconsistent_global_root_rejected(self, registry):
        from dataclasses import replace

        roots = (empty_level_root(),)
        signed = sign_global_root(registry, CLOUD, EDGE, roots, version=1, timestamp=2.0)
        tampered_statement = replace(signed.statement, global_root="0" * 64)
        tampered = type(signed)(statement=tampered_statement, signature=signed.signature)
        assert not tampered.verify(registry, CLOUD)
