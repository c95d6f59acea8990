"""Equivalence and regression tests for the hot-path optimizations.

The perf overhaul (cached canonical encoding, incremental Merkle trees,
bisect page lookups, memoized verification) must be *behaviourally
invisible*: identical inputs must produce byte-identical encodings, the same
digests, the same roots and proofs, and the same lookup results as the seed
implementations.  This module checks that with golden vectors captured from
the unoptimized seed plus property-based comparisons against straightforward
reference implementations.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import (
    FRAGMENT_ATTR,
    canonical_encode,
    encoded_size,
    flat_encode,
    reference_encode,
)
from repro.common.errors import MergeProtocolError, ProtocolError, SerializationError
from repro.common.identifiers import (
    NodeId,
    NodeRole,
    OperationId,
    OperationKind,
    client_id,
    cloud_id,
    edge_id,
)
from repro.common.config import LSMerkleConfig
from repro.crypto.hashing import (
    digest_chain,
    digest_leaf,
    digest_pair,
    digest_value,
    is_hex_digest,
    sha256_hex,
)
from repro.crypto.signatures import KeyRegistry, Signature
from repro.log.block import build_block, compute_block_digest
from repro.log.entry import EntryBody, LogEntry
from repro.log.proofs import CommitPhase, issue_block_proof
from repro.lsm.compaction import merge_levels, partition_into_pages
from repro.lsm.page import Page, build_page
from repro.lsm.records import KeyFence, KVRecord
from repro.lsmerkle.merge import CloudIndexMirror
from repro.lsmerkle.mlsm import GlobalRootStatement, compute_global_root, sign_global_root
from repro.merkle.tree import MerkleTree

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

ALICE = client_id("alice")
EDGE = edge_id("edge-0")


# ----------------------------------------------------------------------
# Golden digests: byte-identical to the seed implementation
# ----------------------------------------------------------------------
def _golden_scalar_cases() -> dict:
    return {
        "none": None,
        "bool_true": True,
        "int_negative": -12345,
        "int_big": 2**80,
        "float_simple": 0.5,
        "float_tricky": 1e-9,
        "float_repr": 12.10,
        "str_unicode": "héllo — wörld ☃",
        "str_escapes": 'line\nbreak\ttab"quote\\back',
        "bytes": b"\x00\x01\xfe\xff",
        "tuple_mixed": ("a", 1, 2.5, None, True, b"\xab"),
        "nested_list": [[1, [2, [3]]], {"k": [4, 5]}],
        "dict_mixed_keys": {1: "one", "two": 2, 2.5: "half", True: "t"},
        "frozenset_strs": frozenset({"b", "a", "c"}),
        "enum_plain": CommitPhase.PHASE_TWO,
        "enum_str": OperationKind.PUT,
        "node_id": EDGE,
        "operation_id": OperationId(client=ALICE, sequence=7),
        "kv_record": KVRecord(
            key="sensor/17", sequence=42, value=b"\x00payload\xff", written_at=12.5
        ),
        "key_fence": KeyFence(lower="a", upper="m"),
    }


class TestGoldenDigests:
    """Encoding/digest outputs must match vectors captured from the seed."""

    @pytest.mark.parametrize("name", sorted(_golden_scalar_cases()))
    def test_value_encoding_and_digest(self, name):
        value = _golden_scalar_cases()[name]
        expected = GOLDEN[name]
        assert canonical_encode(value).decode("utf-8") == expected["encoded"]
        assert digest_value(value) == expected["digest"]
        # Second call exercises the memo hit path — must stay identical.
        assert canonical_encode(value).decode("utf-8") == expected["encoded"]
        assert reference_encode(value) == canonical_encode(value)
        assert encoded_size(value) == len(expected["encoded"].encode("utf-8"))

    def test_page_golden(self):
        records = [
            KVRecord(key=f"k{i:03d}", sequence=i, value=bytes([i]) * 3, written_at=float(i))
            for i in range(7)
        ]
        page = build_page(records, created_at=3.25)
        assert page.digest() == GOLDEN["page_digest"]["digest"]
        composite = (
            tuple(page.records),
            page.fence.lower,
            page.fence.upper,
            page.created_at,
            page.source_block_id,
        )
        assert canonical_encode(composite).decode("utf-8") == GOLDEN["page_composite"]["encoded"]

    def test_block_and_entry_golden(self):
        entries = [
            LogEntry(
                body=EntryBody(
                    producer=ALICE,
                    sequence=i,
                    payload=b"payload-%d" % i,
                    produced_at=float(i),
                ),
                signature=Signature(
                    signer=ALICE, scheme="hmac", value=bytes([i + 1]) * 32
                ),
            )
            for i in range(5)
        ]
        block = build_block(edge=EDGE, block_id=3, entries=entries, created_at=9.75)
        assert (
            compute_block_digest(block.edge, block.block_id, block.entries)
            == GOLDEN["block_digest"]["digest"]
        )
        assert canonical_encode(entries[0].body).decode() == GOLDEN["entry_body"]["encoded"]
        assert canonical_encode(entries[0]).decode() == GOLDEN["log_entry"]["encoded"]

    def test_statement_and_merkle_golden(self):
        roots = ("a" * 64, "b" * 64)
        statement = GlobalRootStatement(
            edge=EDGE,
            level_roots=roots,
            global_root=compute_global_root(roots),
            version=3,
            timestamp=44.5,
        )
        assert (
            canonical_encode(statement).decode()
            == GOLDEN["global_root_statement"]["encoded"]
        )
        leaves = [digest_leaf(bytes([i]) * 4) for i in range(9)]
        tree = MerkleTree(leaves)
        assert tree.root == GOLDEN["merkle_root_9"]["digest"]
        assert MerkleTree([]).root == GOLDEN["merkle_root_empty"]["digest"]
        assert MerkleTree(leaves[:1]).root == GOLDEN["merkle_root_1"]["digest"]
        proof = tree.prove(5)
        assert proof.compute_root() == GOLDEN["merkle_proof_5"]["digest"]
        assert [[s.side, s.sibling] for s in proof.steps] == GOLDEN["merkle_proof_5"]["steps"]
        assert digest_pair("a" * 64, "b" * 64) == GOLDEN["digest_pair"]["digest"]
        assert digest_chain(["a" * 64, "b" * 64, "c" * 64]) == GOLDEN["digest_chain"]["digest"]

    def test_certification_message_golden(self):
        """Pipelined-certification statements through the precompiled
        template fast path must stay byte-identical to the reference
        encoder (these are exactly the bytes batch/window signatures and
        batch-root signatures cover)."""

        from repro.crypto.signatures import BatchRootStatement
        from repro.messages.log_messages import (
            CertifyBatchStatement,
            CertifyStatement,
            CertifyWindowStatement,
        )

        cloud = cloud_id("cloud-0")
        items = tuple(
            CertifyStatement(
                edge=EDGE, block_id=i, block_digest=f"{i:064x}", num_entries=4
            )
            for i in range(2)
        )
        batch = CertifyBatchStatement(edge=EDGE, items=items)
        items2 = tuple(
            CertifyStatement(
                edge=EDGE, block_id=2 + i, block_digest=f"{2 + i:064x}", num_entries=4
            )
            for i in range(2)
        )
        window = CertifyWindowStatement(
            edge=EDGE, batches=(batch, CertifyBatchStatement(edge=EDGE, items=items2))
        )
        root = BatchRootStatement(
            signer=cloud,
            context="certify-batch",
            root="ab" * 32,
            count=4,
            issued_at=2.5,
            about=EDGE,
        )
        for name, value in (
            ("certify_statement", items[0]),
            ("certify_batch_statement", batch),
            ("certify_window_statement", window),
            ("batch_root_statement", root),
        ):
            expected = GOLDEN[name]
            assert canonical_encode(value).decode() == expected["encoded"]
            assert digest_value(value) == expected["digest"]
            assert reference_encode(value) == canonical_encode(value)
            assert encoded_size(value) == len(expected["encoded"])

    def test_merge_golden(self):
        source = build_page(
            [
                KVRecord(key=f"k{i:02d}", sequence=100 + i, value=b"new", written_at=50.0)
                for i in range(0, 20, 2)
            ],
            created_at=50.0,
        )
        target = partition_into_pages(
            sorted(
                [
                    KVRecord(key=f"k{i:02d}", sequence=i, value=b"old", written_at=1.0)
                    for i in range(15)
                ],
                key=lambda record: record.key,
            ),
            page_capacity=4,
            created_at=1.0,
        )
        result = merge_levels([source], target, created_at=60.0, page_capacity=4)
        assert (
            digest_value(tuple(page.digest() for page in result.pages))
            == GOLDEN["merge_result_digests"]["digest"]
        )


# ----------------------------------------------------------------------
# Property: every encoder matches the reference encoder
# ----------------------------------------------------------------------
class _Colour(Enum):
    RED = 1
    PAIR = (2, "two")
    LISTED = [3, 4]
    NOTHING = None


class _Mode(str, Enum):
    PLAIN = "plain"
    ODD = "h\u00e9\n\x00"


class _Level(IntEnum):
    LOW = 1
    HIGH = 2**70


class _Rank(int, Enum):
    FIRST = -1


class _Ratio(float, Enum):
    HALF = 0.5
    HUGE = float("inf")


_ENUM_MEMBERS = [*_Colour, *_Mode, *_Level, *_Rank, *_Ratio, *CommitPhase, *OperationKind]


@dataclasses.dataclass(frozen=True)
class _Frozen:
    count: int
    child: object


@dataclasses.dataclass
class _Mutable:
    items: object


_SPECIAL_SCALARS = [
    None,
    True,
    False,
    0,
    -(2**80),
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    1e-300,
    "",
    "h\u00e9\x00\x1f\x7f\u2028\U0001f600\"\\",
    b"",
    b"\x00\xff",
    *_ENUM_MEMBERS,
]
_tricky_floats = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-300, 2.0**70]
)
_tricky_text = st.text(max_size=12) | st.sampled_from(
    ["", "h\u00e9llo", "\x00\x1f\x7f\x80", "\u2028\u2029", "\U0001f600", '"\\/', "\ud7ff\ue000"]
)
jsonable_strategy = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | _tricky_floats
    | _tricky_text
    | st.binary(max_size=20)
    | st.sampled_from(_ENUM_MEMBERS),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(_tricky_text, children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=3)
    | st.dictionaries(st.booleans() | st.none(), children, max_size=2)
    | st.dictionaries(st.floats(allow_nan=False), children, max_size=3)
    | st.frozensets(_tricky_text, max_size=4)
    | st.frozensets(st.integers(), max_size=4)
    | st.builds(_Frozen, count=st.integers() | st.booleans(), child=children)
    | st.builds(_Mutable, items=children),
    max_leaves=12,
)


def _tree_nodes(value):
    """*value* and everything beneath it that the encoders visit."""

    yield value
    if isinstance(value, (str, bytes, Enum)):
        return
    if dataclasses.is_dataclass(value):
        children = [getattr(value, field.name) for field in dataclasses.fields(value)]
    elif isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, (list, tuple, frozenset)):
        children = list(value)
    else:
        return
    for child in children:
        yield from _tree_nodes(child)


def _deeply_immutable(value) -> bool:
    if isinstance(value, (_Mutable, list, dict)):
        return False
    if isinstance(value, Enum):
        return not isinstance(value.value, list)
    return all(_deeply_immutable(node) for node in list(_tree_nodes(value))[1:])


class TestEncoderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(jsonable_strategy)
    def test_every_encoder_matches_reference(self, value):
        """Cold and warm, each encoder reproduces the oracle's bytes — enum
        mixins, NaN/infinities/-0.0, escapes, bools in int fields, tuples vs
        lists, frozensets, non-string dict keys — and only a frozen
        dataclass whose whole subtree is immutable keeps a memo."""

        try:
            expected = reference_encode(value)
        except SerializationError:
            for encoder in (flat_encode, canonical_encode, encoded_size):
                with pytest.raises(SerializationError):
                    encoder(value)
            return
        assert flat_encode(value) == expected  # cold: flat_encode writes no memo
        assert canonical_encode(value) == expected  # cold: writes the memos
        assert canonical_encode(value) == expected  # warm
        assert flat_encode(value) == expected  # warm
        assert encoded_size(value) == len(expected)
        for node in _tree_nodes(value):
            if isinstance(node, _Frozen):
                assert hasattr(node, FRAGMENT_ATTR) == _deeply_immutable(node)

    @settings(max_examples=150, deadline=None)
    @given(jsonable_strategy)
    def test_flat_encode_writes_no_memo(self, value):
        try:
            flat_encode(value)
        except SerializationError:
            return
        for node in _tree_nodes(value):
            assert not hasattr(node, FRAGMENT_ATTR)

    def test_flat_encode_of_a_fresh_block_writes_no_memo(self):
        producer = NodeId(role=NodeRole.CLIENT, name="fresh-client")
        entries = [
            LogEntry(
                body=EntryBody(producer=producer, sequence=i, payload=b"p", produced_at=0.5),
                signature=Signature(signer=producer, scheme="hmac", value=bytes(32)),
            )
            for i in range(3)
        ]
        block = build_block(
            edge=NodeId(role=NodeRole.EDGE, name="fresh-edge"),
            block_id=1,
            entries=entries,
            created_at=1.0,
        )
        assert flat_encode(block) == reference_encode(block)
        for node in _tree_nodes(block):
            assert not hasattr(node, FRAGMENT_ATTR)

    @pytest.mark.parametrize("special", _SPECIAL_SCALARS, ids=repr)
    def test_special_scalar_in_every_position(self, special):
        """Each value the old ladder special-cased, as a generated encoder's
        field (the inline fast paths), inside containers and at the top."""

        for make in (
            lambda: special,
            lambda: _Frozen(count=special, child=(special, [special])),
            lambda: _Mutable(items=special),
            lambda: {"k": special, 7: (special,)},
        ):
            expected = reference_encode(make())
            assert flat_encode(make()) == expected
            value = make()
            assert canonical_encode(value) == expected
            assert canonical_encode(value) == expected
            assert flat_encode(value) == expected
            assert encoded_size(value) == len(expected)

    def test_frozen_parent_of_mutable_child_keeps_no_memo(self):
        child = _Mutable(items=1)
        parent = _Frozen(count=True, child=child)
        assert canonical_encode(parent) == reference_encode(parent)
        assert not hasattr(parent, FRAGMENT_ATTR)
        child.items = "changed"
        assert canonical_encode(parent) == reference_encode(parent)
        assert flat_encode(parent) == reference_encode(parent)

    @settings(max_examples=60, deadline=None)
    @given(
        st.text(max_size=20),
        st.integers(min_value=0, max_value=2**40),
        st.binary(max_size=50),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_dataclass_fragment_matches_reference(self, key, sequence, value, ts):
        record = KVRecord(key=key, sequence=sequence, value=value, written_at=ts)
        assert canonical_encode(record) == reference_encode(record)
        # Memo hit must return the same bytes.
        assert canonical_encode(record) == reference_encode(record)
        nested = (record, [record, record], {"r": record})
        assert canonical_encode(nested) == reference_encode(nested)


# ----------------------------------------------------------------------
# Property: bisect Page.lookup matches the seed's linear scan
# ----------------------------------------------------------------------
def _seed_lookup(page: Page, key: str):
    """The seed implementation: full linear scan keeping the newest match."""

    best = None
    for record in page.records:
        if record.key == key and (best is None or record.is_newer_than(best)):
            best = record
    return best


class TestPageLookupEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(alphabet="abcd", max_size=2), st.integers(0, 10**6)),
            max_size=30,
            unique_by=lambda pair: pair[1],
        ),
        st.text(alphabet="abcd", max_size=2),
    )
    def test_bisect_lookup_matches_linear_scan(self, pairs, probe):
        records = [
            KVRecord(key=key, sequence=sequence, value=b"v") for key, sequence in pairs
        ]
        page = build_page(records, created_at=0.0)
        keys = {record.key for record in records} | {probe}
        for key in keys:
            assert page.lookup(key) == _seed_lookup(page, key)

    def test_lookup_picks_newest_among_duplicates_any_order(self):
        # Direct construction with equal keys in non-sequence order: the
        # equal-key run must still yield the newest version.
        records = (
            KVRecord(key="k", sequence=5, value=b"5"),
            KVRecord(key="k", sequence=9, value=b"9"),
            KVRecord(key="k", sequence=2, value=b"2"),
        )
        page = Page(records=records, fence=KeyFence(), created_at=0.0)
        assert page.lookup("k").sequence == 9

    def test_unsorted_page_construction_rejected(self):
        with pytest.raises(ProtocolError):
            Page(
                records=(
                    KVRecord(key="b", sequence=1, value=b""),
                    KVRecord(key="a", sequence=2, value=b""),
                ),
                fence=KeyFence(),
                created_at=0.0,
            )

    def test_out_of_fence_page_construction_rejected(self):
        with pytest.raises(ProtocolError):
            Page(
                records=(KVRecord(key="z", sequence=1, value=b""),),
                fence=KeyFence(lower="a", upper="m"),
                created_at=0.0,
            )

    def test_build_page_rejects_bad_explicit_fence(self):
        with pytest.raises(ProtocolError):
            build_page(
                [KVRecord(key="z", sequence=1, value=b"")],
                created_at=0.0,
                fence=KeyFence(lower="a", upper="m"),
            )

    def test_partition_rejects_unsorted_or_duplicate_records(self):
        with pytest.raises(ProtocolError):
            partition_into_pages(
                [
                    KVRecord(key="b", sequence=1, value=b""),
                    KVRecord(key="a", sequence=2, value=b""),
                ],
                page_capacity=2,
                created_at=0.0,
            )
        with pytest.raises(ProtocolError):
            partition_into_pages(
                [
                    KVRecord(key="a", sequence=1, value=b""),
                    KVRecord(key="a", sequence=2, value=b""),
                ],
                page_capacity=2,
                created_at=0.0,
            )


# ----------------------------------------------------------------------
# Property: incremental Merkle updates match from-scratch construction
# ----------------------------------------------------------------------
digest_strategy = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda n: sha256_hex(n.to_bytes(8, "big"))
)


def _assert_tree_equals_fresh(tree: MerkleTree, leaves: list[str]) -> None:
    fresh = MerkleTree(leaves)
    assert tree.root == fresh.root
    assert tree.leaves == fresh.leaves
    assert tree.height == fresh.height
    for index in range(len(leaves)):
        incremental_proof = tree.prove(index)
        fresh_proof = fresh.prove(index)
        assert incremental_proof == fresh_proof
        assert incremental_proof.verifies_against(fresh.root)


class TestMerkleIncrementalEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(digest_strategy, min_size=0, max_size=24))
    def test_append_sequence_matches_fresh_build(self, leaves):
        tree = MerkleTree([])
        for digest in leaves:
            tree.append_leaf(digest)
        _assert_tree_equals_fresh(tree, leaves)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(digest_strategy, min_size=1, max_size=24),
        st.lists(st.tuples(st.integers(0, 10**6), digest_strategy), max_size=12),
    )
    def test_replace_sequence_matches_fresh_build(self, leaves, updates):
        tree = MerkleTree(leaves)
        current = list(leaves)
        for slot, digest in updates:
            index = slot % len(current)
            current[index] = digest
            tree.replace_leaf(index, digest)
        _assert_tree_equals_fresh(tree, current)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(digest_strategy, min_size=0, max_size=20),
        st.lists(digest_strategy, min_size=0, max_size=20),
    )
    def test_update_leaves_matches_fresh_build(self, initial, final):
        tree = MerkleTree(initial)
        tree.update_leaves(final)
        _assert_tree_equals_fresh(tree, final)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(digest_strategy, min_size=0, max_size=16))
    def test_mirror_cached_roots_match_rebuild(self, digests):
        mirror = CloudIndexMirror(edge=EDGE, config=LSMerkleConfig.paper_default())
        mirror.level_page_digests[1] = list(digests)
        first = mirror.level_roots()
        # Cache hit must return the same value, and mutating the digest list
        # behind the mirror's back must invalidate the memo.
        assert mirror.level_roots() == first
        assert first[0] == MerkleTree(digests).root
        mirror.level_page_digests[1] = list(digests) + ["f" * 64]
        assert mirror.level_roots()[0] == MerkleTree(list(digests) + ["f" * 64]).root


# ----------------------------------------------------------------------
# Regression: caches survive dataclass replace / reconstruction
# ----------------------------------------------------------------------
class TestCacheLifecycle:
    def test_cached_digest_not_inherited_by_replace(self):
        record = KVRecord(key="k", sequence=1, value=b"v", written_at=1.0)
        original_digest = digest_value(record)
        replaced = dataclasses.replace(record, sequence=2)
        assert digest_value(replaced) != original_digest
        assert digest_value(replaced) == digest_value(
            KVRecord(key="k", sequence=2, value=b"v", written_at=1.0)
        )
        # The original's memo must be unaffected.
        assert digest_value(record) == original_digest

    def test_equal_reconstructed_values_share_encoding(self):
        one = KVRecord(key="k", sequence=1, value=b"v", written_at=1.0)
        canonical_encode(one)  # populate the memo on `one` only
        two = KVRecord(key="k", sequence=1, value=b"v", written_at=1.0)
        assert canonical_encode(one) == canonical_encode(two) == reference_encode(two)
        assert one == two

    def test_page_caches_survive_replace(self):
        records = tuple(
            KVRecord(key=f"k{i}", sequence=i, value=b"v") for i in range(5)
        )
        page = build_page(records, created_at=1.0)
        assert page.digest() and page.wire_size and page.keys()
        moved = dataclasses.replace(page, created_at=2.0)
        assert moved.digest() != page.digest()
        assert moved.keys() == page.keys()
        assert moved.wire_size == page.wire_size
        assert moved.lookup("k3") == page.lookup("k3")

    def test_block_records_memo_consistent(self):
        from repro.lsmerkle.codec import encode_put, records_from_block
        from repro.log.entry import make_entry

        registry = KeyRegistry()
        registry.register(ALICE)
        entries = [
            make_entry(registry, ALICE, i, encode_put(f"k{i}", b"v"), 1.0)
            for i in range(3)
        ]
        block = build_block(EDGE, 0, entries, 1.0)
        first = records_from_block(block)
        assert records_from_block(block) is first
        assert [record.key for record in first] == ["k0", "k1", "k2"]


# ----------------------------------------------------------------------
# Satellites: hex validation, Counter digest comparison, verify memo
# ----------------------------------------------------------------------
class TestSatellites:
    def test_is_hex_digest_accepts_real_digests(self):
        assert is_hex_digest(sha256_hex(b"x"))
        assert is_hex_digest("A" * 64)

    @pytest.mark.parametrize(
        "bad",
        [
            "0x" + "a" * 62,
            "+" + "a" * 63,
            "-" + "a" * 63,
            " " + "a" * 63,
            "a" * 63 + "\n",
            "a" * 63 + "g",
            "_" + "a" * 63,
            "a" * 63,
            "a" * 65,
            12345,
        ],
    )
    def test_is_hex_digest_rejects_lookalikes(self, bad):
        assert not is_hex_digest(bad)

    def test_verify_page_digests_checks_multiplicity(self):
        mirror = CloudIndexMirror(edge=EDGE, config=LSMerkleConfig.paper_default())
        page = build_page(
            [KVRecord(key="a", sequence=1, value=b"v")], created_at=1.0
        )
        mirror.level_page_digests[1] = [page.digest(), page.digest()]
        with pytest.raises(MergeProtocolError):
            mirror._verify_page_digests([page], 1, "source")
        mirror._verify_page_digests([page, page], 1, "source")

    def test_block_proof_verify_cached_matches_verify(self):
        registry = KeyRegistry()
        cloud = cloud_id("c")
        registry.register(cloud)
        proof = issue_block_proof(registry, cloud, EDGE, 1, "a" * 64, 1.0)
        assert proof.verify(registry) == proof.verify_cached(registry) is True
        assert proof.verify_cached(registry) is True
        other_registry = KeyRegistry()
        with pytest.raises(Exception):
            proof.verify_cached(other_registry)

    def test_signed_root_verify_cached_matches_verify(self):
        registry = KeyRegistry()
        cloud = cloud_id("c")
        registry.register(cloud)
        signed = sign_global_root(
            registry=registry,
            cloud=cloud,
            edge=EDGE,
            level_roots=("a" * 64,),
            version=1,
            timestamp=1.0,
        )
        assert signed.verify(registry, cloud) is True
        assert signed.verify_cached(registry, cloud) is True
        assert signed.verify_cached(registry, cloud) is True
        assert signed.verify_cached(registry, edge_id("other")) is False
