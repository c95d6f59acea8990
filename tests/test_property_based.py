"""Property-based tests (hypothesis) on the core data structures and codecs.

These complement the example-based unit tests by checking invariants over a
broad input space: canonical encoding stability, put-codec roundtrips, the
key maps the read-proof verifier reads level-0 blocks through, block digest
sensitivity, commit-tracker monotonicity, and fence partitioning.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import canonical_encode
from repro.common.errors import ProofVerificationError, SerializationError
from repro.common.identifiers import OperationId, OperationKind, client_id, edge_id
from repro.core.commit import CommitTracker
from repro.crypto.hashing import digest_value
from repro.crypto.signatures import KeyRegistry
from repro.log.block import build_block, compute_block_digest
from repro.log.entry import EntryBody, LogEntry
from repro.log.proofs import CommitPhase
from repro.lsm.compaction import newest_versions
from repro.lsm.records import KVRecord
from repro.lsmerkle.read_proof import GetProof, LevelZeroEvidence, verify_get_proof
from repro.lsmerkle.codec import (
    decode_put,
    encode_put,
    key_map,
    is_put_payload,
    record_sequence,
    records_from_block,
)

ALICE = client_id("alice")
EDGE = edge_id("edge-0")

# Keys must not contain NUL (the codec rejects it explicitly).
key_strategy = st.text(
    alphabet=st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
    min_size=0,
    max_size=40,
)
value_strategy = st.binary(min_size=0, max_size=200)


class TestCodecProperties:
    @settings(max_examples=100, deadline=None)
    @given(key_strategy, value_strategy)
    def test_put_roundtrip(self, key, value):
        payload = encode_put(key, value)
        assert is_put_payload(payload)
        assert decode_put(payload) == (key, value)

    @settings(max_examples=60, deadline=None)
    @given(key_strategy, value_strategy, value_strategy)
    def test_different_values_give_different_payloads(self, key, a, b):
        if a != b:
            assert encode_put(key, a) != encode_put(key, b)


#: A few keys, so a block maps some and not others.
_SCAN_KEYS = ("k", "k2", "é", "")
_PREFIX = encode_put("", b"")[:6]
_scan_payload = st.one_of(
    st.builds(encode_put, st.sampled_from(_SCAN_KEYS), value_strategy),
    # Not a put.
    st.binary(max_size=20).filter(lambda raw: not is_put_payload(raw)),
    # A key length past the end, or a length field cut short.
    st.builds(
        lambda excess, key: _PREFIX + (len(key) + excess).to_bytes(4, "big") + key,
        st.integers(min_value=1, max_value=9),
        st.binary(max_size=5),
    ),
    st.builds(lambda cut: _PREFIX + b"\x00\x00\x00\x01"[:cut], st.integers(0, 3)),
    # A key that is not UTF-8.
    st.builds(
        lambda key, value: _PREFIX + len(key).to_bytes(4, "big") + key + value,
        st.sampled_from((b"\xff", b"\xc3", b"k\xed\xa0\x80")),
        value_strategy,
    ),
)


def _reference_records(block):
    """Every put record of *block*, each payload parsed here on its own."""

    records = []
    for index, entry in enumerate(block.entries):
        payload = entry.payload
        if not payload.startswith(_PREFIX):
            continue
        key_end = 10 + int.from_bytes(payload[6:10], "big")
        if key_end > len(payload):
            raise SerializationError("truncated put payload")
        try:
            key = payload[10:key_end].decode("utf-8")
        except UnicodeDecodeError:
            raise SerializationError("put key is not UTF-8") from None
        records.append(
            KVRecord(
                key,
                record_sequence(block.block_id, index),
                payload[key_end:],
                entry.produced_at,
            )
        )
    return tuple(records)


def _outcome(read):
    try:
        return "records", read()
    except Exception as exc:  # the exception *type* is the verdict compared
        return "raises", type(exc)


class TestKeyMapProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_scan_payload, max_size=12), st.sampled_from(_SCAN_KEYS + ("absent",)))
    def test_key_map_equals_filtered_records(self, payloads, key):
        entries = [
            LogEntry(EntryBody(ALICE, sequence, payload, 0.5 + sequence))
            for sequence, payload in enumerate(payloads)
        ]
        block = build_block(EDGE, 3, entries, created_at=1.0)
        expected = _outcome(
            lambda: tuple(r for r in _reference_records(block) if r.key == key)
        )
        assert _outcome(lambda: key_map(block).get(key, ())) == expected
        assert _outcome(
            lambda: tuple(r for r in records_from_block(block, memoize=False) if r.key == key)
        ) == expected
        assert getattr(block, "_records_cache", None) is None  # attaches none
        if expected[0] == "records":
            # A block carrying the records memo is read through it.
            records_from_block(block)
            assert key_map(block).get(key, ()) == expected[1]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(_scan_payload, max_size=8), min_size=1, max_size=4),
        st.sampled_from(_SCAN_KEYS + ("absent",)),
    )
    def test_earlier_maps_give_the_verdict_and_maps_of_none(self, blocks, key):
        blocks = [
            build_block(
                EDGE,
                number,
                [
                    LogEntry(EntryBody(ALICE, sequence, payload, 0.5 + sequence))
                    for sequence, payload in enumerate(payloads)
                ],
                created_at=1.0,
            )
            for number, payloads in enumerate(blocks)
        ]
        # A reader holds only blocks that verified, so only well-formed ones
        # have maps (here every other one); the verifier answers those from
        # them and builds the rest, with the same verdict and the same maps
        # as a verifier given none.
        earlier = {
            id(block): (block, key_map(block))
            for block in blocks[::2]
            if _outcome(lambda: key_map(block))[0] == "records"
        }
        proof = GetProof(
            key=key,
            level_zero=tuple(LevelZeroEvidence(block=block) for block in blocks),
            level_pages=(),
            signed_root=None,
        )

        def verdict(key_maps):
            try:
                return verify_get_proof(KeyRegistry(), None, EDGE, key, proof, key_maps=key_maps)
            except ProofVerificationError as exc:
                return str(exc)

        fresh, reused = verdict(None), verdict(earlier)
        assert reused == fresh
        assert all(getattr(block, "_records_cache", None) is None for block in blocks)
        if isinstance(fresh, str):
            return
        assert list(reused.key_maps) == list(fresh.key_maps) == [id(b) for b in blocks]
        for block in blocks:
            mapped_block, mapped = reused.key_maps[id(block)]
            assert mapped_block is block and fresh.key_maps[id(block)][0] is block
            if id(block) in earlier:
                assert mapped is earlier[id(block)][1]  # answered from it
            assert mapped == fresh.key_maps[id(block)][1]


class TestEncodingProperties:
    scalar = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.text(max_size=30),
        st.binary(max_size=30),
    )
    tree = st.recursive(
        scalar,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=20,
    )

    @settings(max_examples=100, deadline=None)
    @given(tree)
    def test_encoding_is_deterministic(self, value):
        assert canonical_encode(value) == canonical_encode(value)

    @settings(max_examples=100, deadline=None)
    @given(tree)
    def test_digest_is_stable_and_hex(self, value):
        digest = digest_value(value)
        assert digest == digest_value(value)
        assert len(digest) == 64


class TestBlockDigestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.binary(min_size=0, max_size=60), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=1_000_000),
    )
    def test_digest_depends_on_every_entry(self, payloads, block_id):
        entries = tuple(
            LogEntry(
                body=EntryBody(
                    producer=ALICE, sequence=index, payload=payload, produced_at=0.0
                ),
                signature=None,
            )
            for index, payload in enumerate(payloads)
        )
        block = build_block(EDGE, block_id, entries, created_at=0.0)
        baseline = compute_block_digest(EDGE, block_id, entries)
        assert block.digest() == baseline
        # Tampering with any single entry changes the digest.
        for index in range(len(entries)):
            tampered_entry = LogEntry(
                body=EntryBody(
                    producer=ALICE,
                    sequence=entries[index].sequence,
                    payload=entries[index].payload + b"!",
                    produced_at=0.0,
                ),
                signature=None,
            )
            tampered = entries[:index] + (tampered_entry,) + entries[index + 1 :]
            assert compute_block_digest(EDGE, block_id, tampered) != baseline

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_digest_depends_on_block_id(self, block_id):
        entries = (
            LogEntry(
                body=EntryBody(producer=ALICE, sequence=0, payload=b"x", produced_at=0.0),
                signature=None,
            ),
        )
        assert compute_block_digest(EDGE, block_id, entries) != compute_block_digest(
            EDGE, block_id + 1, entries
        )


class TestSignatureProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=100), st.binary(min_size=0, max_size=100))
    def test_hmac_signatures_bind_to_message(self, message, other):
        registry = KeyRegistry("hmac")
        registry.register(ALICE)
        signature = registry.sign(ALICE, message)
        assert registry.verify(signature, message)
        if other != message:
            assert not registry.verify(signature, other)


class TestCommitTrackerProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["p1", "p2", "fail"]), min_size=0, max_size=12))
    def test_phase_never_regresses(self, events):
        """Whatever order phase events arrive in, the phase never moves backwards
        (FAILED and PHASE_TWO are terminal)."""

        rank = {
            CommitPhase.PENDING: 0,
            CommitPhase.PHASE_ONE: 1,
            CommitPhase.PHASE_TWO: 2,
            CommitPhase.FAILED: 3,
        }
        tracker = CommitTracker()
        op = OperationId(ALICE, 0)
        tracker.register(op, OperationKind.PUT, 0.0)
        previous = tracker.get(op).phase
        terminal = False
        for time, event in enumerate(events, start=1):
            if event == "p1":
                tracker.mark_phase_one(op, float(time))
            elif event == "p2":
                tracker.mark_phase_two(op, float(time))
            else:
                tracker.mark_failed(op, float(time), "injected")
            current = tracker.get(op).phase
            if terminal:
                assert current == previous
            else:
                if previous is CommitPhase.PHASE_TWO:
                    assert current in (CommitPhase.PHASE_TWO,)
                assert rank[current] >= 0  # always a valid phase
            if current in (CommitPhase.FAILED,):
                terminal = True
            previous = current


class TestNewestVersionProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcde"), st.integers(0, 1000)),
            min_size=0,
            max_size=60,
        )
    )
    def test_newest_versions_matches_reference_implementation(self, pairs):
        records = [KVRecord(key=k, sequence=s, value=b"") for k, s in pairs]
        reference: dict[str, int] = {}
        for key, sequence in pairs:
            reference[key] = max(reference.get(key, -1), sequence)
        survivors = {record.key: record.sequence for record in newest_versions(records)}
        assert survivors == reference
