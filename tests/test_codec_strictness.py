"""The decoder accepts canonical text and nothing else.

A fragment memo attached by :func:`repro.storage.codec.decode_record` is a
slice of the bytes it was given, and a receiver hashes that slice instead
of re-encoding the object.  That is only sound if the decoder refuses every
byte string that is not *the* canonical encoding of what it decodes to, so
this file throws the other byte strings at it: the three leniency bugs the
tree-walking decoder had, a structured hostile corpus, and a seeded byte
fuzz.  The only outcomes allowed are the typed error (``FrameError`` and a
dropped connection on the live path) or a value that re-encodes to exactly
the bytes that were decoded — never ``RecursionError``, ``IndexError``, a
hang, or a partially delivered message.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import struct
import typing

import pytest

from repro.baselines.cloud_only import (
    CloudGetResponse,
    CloudReadResponse,
    CloudWriteResponse,
)
from repro.baselines.edge_baseline import (
    CertifiedStateResponse,
    FullBlockCertifyRequest,
)
from repro.common.config import LSMerkleConfig
from repro.common.encoding import FRAGMENT_ATTR, class_layout, reference_encode
from repro.common.errors import StorageCorruptionError
from repro.common.identifiers import OperationId, client_id, cloud_id, edge_id
from repro.crypto.signatures import KeyRegistry
from repro.log.block import Block, build_block
from repro.log.entry import EntryBody, make_entry
from repro.log.proofs import CommitPhase, issue_block_proof, issue_phase_one_receipt
from repro.lsm.page import Page, build_page
from repro.lsm.records import KVRecord
from repro.lsmerkle.codec import encode_put
from repro.lsmerkle.mlsm import GlobalRootStatement, MerkleizedLSM, SignedGlobalRoot
from repro.lsmerkle.read_proof import build_get_proof
from repro.messages import AppendBatchResponse, BlockProofMessage, GetResponse
from repro.messages.kv_messages import GetResponseStatement
from repro.messages.log_messages import CertifyStatement
from repro.nodes.variants import FullDataCertifyRequest
from repro.service import FrameError, FrameReceiver, encode_frame, framing
from repro.service.framing import decode_payload
from repro.service.transport import AsyncioTransport
from repro.storage import codec
from repro.storage.codec import HeldSet, decode_record, encode_record
from test_wire_codec_roundtrip import assert_memos_sound
from tests.conftest import feed_receiver

EDGE = edge_id("strict-edge")
CLIENT = client_id("strict-client")
CLOUD = cloud_id()


def _registry() -> KeyRegistry:
    registry = KeyRegistry("hmac")
    for node in (EDGE, CLIENT, CLOUD):
        registry.register(node)
    return registry


def _response() -> AppendBatchResponse:
    """A small real message: a signed two-entry block and its receipt."""

    registry = _registry()
    entries = [
        make_entry(registry, CLIENT, sequence, b"payload-%d" % sequence, 0.25 + sequence)
        for sequence in range(2)
    ]
    block = build_block(EDGE, 4, entries, created_at=1.5)
    return AppendBatchResponse(
        edge=EDGE,
        operation_id=OperationId(client=CLIENT, sequence=7),
        block_id=4,
        receipt=issue_phase_one_receipt(registry, EDGE, block, issued_at=2.0),
        block=block,
    )


def _baseline_messages() -> list:
    """One of each wire class the baselines and the full-data ablation
    define beside their nodes, around a one-entry block."""

    registry = _registry()
    entry = make_entry(registry, CLIENT, 0, b"baseline", 0.5)
    block = build_block(EDGE, 2, [entry], created_at=1.0)
    digest = block.digest()
    operation = OperationId(client=CLIENT, sequence=3)
    statement = CertifyStatement(
        edge=EDGE, block_id=2, block_digest=digest, num_entries=1
    )
    return [
        CloudWriteResponse(operation_id=operation, block_id=2),
        CloudReadResponse(operation_id=operation, block_id=2, found=True, block=block),
        CloudGetResponse(operation_id=operation, key="k", found=False),
        FullBlockCertifyRequest(edge=EDGE, block=block),
        CertifiedStateResponse(
            proof=issue_block_proof(registry, CLOUD, EDGE, 2, digest, 1.5),
            state_bytes=block.wire_size,
        ),
        FullDataCertifyRequest(
            statement=statement,
            signature=registry.sign(EDGE, statement),
            block=block,
        ),
    ]


def _get_response(
    edge=EDGE, block_ids=(1, 2), signed_root=None, registry=None
) -> GetResponse:
    """A signed get response from *edge* whose proof carries single-put,
    certified level-0 blocks (*block_ids*); one *registry* signs the same
    blocks to the same bytes every time."""

    registry = registry or _registry()
    evidence = []
    for block_id in block_ids:
        entry = make_entry(
            registry, CLIENT, block_id, encode_put("k", b"v%d" % block_id), 0.5
        )
        block = build_block(edge, block_id, [entry], created_at=float(block_id))
        proof = issue_block_proof(
            registry, CLOUD, edge, block_id, block.digest(), float(block_id)
        )
        evidence.append((block, proof))
    index = MerkleizedLSM(config=LSMerkleConfig(), page_capacity=10)
    statement = GetResponseStatement(
        edge=edge,
        operation_id=OperationId(client=CLIENT, sequence=9),
        key="k",
        found=False,
        value_digest=None,
        issued_at=3.0,
    )
    return GetResponse(
        statement=statement,
        signature=registry.sign(edge, statement),
        value=None,
        proof=build_get_proof("k", index, evidence, signed_root, None),
    )


#: Canonical payloads the corpus mutates: a wire message, a storage
#: envelope around plain values, the frame envelope, the baselines' wire
#: classes, and a get response carrying level-0 blocks.
def _bases() -> list[bytes]:
    response = _response()
    return [
        encode_record(response),
        encode_record({"kind": "proof", "bid": 4, "data": {"a": (1, 2.5, None, True), "b": b"\x00\xff"}}),
        encode_frame(EDGE, response)[4:],
        encode_record(_baseline_messages()),
        encode_record(_get_response()),
    ]


def _declared_classes(cls: type) -> set[type]:
    """The classes *cls* declares, at any depth, itself included."""

    found, pending = set(), [cls]
    while pending:
        kind = pending.pop()
        if typing.get_args(kind):
            pending += [arg for arg in typing.get_args(kind) if arg is not Ellipsis]
        elif dataclasses.is_dataclass(kind) and kind not in found:
            found.add(kind)
            pending += typing.get_type_hints(kind, localns=codec._TYPES).values()
    return found


def _with_field(value, name: str, replacement) -> bytes:
    """The canonical text of *value* with field *name*'s text swapped for
    the canonical text of *replacement* (what a hostile sender can send)."""

    _, names, literals = class_layout(type(value))
    parts = [literals[0]]
    for field, literal in zip(names, literals[1:]):
        parts.append(reference_encode(replacement if field == name else getattr(value, field)).decode())
        parts.append(literal)
    return "".join(parts).encode()


def expect_refused_or_exact(data: bytes, held=None) -> bool:
    """The invariant, decoding with *held*; returns whether *data* was
    accepted."""

    try:
        value = decode_record(data, held)
    except StorageCorruptionError:
        with pytest.raises(FrameError):
            decode_payload(data, held)
        return False
    # Accepted: then these bytes are the canonical encoding of the value
    # (no page in this corpus, so the equality is exact), and so is every
    # memo hanging off it.
    assert reference_encode(value) == data
    assert_memos_sound(value)
    return True


def expect_refused(data: bytes, held=None) -> None:
    assert not expect_refused_or_exact(data, held), data[:120]


# ----------------------------------------------------------------------
# The three leniency bugs of the tree-walking decoder
# ----------------------------------------------------------------------
class TestLeniencyRegressions:
    def test_hex_is_lower_case_without_whitespace(self):
        # bytes.fromhex takes upper case and embedded whitespace: three
        # byte strings used to decode to b"\xab\xcd".
        assert decode_record(b'{"__bytes__":"abcd"}') == b"\xab\xcd"
        for lenient in (b'{"__bytes__":"AB cd"}', b'{"__bytes__":"ABCD"}', b'{"__bytes__":"ab cd"}'):
            expect_refused(lenient)

    def test_whitespace_and_extra_keys_are_refused(self):
        # Used to decode with "x" silently dropped.
        expect_refused(b' { "__bytes__" : "abcd" , "x": 1 } ')
        expect_refused(b'{"__bytes__":"abcd","x":1}')
        expect_refused(b'{"__bytes__": "abcd"}')

    def test_a_tagged_form_owns_its_object(self):
        # Used to decode as bytes, the type tag ignored.
        expect_refused(b'{"__bytes__":"abcd","__type__":"NodeId"}')
        expect_refused(b'{"__bytes__":"abcd","__enum__":"NodeRole"}')
        # Reserved keys cannot hide further along a plain mapping either.
        expect_refused(b'{"a":1,"__type__":"NodeId"}')
        expect_refused(b'{"__type__":5}')


# ----------------------------------------------------------------------
# Structured hostile corpus
# ----------------------------------------------------------------------
class TestHostileCorpus:
    def test_the_bases_are_accepted(self):
        for data in _bases():
            assert expect_refused_or_exact(data)

    def test_the_baseline_wire_classes_decode_to_themselves(self):
        for message in _baseline_messages():
            data = encode_record(message)
            assert decode_record(data) == message
            assert expect_refused_or_exact(data)
            # A renamed first field is refused, not ignored or defaulted.
            head = b'{"__type__":"%s","' % type(message).__name__.encode()
            assert data.startswith(head)
            expect_refused(data.replace(b'","', b'","x', 1))

    def test_whitespace_anywhere_structural(self):
        for data in _bases():
            for index, byte in enumerate(data):
                if byte in b'{}[],:':
                    for blank in (b" ", b"\n", b"\t"):
                        expect_refused(data[: index + 1] + blank + data[index + 1 :])
                        expect_refused(data[:index] + blank + data[index:])

    def test_truncation_at_every_position(self):
        for data in _bases():
            for cut in range(len(data)):
                expect_refused(data[:cut])

    def test_trailing_bytes(self):
        for data in _bases():
            for tail in (b" ", b"\n", b"}", b"\x00", b"null", data):
                expect_refused(data + tail)

    def test_key_order_duplicates_missing_and_extra(self):
        node = b'{"__type__":"NodeId","name":"n","role":"edge"}'
        assert expect_refused_or_exact(node)
        for hostile in (
            b'{"__type__":"NodeId","role":"edge","name":"n"}',  # reordered
            b'{"name":"n","__type__":"NodeId","role":"edge"}',  # tag not first
            b'{"__type__":"NodeId","name":"n","name":"n","role":"edge"}',  # duplicate
            b'{"__type__":"NodeId","__type__":"NodeId","name":"n","role":"edge"}',
            b'{"__type__":"NodeId","name":"n"}',  # missing
            b'{"__type__":"NodeId","role":"edge"}',
            b'{"__type__":"NodeId"}',
            b'{"__type__":"NodeId","name":"n","role":"edge","zone":1}',  # extra
            b'{"__type__":"NodeId","extra":1,"name":"n","role":"edge"}',
            b'{"__type__":"NodeId","name":"n","role":"edge",}',
            b'{"__type__":"NodeId","name":"n","role":"warden"}',  # not a role
        ):
            expect_refused(hostile)
        # A default does not stand in for a field the text leaves out.
        record = encode_record(KVRecord(key="k", sequence=1, value=b"v"))
        assert b',"written_at":0.0}' in record
        expect_refused(record.replace(b',"written_at":0.0', b""))
        # Plain mappings: ascending, unique.
        assert expect_refused_or_exact(b'{"a":1,"b":2}')
        for hostile in (b'{"b":2,"a":1}', b'{"a":1,"a":1}', b'{"a":1,"a":2}', b'{"a":1,}', b'{1:2}'):
            expect_refused(hostile)

    def test_escapes_have_one_spelling(self):
        assert expect_refused_or_exact(b'{"__type__":"NodeId","name":"A\\u00e9\\n\\"","role":"edge"}')
        for hostile in (
            b'{"__type__":"NodeId","name":"\\u0041","role":"edge"}',  # plain A
            b'{"__type__":"NodeId","name":"\\u00E9","role":"edge"}',  # upper-case hex digits
            b'{"__type__":"NodeId","name":"\\/","role":"edge"}',
            b'{"__type__":"NodeId","name":"\\u000a","role":"edge"}',  # \n has a short form
            b'{"__type__":"NodeId","name":"\x7f","role":"edge"}',  # raw DEL
            b'{"__type__":"NodeId","name":"\xc3\xa9","role":"edge"}',  # raw UTF-8
            b'{"__type__":"NodeId","name":"a\tb","role":"edge"}',  # raw control
            b'{"__type__":"NodeI\\u0064","name":"n","role":"edge"}',  # escaped class name
            b'{"__type__":"NodeId","\\u006eame":"n","role":"edge"}',  # escaped key
        ):
            expect_refused(hostile)

    def test_numbers_have_one_spelling(self):
        record = b'{"__type__":"KVRecord","key":"k","sequence":%s,"value":{"__bytes__":"00"},"written_at":%s}'
        assert expect_refused_or_exact(record % (b"12", b"0.5"))
        assert expect_refused_or_exact(record % (b"-3", b"1e-07"))
        assert expect_refused_or_exact(record % (b"0", b"1e+22"))
        for sequence in (b"1.0", b"1e0", b"-0", b"012", b"+1", b"1.", b"0x1", b"1_0", b" 1", b"--1", b"-"):
            expect_refused(record % (sequence, b"0.5"))
        for written_at in (b"0.50", b"5e-1", b"5E-1", b".5", b"1e22", b"1e+022", b"1E400", b"-0.0e0", b"nan", b"inf"):
            expect_refused(record % (b"1", written_at))

    def test_a_number_field_takes_only_its_declared_kind(self):
        """Canonical text of a value of another kind is refused: a float or
        a boolean where an int is declared, an int where a float is."""

        record = b'{"__type__":"KVRecord","key":"k","sequence":%s,"value":{"__bytes__":"00"},"written_at":%s}'
        for sequence, written_at in (
            (b"5.5", b"0.5"),
            (b"1.0", b"0.5"),
            (b"true", b"0.5"),
            (b"false", b"0.5"),
            (b"1", b"1"),
            (b"1", b"true"),
        ):
            with pytest.raises(StorageCorruptionError, match="KVRecord field"):
                decode_record(record % (sequence, written_at))
        assert decode_record(record % (b"1", b"1.0")).written_at == 1.0
        assert decode_record(record % (b"1", b"Infinity")).written_at == float("inf")
        # The untyped reader still takes any number or boolean.
        assert decode_record(b"[1,1.0,true]") == (1, 1.0, True)
        expect_refused(record % (b"9" * 5000, b"0.5"))  # past the int parse limit

    def test_unknown_class_and_enum_names(self):
        for hostile in (
            b'{"__type__":"NoSuchClass"}',
            b'{"__type__":"KeyRegistry"}',  # a real class, not a storable one
            b'{"__type__":""}',
            b'{"__type__":"NodeId',
            b'{"__enum__":"NoSuchEnum","value":"edge"}',
            b'{"__enum__":"NodeRole","value":"warden"}',
            # The one registered enum is a str mixin: its canonical text is
            # the plain string, so the tagged form is never canonical.
            b'{"__enum__":"NodeRole","value":"edge"}',
        ):
            expect_refused(hostile)
        # Refused by the name check itself, not by what a missing class
        # would break further on; no enum is ever tagged, so the tag is a
        # key no plain mapping may carry.
        with pytest.raises(StorageCorruptionError, match="unknown type 'NoSuchClass'"):
            decode_record(b'{"__type__":"NoSuchClass"}')
        with pytest.raises(StorageCorruptionError, match="misplaced mapping key '__enum__'"):
            decode_record(b'{"__enum__":"NoSuchEnum","value":"edge"}')

    def test_a_plain_string_has_one_spelling_too(self):
        assert decode_record(b'{"a":"A\\n"}') == {"a": "A\n"}
        for hostile in (b'{"a":"\\u0041"}', b'{"\\u0061":1}', b'["\\/"]'):
            expect_refused(hostile)

    def test_the_registry_refuses_what_it_could_not_decode(self):
        shadow = dataclasses.make_dataclass("NodeId", [("name", str)], frozen=True)
        with pytest.raises(ValueError, match="name collision"):
            codec.register_storable(shadow)
        # "A" sorts before "__type__", so the tag would not come first.
        early = dataclasses.make_dataclass("EarlyField", [("A", int)], frozen=True)
        with pytest.raises(ValueError, match="sorting before '__type__'"):
            codec.register_storable(early)
        assert "EarlyField" not in codec._TYPES

    def test_every_registered_class_is_typed(self):
        # The annotations are the schema: each resolves (GetResponse's
        # lease names a class it imports only for type checking) and each
        # class gets a decoder.
        assert "GetResponse" in codec._TYPES
        for cls in codec._TYPES.values():
            hints = typing.get_type_hints(cls, localns=codec._TYPES)
            assert set(hints) >= {field.name for field in dataclasses.fields(cls)}
            assert callable(codec._decoder_of(cls))
        hidden = dataclasses.make_dataclass("Hidden", [("x", "NoSuchClass")], frozen=True)
        with pytest.raises(ValueError, match="unresolvable annotation"):
            codec.register_storable(hidden)
        assert "Hidden" not in codec._TYPES

    def test_a_kind_without_a_decoder_is_refused(self):
        for kind, match in (
            (dict, "no decoder for the declared kind"),
            (typing.Union[KVRecord, int], "no decoder for the declared kind"),
            (CommitPhase, "only a str-mixin enum"),
        ):
            cls = dataclasses.make_dataclass("Untyped", [("x", kind)], frozen=True)
            with pytest.raises(TypeError, match=match):
                codec._compile_decoder(cls)

    def test_a_field_holds_only_its_declared_kind(self):
        response = _response()
        block = response.block
        get = _get_response()
        page = build_page([KVRecord("k", 1, b"v", 0.5)], created_at=1.0)
        body = block.entries[0].body
        for hostile, field in (
            (_with_field(body, "payload", page), "EntryBody field payload"),
            (_with_field(get, "proof", block), "GetResponse field proof"),
            (_with_field(response, "block", response.receipt), "AppendBatchResponse field block"),
            (_with_field(BlockProofMessage(proof=get.proof.level_zero[0].proof), "proof", response.receipt), "BlockProofMessage field proof"),
            (_with_field(block, "entries", (KVRecord("k", 1, b"v"),)), "Block field entries"),
            (_with_field(EDGE, "name", 5), "NodeId field name"),
            (_with_field(block, "block_id", "4"), "Block field block_id"),
        ):
            with pytest.raises(StorageCorruptionError, match=field):
                decode_record(hostile)
            expect_refused(hostile)

    def test_the_hostile_level_zero_block_is_a_frame_error(self):
        # A Phase I level-0 block whose entry payload is a page used to
        # decode and then crash the verifier outside its typed refusal.
        get = _get_response()
        evidence = get.proof.level_zero[0]
        entry = evidence.block.entries[0]
        page = build_page([KVRecord("k", 1, b"v", 0.5)], created_at=1.0)
        honest = encode_record({"sender": EDGE, "message": get})
        swapped = honest.replace(
            encode_record(entry.body), _with_field(entry.body, "payload", page), 1
        ).replace(encode_record(evidence.proof), b"null", 1)
        assert swapped != honest
        with pytest.raises(FrameError, match="EntryBody field payload"):
            decode_payload(swapped)

    def test_a_frame_sender_is_a_node_id(self):
        payload = encode_record({"sender": "strict-edge", "message": _response()})
        with pytest.raises(FrameError, match="sender is not a NodeId"):
            decode_payload(payload)
        assert decode_payload(encode_frame(EDGE, _response())[4:])[0] == EDGE

    @pytest.mark.parametrize(
        "envelope",
        [
            [EDGE, "message"],
            {"sender": EDGE, "message": "m", "route": "elsewhere"},
            {"sender": EDGE},
        ],
        ids=["list", "extra-key", "missing-key"],
    )
    def test_a_frame_envelope_is_exactly_sender_and_message(self, envelope):
        with pytest.raises(FrameError, match="malformed frame envelope"):
            decode_payload(encode_record(envelope))

    def test_an_over_cap_frame_is_refused_at_encode(self, monkeypatch):
        response = _response()
        frame = encode_frame(EDGE, response)
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", len(frame) - 5)
        with pytest.raises(FrameError, match="exceeds cap"):
            encode_frame(EDGE, response)
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", len(frame) - 4)
        assert encode_frame(EDGE, response) == frame

    def test_nesting_bombs_are_typed_errors(self):
        depth = 200_000
        for bomb in (
            b"[" * depth,
            b"[" * depth + b"]" * depth,
            b'{"a":' * depth,
            b'{"a":' * depth + b"1" + b"}" * depth,
            b'{"__type__":"LogEntry","body":' * depth,
            b'{"__type__":"OperationId","client":' * depth,
        ):
            expect_refused(bomb)

    def test_a_memo_never_spans_a_page(self):
        # A page is rebuilt under a fresh id, so a span around one is not
        # the encoding of what was decoded.  A record keeps its span, and a
        # hostile sender nesting a page inside it is refused...
        page = encode_record(build_page([KVRecord("k", 1, b"v", 0.5)], created_at=1.0))
        record = (
            b'{"__type__":"KVRecord","key":' + page + b',"sequence":1,'
            b'"value":{"__bytes__":"00"},"written_at":0.5}'
        )
        with pytest.raises(StorageCorruptionError, match="KVRecord field key"):
            decode_record(record)
        # ...as it is wherever a page is not declared, and no class that
        # keeps its span declares one at any depth.
        keepers = [cls for cls in codec._TYPES.values() if codec._keeps_span(cls)]
        assert EntryBody in keepers and GetResponseStatement in keepers
        for cls in keepers:
            assert Page not in _declared_classes(cls), cls

    def test_seeded_byte_fuzz(self):
        rng = random.Random(20260927)
        alphabet = b'{}[],:"\\ 01aAeE.-+_tnuf\n\x00\x7f\xff'
        accepted = 0
        for data in _bases():
            for _ in range(1500):
                mutated = bytearray(data)
                for _ in range(rng.choice((1, 1, 1, 2, 3))):
                    at = rng.randrange(len(mutated))
                    action = rng.random()
                    if action < 0.5:
                        mutated[at] = rng.choice(alphabet)
                    elif action < 0.75:
                        del mutated[at]
                    else:
                        mutated.insert(at, rng.choice(alphabet))
                accepted += expect_refused_or_exact(bytes(mutated))
        # Mutations inside a string or a hex run yield other canonical
        # texts; the corpus must exercise the accepting side too.
        assert accepted > 50


# ----------------------------------------------------------------------
# The held set: a receiver gets back its own objects, byte-identical only
# ----------------------------------------------------------------------
OTHER_EDGE = edge_id("strict-edge-b")
SIGNERS = _registry()
SIGNERS.register(OTHER_EDGE)


def _get(edge=EDGE, block_ids=(1, 2), signed_root=None) -> bytes:
    """The frame of a get response whose blocks recur byte for byte."""

    get = _get_response(edge, block_ids, signed_root, registry=SIGNERS)
    return encode_record({"sender": edge, "message": get})


def _signed_root(edge) -> SignedGlobalRoot:
    statement = GlobalRootStatement(
        edge=edge, level_roots=("00",), global_root="00", version=1, timestamp=4.0
    )
    return SignedGlobalRoot(statement=statement, signature=SIGNERS.sign(CLOUD, statement))


def _swaps(data: bytes, begin: int, end: int):
    """*data* with one byte in ``[begin, end)`` swapped, every way that can
    keep the text canonical (a digit or a hex digit) and one that cannot."""

    for at in range(begin, end):
        byte = data[at : at + 1]
        for swap in {b"0": (b"1", b"A"), b"1": (b"0",)}.get(byte, (b"0", b" ")):
            yield data[:at] + swap + data[at + 1 :]


class TestLevelZeroBlocks:
    """A client holds the level-0 blocks of its latest verified get per edge
    under ``("get", edge)``: a repeat get reuses only byte-identical
    blocks, through the one lookup every held object takes."""

    @pytest.fixture(autouse=True)
    def held_set(self):
        self.held = HeldSet()

    def receive(self, data: bytes):
        """Decode a get response, then hold its level-0 blocks as a client
        does once the proof verifies."""

        response = decode_record(data, self.held)["message"]
        blocks = [item.block for item in response.proof.level_zero]
        self.held.hold(("get", response.statement.edge), blocks)
        return response.proof

    def is_held(self, block) -> bool:
        return any(block is held for held in self.held.objects())

    def test_a_repeat_decode_returns_the_identical_object(self):
        data = _get()
        first = self.receive(data)
        blocks = [item.block for item in first.level_zero]
        digests = [block.digest() for block in blocks]
        second = self.receive(data)
        index = dict(self.held._index[Block])
        assert len(index) == 2
        assert second is not first
        assert all(a.block is b for a, b in zip(second.level_zero, blocks, strict=True))
        # The reused block keeps the digest its receiver computed.
        assert [item.block._digest_cache for item in second.level_zero] == digests
        assert self.held.objects() == blocks
        # Holding the same blocks again keeps their index entries: the spans
        # are not built a second time.
        self.receive(data)
        assert all(self.held._index[Block][header] is kept for header, kept in index.items())
        # A decode without the set reuses nothing.
        third = decode_record(data)["message"].proof
        assert not any(item.block is block for item, block in zip(third.level_zero, blocks))

    def test_a_changed_entry_byte_behind_a_held_header_decodes_strictly(self):
        honest = _get()
        held = self.receive(honest).level_zero[0].block
        span = encode_record(held)
        start = honest.index(span)
        entries = start + span.index(b',"entries":[') + len(b',"entries":[')
        rebuilt = 0
        for data in _swaps(honest, entries, start + len(span)):
            if not expect_refused_or_exact(data, self.held):
                continue
            # Same header, other bytes: built afresh, never the held block.
            block = decode_record(data, self.held)["message"].proof.level_zero[0].block
            assert block is not held and block != held
            assert block.digest() != held.digest()
            rebuilt += 1
        assert rebuilt > 10
        # Decoding holds nothing; only a verified get replaces the hold.
        assert self.held.objects()[0] is held
        assert self.receive(honest).level_zero[0].block is held

    def test_non_canonical_variants_of_a_held_block_are_refused(self):
        honest = _get()
        held = self.receive(honest).level_zero[0].block
        span = encode_record(held)
        start = honest.index(span)
        end = start + len(span)
        variants = [
            honest[:end] + b" " + honest[end:],  # whitespace behind the span
            honest[:end - 1] + b" " + honest[end - 1 :],  # ... inside its last brace
            honest.replace(b'"block_id":1,', b'"block_id": 1,', 1),  # in the header
            honest.replace(b'"block_id":1,', b'"block_id":01,', 1),
            honest[: end - 1] + b',"x":1' + honest[end - 1 :],  # an extra key
            honest[:start] + span[:-1] + honest[end:],  # a cut brace
            honest[:start] + span.replace(b'"entries":[', b'"entries": [', 1) + honest[end:],
        ]
        for data in variants:
            assert data != honest
            expect_refused(data, self.held)
        assert self.held.objects()[0] is held

    def test_a_block_that_carries_a_page_is_never_held(self):
        get = _get_response(registry=SIGNERS)
        honest = _get()
        entry = get.proof.level_zero[0].block.entries[0]
        page = build_page([KVRecord("k", 1, b"v", 0.5)], created_at=1.0)
        hostile = honest.replace(
            encode_record(entry.body), _with_field(entry.body, "payload", page), 1
        )
        # Cold and behind the honest block's header alike, it is refused.
        with pytest.raises(FrameError, match="EntryBody field payload"):
            decode_payload(hostile, self.held)
        assert self.held.objects() == []
        held = self.receive(honest).level_zero[0].block
        with pytest.raises(FrameError, match="EntryBody field payload"):
            decode_payload(hostile, self.held)
        assert self.held.objects()[0] is held and len(self.held.objects()) == 2

    def test_retention_is_per_edge(self):
        a_first = self.receive(_get(EDGE, (1, 2)))
        b_first = self.receive(_get(OTHER_EDGE, (1, 2)))
        assert len(self.held.objects()) == 4
        # Block 1 left level 0 of EDGE: dropped; OTHER_EDGE keeps its own.
        a_next = self.receive(_get(EDGE, (2, 3)))
        assert a_next.level_zero[0].block is a_first.level_zero[1].block
        assert not self.is_held(a_first.level_zero[0].block)
        dropped = decode_record(_get(EDGE, (1,)), self.held)["message"].proof
        assert dropped.level_zero[0].block is not a_first.level_zero[0].block
        assert all(self.is_held(item.block) for item in b_first.level_zero)
        assert all(self.is_held(item.block) for item in a_next.level_zero)
        assert len(self.held.objects()) == 4
        # A proof with no level 0 empties its edge's hold, whatever its
        # root names: the key is the edge the get was sent to.
        self.receive(_get(EDGE, (), signed_root=_signed_root(OTHER_EDGE)))
        assert self.held.objects() == [item.block for item in b_first.level_zero]

    def test_a_held_header_in_an_append_echo_decodes_strictly(self):
        held = self.receive(_get(EDGE, (1,))).level_zero[0].block
        entries = [
            make_entry(SIGNERS, CLIENT, sequence, b"other-%d" % sequence, 0.5)
            for sequence in range(2)
        ]
        # The same block id, creation time and edge, other entries.
        block = build_block(EDGE, 1, entries, created_at=held.created_at)
        response = AppendBatchResponse(
            edge=EDGE,
            operation_id=OperationId(client=CLIENT, sequence=1),
            block_id=1,
            receipt=issue_phase_one_receipt(SIGNERS, EDGE, block, 1.5),
            block=block,
        )
        data = encode_record({"sender": EDGE, "message": response})
        assert encode_record(held).split(b',"entries":[')[0] in data
        assert expect_refused_or_exact(data, self.held)
        echo = decode_record(data, self.held)["message"]
        assert echo.block is not held and echo.block == block
        assert echo.receipt.matches_block(echo.block)
        assert self.held.objects() == [held]


class TestHeldObjects:
    """An entry or a record a receiver holds comes back as that object
    where its whole canonical text recurs, and only there."""

    @staticmethod
    def echo() -> tuple:
        """The entries of an append and the frame of its echo."""

        response = _response()
        return response.block.entries, encode_record({"sender": EDGE, "message": response})

    def test_an_echoed_entry_is_the_held_entry(self):
        held = HeldSet()
        entries, data = self.echo()
        held.hold("append", entries)
        echo = decode_record(data, held)["message"]
        assert all(a is b for a, b in zip(echo.block.entries, entries, strict=True))
        assert echo.receipt.matches_block(echo.block)
        # Without the set, or once released, the echo decodes strictly.
        for other in (None, HeldSet()):
            fresh = decode_record(data, other)["message"].block.entries
            assert fresh == entries and not any(a is b for a, b in zip(fresh, entries))
        held.release("append")
        assert held.objects() == []
        fresh = decode_record(data, held)["message"].block.entries
        assert not any(a is b for a, b in zip(fresh, entries))

    def test_one_byte_swapped_behind_a_held_header_decodes_strictly(self):
        entries, honest = self.echo()
        span = encode_record(entries[0])
        start = honest.index(span)
        header_end = start + span.index(b',"produced_at":')
        rebuilt = 0
        for data in _swaps(honest, header_end, start + len(span)):
            held = HeldSet()
            held.hold("append", entries)
            if not expect_refused_or_exact(data, held):
                continue
            entry = decode_record(data, held)["message"].block.entries[0]
            assert entry is not entries[0] and entry != entries[0]
            rebuilt += 1
        assert rebuilt > 10

    def test_a_changed_value_under_a_held_key_header_decodes_strictly(self):
        record = KVRecord("k", 5, b"v", 0.5)
        other = KVRecord("k", 5, b"w", 0.5)
        held = HeldSet()
        held.hold("merge", (record,))
        page = build_page([other], created_at=1.0)
        decoded = decode_record(encode_record(page), held).records[0]
        assert decoded == other and decoded is not other
        assert decode_record(encode_record(record), held) is record
        # A second held object under one header is not indexed: the first
        # answers for it, and its own text decodes strictly.
        held.hold("merge", (record, other))
        assert decode_record(encode_record(other), held) is not other
        assert decode_record(encode_record(record), held) is record

    def test_sets_of_two_receivers_share_nothing(self):
        mine, theirs = HeldSet(), HeldSet()
        entries, data = self.echo()
        mine.hold("append", entries)
        assert not any(
            a is b
            for a, b in zip(decode_record(data, theirs)["message"].block.entries, entries)
        )
        get = _get()
        blocks = [item.block for item in decode_record(get, mine)["message"].proof.level_zero]
        mine.hold(("get", EDGE), blocks)
        again = decode_record(get, theirs)["message"].proof.level_zero
        assert not any(item.block is block for item, block in zip(again, blocks))
        assert theirs.objects() == [] and len(mine.objects()) == 4

    def test_holding_encodes_nothing_until_a_lookup_and_memoises_nothing(self):
        records = tuple(KVRecord(f"k{index}", index, b"v", 0.5) for index in range(3))
        held = HeldSet()
        held.hold("merge", records)
        assert held._index == {} and held.objects() == list(records)
        page = build_page(records, created_at=1.0)
        decoded = decode_record(encode_record(page), held).records
        assert all(a is b for a, b in zip(decoded, records, strict=True))
        assert all(getattr(record, FRAGMENT_ATTR, None) is None for record in records)
        held.release("merge")
        assert held._index == {KVRecord: {}} and held._indexed == {}


# ----------------------------------------------------------------------
# The live path: a typed error, a dropped connection, nothing delivered
# ----------------------------------------------------------------------
def run_async(coroutine):
    async def capped():
        return await asyncio.wait_for(coroutine, timeout=30.0)

    return asyncio.run(capped())


class _Endpoint:
    def __init__(self) -> None:
        self.node_id = EDGE
        self.region = None
        self.delivered: list = []

    def deliver(self, sender, message) -> None:
        self.delivered.append((sender, message))


class TestLivePath:
    def test_a_non_canonical_frame_is_a_frame_error(self):
        response = _response()
        good = encode_frame(EDGE, response)
        payload = good[4:].replace(b'"block_id":4', b'"block_id": 4', 1)
        delivered = []
        receiver = FrameReceiver(lambda *frame: delivered.append(frame))
        feed_receiver(receiver, good + struct.pack(">I", len(payload)) + payload)
        [(sender, message)] = delivered
        assert sender == EDGE and message == response
        with pytest.raises(FrameError, match="undecodable"):
            raise receiver.error

    def test_a_hostile_frame_drops_the_connection_and_delivers_nothing(self):
        async def scenario():
            endpoint = _Endpoint()
            transport = AsyncioTransport()
            transport.register(endpoint)
            await transport.start()
            try:
                good = encode_frame(CLIENT, _response())
                hostile = good[4:].replace(b'"role":"edge"', b'"role":"Edge"', 1)
                reader, writer = await asyncio.open_unix_connection(
                    path=transport.address_of(EDGE)
                )
                writer.write(good + struct.pack(">I", len(hostile)) + hostile + good)
                await writer.drain()
                # The server closes on the hostile frame: EOF, and the good
                # frame queued behind it is never read.
                assert await reader.read() == b""
                assert [sender for sender, _ in endpoint.delivered] == [CLIENT]
                writer.close()
            finally:
                await transport.stop()

        run_async(scenario())
