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
import random
import struct

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
from repro.common.encoding import reference_encode
from repro.common.errors import StorageCorruptionError
from repro.common.identifiers import OperationId, client_id, cloud_id, edge_id
from repro.crypto.signatures import KeyRegistry
from repro.log.block import build_block
from repro.log.entry import make_entry
from repro.log.proofs import issue_block_proof, issue_phase_one_receipt
from repro.lsm.page import build_page
from repro.lsm.records import KVRecord
from repro.messages import AppendBatchResponse
from repro.messages.log_messages import CertifyStatement
from repro.nodes.variants import FullDataCertifyRequest
from repro.service import FrameError, encode_frame, read_frame
from repro.service.framing import decode_payload
from repro.service.transport import AsyncioTransport
from repro.storage.codec import decode_record, encode_record
from test_wire_codec_roundtrip import assert_memos_sound

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


#: Canonical payloads the corpus mutates: a wire message, a storage
#: envelope around plain values, the frame envelope, and the baselines'
#: wire classes.
def _bases() -> list[bytes]:
    response = _response()
    return [
        encode_record(response),
        encode_record({"kind": "proof", "bid": 4, "data": {"a": (1, 2.5, None, True), "b": b"\x00\xff"}}),
        encode_frame(EDGE, response)[4:],
        encode_record(_baseline_messages()),
    ]


def expect_refused_or_exact(data: bytes) -> bool:
    """The invariant; returns whether *data* was accepted."""

    try:
        value = decode_record(data)
    except StorageCorruptionError:
        with pytest.raises(FrameError):
            decode_payload(data)
        return False
    # Accepted: then these bytes are the canonical encoding of the value
    # (no page in this corpus, so the equality is exact), and so is every
    # memo hanging off it.
    assert reference_encode(value) == data
    assert_memos_sound(value)
    return True


def expect_refused(data: bytes) -> None:
    assert not expect_refused_or_exact(data), data[:120]


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
            if sequence == b"1.0":
                # A float where an int is declared is a different value, but
                # it is the canonical text of that value.
                assert expect_refused_or_exact(record % (sequence, b"0.5"))
                continue
            expect_refused(record % (sequence, b"0.5"))
        for written_at in (b"0.50", b"5e-1", b"5E-1", b".5", b"1e22", b"1e+022", b"1E400", b"-0.0e0", b"nan", b"inf"):
            expect_refused(record % (b"1", written_at))
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
        # A record is hashed whole, so it keeps its span — unless a hostile
        # sender nests a page (rebuilt under a fresh id) inside it.
        page = encode_record(build_page([KVRecord("k", 1, b"v", 0.5)], created_at=1.0))
        record = (
            b'{"__type__":"KVRecord","key":' + page + b',"sequence":1,'
            b'"value":{"__bytes__":"00"},"written_at":0.5}'
        )
        decoded = decode_record(record)
        assert "_canonical_fragment" not in decoded.__dict__
        assert_memos_sound(decoded)
        assert encode_record(decoded) == reference_encode(decoded)

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
        async def scenario():
            response = _response()
            good = encode_frame(EDGE, response)
            payload = good[4:].replace(b'"block_id":4', b'"block_id": 4', 1)
            reader = asyncio.StreamReader()
            reader.feed_data(good + struct.pack(">I", len(payload)) + payload)
            reader.feed_eof()
            sender, message = await read_frame(reader)
            assert sender == EDGE and message == response
            with pytest.raises(FrameError, match="undecodable"):
                await read_frame(reader)

        run_async(scenario())

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
