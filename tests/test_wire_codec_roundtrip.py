"""The codec is the wire format: coverage and round-trip byte-identity.

The live transport (:mod:`repro.service`) frames every protocol message
through :func:`repro.storage.codec.encode_record`, so a message class
missing from the storable registry is a crash on its first live send.
These tests pin the contract from both ends:

* every class in :data:`repro.messages.WIRE_MESSAGE_TYPES` (and the
  statement types nested inside them) resolves in the codec registry, and
  so do the wire classes the baselines and the full-data ablation define
  beside their nodes;
* every message actually emitted by representative deployments — the plain
  system with gossip and reads, a replicated sharded fleet, a cross-shard
  transaction, an edge merging pages with the cloud, the two baselines and
  the full-data ablation — survives
  ``encode → decode → encode`` with byte-identical output (the
  property-style sweep over real traffic, not synthetic fixtures);
* the wire *is* the canonical text: ``encode_record`` equals the memo-free
  ``reference_encode`` oracle on that sweep, and every fragment memo the
  strict decoder attaches equals the oracle's encoding of the object it is
  attached to (a memo is only ever a span the decoder accepted as canonical
  for that object — see the trust-model note in ``repro.common.encoding``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import messages as messages_pkg
from repro.baselines.cloud_only import (
    CloudGetResponse,
    CloudOnlySystem,
    CloudReadResponse,
    CloudWriteResponse,
)
from repro.baselines.edge_baseline import (
    CertifiedStateResponse,
    EdgeBaselineSystem,
    FullBlockCertifyRequest,
)
from repro.common.config import (
    LoggingConfig,
    LSMerkleConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.common.encoding import FRAGMENT_ATTR, reference_encode
from repro.core.system import WedgeChainSystem
from repro.log.proofs import CommitPhase
from repro.lsm.page import Page
from repro.messages import WIRE_MESSAGE_TYPES, MergeRequest, MergeResponse
from repro.nodes.variants import FullDataCertifyRequest, FullDataLazyEdgeNode
from repro.sharding.system import ShardedWedgeSystem
from repro.sim.environment import local_environment
from repro.storage.codec import _TYPES, decode_record, encode_record, register_storable
from repro.workloads.generator import format_key


def _capture_traffic(system, run):
    """Run *run* with a send hook recording every message on the wire."""

    captured = []

    def hook(src, dst, message):
        captured.append(message)
        return True

    system.env.network.add_send_hook("codec-capture", hook)
    try:
        run()
    finally:
        system.env.network.remove_send_hook("codec-capture")
    return captured


def _plain_system_traffic():
    system = WedgeChainSystem.build(
        num_clients=2,
        env=local_environment(seed=21),
        enable_gossip=True,
    )

    def run():
        client = system.client(0)
        operations = [
            (client, client.put_batch([(format_key(i), b"v%d" % i) for i in range(10)]))
        ]
        assert system.wait_for_all(operations, CommitPhase.PHASE_TWO)
        read = client.get(format_key(3))
        system.wait_for(client, read, CommitPhase.PHASE_TWO)
        # Let gossip rounds fire; a full run() would never return with the
        # periodic gossip timer rescheduling itself.
        system.run_for(2.5)

    return _capture_traffic(system, run)


def _sharded_replicated_traffic():
    config = SystemConfig.paper_default().with_overrides(
        num_edge_nodes=3,
        sharding=ShardingConfig(num_shards=6, replication_factor=3),
        logging=LoggingConfig(block_size=5, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )
    system = ShardedWedgeSystem.build(
        config=config,
        num_clients=2,
        env=local_environment(seed=22),
    )

    def run():
        client = system.clients[0]
        operations = [
            (client, op)
            for index in range(12)
            for op in client.put_batch([(format_key(index), b"r%d" % index)])
        ]
        assert system.wait_for_all(operations, CommitPhase.PHASE_TWO)
        system.clients[1].txn_put(
            [(format_key(100), b"t0"), (format_key(101), b"t1"), (format_key(102), b"t2")]
        )
        system.run_for(3.0)

    return _capture_traffic(system, run)


def _merging_system_traffic():
    """Small thresholds so blocks merge into pages and pages travel."""

    config = SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=5, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )
    system = WedgeChainSystem.build(
        config=config, num_clients=1, env=local_environment(seed=23)
    )

    def run():
        client = system.client(0)
        for start in range(0, 40, 5):
            operation = client.put_batch(
                [(format_key(start + i), b"m%d" % (start + i)) for i in range(5)]
            )
            system.wait_for(client, operation, CommitPhase.PHASE_TWO)
        read = client.get(format_key(7))
        system.wait_for(client, read, CommitPhase.PHASE_TWO)
        system.run_for(1.0)

    return _capture_traffic(system, run)


#: Wire classes defined beside their nodes, outside ``repro.messages``.
BASELINE_MESSAGE_TYPES = (
    CloudWriteResponse,
    CloudReadResponse,
    CloudGetResponse,
    FullBlockCertifyRequest,
    CertifiedStateResponse,
    FullDataCertifyRequest,
)


def _baseline_traffic():
    """The cloud-only and edge baselines, and the full-data lazy ablation."""

    config = SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=5, block_timeout_s=0.02),
    )
    items = [(format_key(i), b"b%d" % i) for i in range(5)]
    traffic = []

    cloud_only = CloudOnlySystem.build(
        config=config, num_clients=1, env=local_environment(seed=24)
    )

    def run_cloud_only():
        client = cloud_only.client()
        put = client.put_batch(items)
        assert cloud_only.wait_for_all([(client, put)], max_time_s=30)
        reads = [client.get(format_key(1)), client.get("missing"), client.read(0)]
        assert cloud_only.wait_for_all([(client, op) for op in reads], max_time_s=30)

    traffic += _capture_traffic(cloud_only, run_cloud_only)
    for build in (
        lambda: EdgeBaselineSystem.build(
            config=config, num_clients=1, env=local_environment(seed=25)
        ),
        lambda: WedgeChainSystem.build(
            config=config,
            num_clients=1,
            env=local_environment(seed=26),
            edge_factory=lambda env, cloud, cfg, name, region: FullDataLazyEdgeNode(
                env=env, cloud=cloud, config=cfg, name=name, region=region
            ),
        ),
    ):
        system = build()

        def run():
            client = system.client()
            put = client.put_batch(items)
            assert system.wait_for_all([(client, put)], CommitPhase.PHASE_TWO)

        traffic += _capture_traffic(system, run)
    return traffic


@pytest.fixture(scope="module")
def wire_traffic():
    return (
        _plain_system_traffic()
        + _sharded_replicated_traffic()
        + _merging_system_traffic()
        + _baseline_traffic()
    )


def _walk(value):
    """Every object reachable from a decoded value, containers included."""

    yield value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from _walk(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _walk(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _walk(item)


def _memo_of(value):
    return getattr(value, "__dict__", {}).get(FRAGMENT_ATTR)


def assert_memos_sound(decoded) -> int:
    """Every attached fragment is the oracle's encoding; returns how many."""

    memos = 0
    for node in _walk(decoded):
        memo = _memo_of(node)
        if memo is not None:
            assert memo.encode("ascii") == reference_encode(node), type(node).__name__
            memos += 1
    return memos


class TestRegistryCoverage:
    def test_every_wire_message_class_is_registered(self):
        for cls in WIRE_MESSAGE_TYPES:
            assert _TYPES.get(cls.__name__) is cls, f"{cls.__name__} not registered"

    def test_every_message_module_dataclass_is_registered(self):
        # Statements and nested payload types ride inside the envelopes;
        # they must decode too.
        for module_name in (
            "kv_messages",
            "log_messages",
            "shard_messages",
            "txn_messages",
        ):
            module = getattr(messages_pkg, module_name)
            for obj in vars(module).values():
                if (
                    isinstance(obj, type)
                    and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__
                ):
                    assert _TYPES.get(obj.__name__) is obj, obj.__name__

    def test_star_import_exports_every_message_class(self):
        # ``__all__`` once listed 48 of the 63 imported classes: every
        # replica-group and 2PC message was missing from ``import *``.
        exported = {}
        exec("from repro.messages import *", exported)
        for cls in WIRE_MESSAGE_TYPES:
            assert exported.get(cls.__name__) is cls, cls.__name__
        for name, obj in vars(messages_pkg).items():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                assert exported.get(name) is obj, name
        assert exported["WIRE_MESSAGE_TYPES"] is WIRE_MESSAGE_TYPES

    def test_every_baseline_wire_class_is_registered(self):
        for cls in BASELINE_MESSAGE_TYPES:
            assert _TYPES.get(cls.__name__) is cls, f"{cls.__name__} not registered"

    def test_register_storable_rejects_name_collision(self):
        class Block:  # same name as the registered log Block
            pass

        with pytest.raises(ValueError, match="collision"):
            register_storable(Block)

    def test_register_storable_is_idempotent_for_same_class(self):
        from repro.messages import AppendBatchRequest

        assert register_storable(AppendBatchRequest) is AppendBatchRequest


class TestRoundTripProperty:
    def test_traffic_covers_a_broad_message_surface(self, wire_traffic):
        seen = {type(message).__name__ for message in wire_traffic}
        wire_names = {cls.__name__ for cls in WIRE_MESSAGE_TYPES}
        covered = seen & wire_names
        # The two deployments exercise the log, KV, gossip, sharded, replica,
        # and transaction paths; a shrinking surface means the scenarios (or
        # the protocol) silently stopped sending something.
        assert len(covered) >= 15, sorted(covered)
        assert {cls.__name__ for cls in BASELINE_MESSAGE_TYPES} <= seen

    def test_every_captured_message_roundtrips_byte_identically(self, wire_traffic):
        assert wire_traffic, "scenarios produced no traffic"
        for message in wire_traffic:
            first = encode_record(message)
            rebuilt = decode_record(first)
            assert type(rebuilt) is type(message)
            second = encode_record(rebuilt)
            if any(isinstance(node, Page) for node in _walk(message)):
                # A page is rebuilt under a fresh process-local page_id;
                # test_pages_never_carry_a_slice_memo pins what holds instead.
                continue
            assert first == second, type(message).__name__

    def test_encode_record_is_the_reference_encoding(self, wire_traffic):
        # The frame payload is the canonical text itself: whatever memos the
        # senders left on these messages, the bytes are the oracle's.
        for message in wire_traffic:
            assert encode_record(message) == reference_encode(message)
        # ... and so are the storage envelope shapes around them.
        responses = [m for m in wire_traffic if type(m).__name__ == "AppendBatchResponse"]
        proofs = [m.proof for m in wire_traffic if type(m).__name__ == "BlockProofMessage"]
        envelopes = [
            {"kind": "block", "bid": 3, "data": {"block": r.block, "receipt": r.receipt}}
            for r in responses
            if r.block is not None
        ] + [{"kind": "proof", "bid": p.block_id, "data": p} for p in proofs]
        assert envelopes
        for envelope in envelopes:
            data = encode_record(envelope)
            assert data == reference_encode(envelope)
            assert encode_record(decode_record(data)) == data

    def test_decoded_memos_are_the_reference_encoding(self, wire_traffic):
        # Memo soundness: a fragment the decoder attaches is exactly what
        # the memo-free oracle produces for the object carrying it.
        memos = 0
        for message in wire_traffic:
            rebuilt = decode_record(encode_record({"sender": None, "message": message}))
            memos += assert_memos_sound(rebuilt)
            # Whatever is verified against a signature arrives warm.
            for node in _walk(rebuilt):
                if hasattr(node, "statement") and hasattr(node, "signature"):
                    assert _memo_of(node.statement) is not None, type(node).__name__
        # The units receivers hash arrive warm.
        assert memos > 100

    def test_node_identities_decode_to_one_shared_instance(self, wire_traffic):
        response = next(
            m
            for m in wire_traffic
            if type(m).__name__ == "AppendBatchResponse" and m.block is not None
        )
        rebuilt = decode_record(encode_record(response))
        producers = {id(entry.body.producer) for entry in rebuilt.block.entries}
        assert len(producers) == 1
        again = decode_record(encode_record(response))
        assert again.edge is rebuilt.edge and again.edge == response.edge
        # The table is bounded: a flood of distinct identities is absorbed.
        from repro.common.identifiers import client_id

        flood = tuple(client_id("flood-%d" % index) for index in range(3000))
        assert decode_record(encode_record(flood)) == flood
        assert decode_record(encode_record(response)) == response

    def test_receiver_digests_start_warm(self, wire_traffic):
        response = next(
            m
            for m in wire_traffic
            if type(m).__name__ == "AppendBatchResponse" and m.block is not None
        )
        rebuilt = decode_record(encode_record(response))
        for entry in rebuilt.block.entries:
            assert _memo_of(entry.body) is not None
            assert _memo_of(entry.signature) is not None
            assert _memo_of(entry) is None  # nothing hashes an entry whole
        assert _memo_of(rebuilt.receipt.statement) is not None
        assert _memo_of(rebuilt.block) is None and _memo_of(rebuilt) is None
        assert rebuilt.block.digest() == response.block.digest()

    def test_pages_never_carry_a_slice_memo(self, wire_traffic):
        # A page is rebuilt under a fresh page_id: neither it nor anything
        # above it may keep the sender's text, its digest must not depend on
        # the id, and re-encoding it is still the oracle's encoding.
        carriers = [
            m for m in wire_traffic if any(isinstance(n, Page) for n in _walk(m))
        ]
        assert {MergeRequest, MergeResponse} <= {type(m) for m in carriers}
        pages_seen = 0
        for message in carriers:
            rebuilt = decode_record(encode_record(message))

            def check(node) -> bool:
                """Whether *node* contains a page; such nodes carry no memo."""

                if isinstance(node, Page):
                    assert _memo_of(node) is None
                    return True
                children = ()
                if dataclasses.is_dataclass(node) and not isinstance(node, type):
                    children = [getattr(node, f.name) for f in dataclasses.fields(node)]
                elif isinstance(node, (tuple, dict)):
                    children = node.values() if isinstance(node, dict) else node
                holds_page = any([check(child) for child in children])
                if holds_page:
                    assert _memo_of(node) is None, type(node).__name__
                return holds_page

            assert check(rebuilt)
            sent = [n for n in _walk(message) if isinstance(n, Page)]
            received = [n for n in _walk(rebuilt) if isinstance(n, Page)]
            assert len(sent) == len(received) > 0
            for ours, theirs in zip(sent, received):
                assert theirs.page_id != ours.page_id
                assert theirs.digest() == ours.digest()
                assert encode_record(theirs) == reference_encode(theirs)
                pages_seen += 1
            assert encode_record(rebuilt) == reference_encode(rebuilt)
            assert_memos_sound(rebuilt)
        assert pages_seen

    def test_decoded_enum_fields_are_real_enums(self):
        from repro.common.identifiers import (
            NodeRole,
            OperationId,
            OperationKind,
            client_id,
        )
        from repro.crypto.signatures import KeyRegistry
        from repro.log.entry import make_entry
        from repro.messages import AppendBatchRequest

        client = client_id("roundtrip-client")
        registry = KeyRegistry("hmac")
        registry.register(client)
        message = AppendBatchRequest(
            requester=client,
            operation_id=OperationId(client=client, sequence=5),
            kind=OperationKind.PUT,
            entries=(make_entry(registry, client, 0, b"value", 0.5),),
            shard_id=0,
        )
        rebuilt = decode_record(encode_record(message))
        assert rebuilt.kind is OperationKind.PUT
        assert rebuilt.requester.role is NodeRole.CLIENT
        assert rebuilt == message
