"""Seeded micro-benchmarks with percentile reporting, one row per hot path.

One harness (:func:`_time_repeats`: ops/s plus p50/p90/p99 of the
per-repeat wall times, the seeded-percentile shape of faas-offloading-sim)
serves two kinds of row.  *Function rows* time library calls on inputs
built from the seed.  *Real-node rows* (``certify_per_block``,
``cert_pipeline_*``, ``shard_handoff``, ``txn_cross_shard``,
``replica_read``, ``obs_overhead``) time a protocol exchange on the nodes a
fleet runs: fleets are built and preloaded on ``local_environment`` as
set-up, one per repeat, and the timed region is the row's ``drive(fleet)``
plus the fleet's event loop up to the protocol outcome, which must be
reached.  No row signs, verifies or routes anything itself, so a change to
the node code a row is named for moves that row.  Two rows run on real
sockets: ``frame_transfer`` (one hop of the asyncio transport) and
``live_put_p99`` (an asyncio fleet under open-loop load).

Results are written as ``BENCH_hotpath.json``, whose git history is the
trajectory ``benchmarks/check_perf_regression.py`` gates against.  Run via
``python benchmarks/perf_baseline.py --mode quick`` or :func:`run_perf_suite`.
"""

from __future__ import annotations

import itertools
import os
import platform
import random
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

from ..common.config import (
    LoggingConfig,
    LSMerkleConfig,
    ObservabilityConfig,
    ShardingConfig,
    StorageConfig,
    SystemConfig,
)
from ..common.encoding import encoded_size
from ..common.identifiers import client_id, cloud_id, edge_id
from ..core.gossip import GossipView, build_gossip, build_gossip_batch, verify_gossip
from ..core.system import WedgeChainSystem
from ..crypto.signatures import KeyRegistry, Signature
from ..log.block import build_block, compute_block_digest
from ..log.entry import EntryBody, LogEntry, make_entry
from ..log.proofs import CommitPhase, issue_block_proof, issue_phase_one_receipt
from ..lsm.compaction import merge_levels, newest_versions, partition_into_pages
from ..lsm.lsm_tree import LSMTree
from ..lsm.page import build_page
from ..lsm.records import KVRecord
from ..lsmerkle.merge import CloudIndexMirror
from ..lsmerkle.mlsm import MerkleizedLSM, sign_global_root
from ..lsmerkle.read_proof import KeyMaps, build_get_proof, verify_get_proof
from ..merkle.tree import MerkleTree
from ..sim.environment import local_environment
from ..sim.rng import DeterministicRng
from ..workloads.generator import KeySpace, format_key
from .runner import config_for_batch

#: Percentiles reported for per-repeat wall times.
PERCENTILES = (0.50, 0.90, 0.99)


@dataclass(frozen=True)
class BenchResult:
    """Timing summary of one micro-benchmark."""

    name: str
    ops: int
    repeats: int
    total_s: float
    ops_per_s: float
    p50_ms: float
    p90_ms: float
    p99_ms: float


def _percentile_ms(ordered: list[float], fraction: float) -> float:
    index = min(int(fraction * len(ordered)), len(ordered) - 1)
    return ordered[index] * 1000.0


def _time_repeats(
    name: str, fn: Callable[[], None], ops_per_repeat: int, repeats: int
) -> BenchResult:
    """Run *fn* ``repeats`` times and summarise the per-repeat wall times."""

    times: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    total = sum(times)
    ordered = sorted(times)
    total_ops = ops_per_repeat * repeats
    return BenchResult(
        name=name,
        ops=total_ops,
        repeats=repeats,
        total_s=total,
        ops_per_s=total_ops / total if total > 0 else float("inf"),
        p50_ms=_percentile_ms(ordered, PERCENTILES[0]),
        p90_ms=_percentile_ms(ordered, PERCENTILES[1]),
        p99_ms=_percentile_ms(ordered, PERCENTILES[2]),
    )


# ----------------------------------------------------------------------
# Input builders (deterministic for a given seed)
# ----------------------------------------------------------------------
def _make_blocks(rng: random.Random, num_blocks: int, entries_per_block: int):
    edge = edge_id("bench-edge")
    producer = client_id("bench-client")
    blocks = []
    for block_id in range(num_blocks):
        entries = []
        for index in range(entries_per_block):
            payload = bytes(rng.getrandbits(8) for _ in range(64))
            body = EntryBody(
                producer=producer,
                sequence=block_id * entries_per_block + index,
                payload=payload,
                produced_at=float(block_id),
            )
            signature = Signature(
                signer=producer,
                scheme="hmac",
                value=bytes(rng.getrandbits(8) for _ in range(32)),
            )
            entries.append(LogEntry(body=body, signature=signature))
        blocks.append(
            build_block(
                edge=edge,
                block_id=block_id,
                entries=entries,
                created_at=float(block_id),
            )
        )
    return blocks


def _make_records(rng: random.Random, count: int, key_space: int) -> list[KVRecord]:
    return [
        KVRecord(
            key=f"key-{rng.randrange(key_space):08d}",
            sequence=sequence,
            value=bytes(rng.getrandbits(8) for _ in range(32)),
            written_at=float(sequence),
        )
        for sequence in range(count)
    ]


def _certification_registry() -> tuple[KeyRegistry, object, object]:
    registry = KeyRegistry()
    cloud = cloud_id("bench-cloud")
    edge = edge_id("bench-edge")
    registry.register(cloud)
    registry.register(edge)
    return registry, cloud, edge


def _sharded_fleet(num_edges: int, sharding: ShardingConfig, **logging):
    from ..sharding.system import ShardedWedgeSystem  # only the fleet rows load it

    config = SystemConfig.paper_default().with_overrides(
        num_edge_nodes=num_edges, sharding=sharding, logging=LoggingConfig(**logging)
    )
    return ShardedWedgeSystem.build(config, env=local_environment())


# ----------------------------------------------------------------------
# Function rows: library calls on seeded inputs
# ----------------------------------------------------------------------
def bench_digest_encode(rng: random.Random, quick: bool) -> BenchResult:
    """Digest + ``encoded_size`` over blocks: the canonical encoder, warm.

    Every repeat recomputes each block's digest from its entries and
    charges its wire size, exactly what certification, gossip and dispute
    verification do.  After the first repeat every entry body and signature
    carries its fragment memo, so this row times the memo-warm path:
    tuple assembly, hashing and memo reads (``encode_cold`` times the cold
    one).
    """

    num_blocks = 10 if quick else 30
    entries_per_block = 60 if quick else 100
    repeats = 12 if quick else 30
    blocks = _make_blocks(rng, num_blocks, entries_per_block)

    def run() -> None:
        for block in blocks:
            compute_block_digest(block.edge, block.block_id, block.entries)
            encoded_size(block)

    # One digest per entry plus one per block, plus one full-block encode.
    ops_per_repeat = num_blocks * (entries_per_block + 2)
    return _time_repeats("digest_encode", run, ops_per_repeat, repeats)


def bench_encode_cold(rng: random.Random, quick: bool) -> BenchResult:
    """Sign 100 fresh entry bodies and digest their block: a client's put issue.

    Every repeat builds new ``EntryBody`` objects, so each signature and
    entry digest encodes memo-cold, the way a client's ``put_issue`` and an
    edge's block digest do on every put batch.
    """

    entries_per_block = 100
    repeats = 20 if quick else 60
    registry, _cloud, edge = _certification_registry()
    producer = client_id("bench-client")
    registry.register(producer)
    payloads = [bytes(rng.getrandbits(8) for _ in range(64)) for _ in range(entries_per_block)]
    sequences = itertools.count()
    block_ids = itertools.count()

    def run() -> None:
        entries = [
            make_entry(registry, producer, next(sequences), payload, produced_at=1.0)
            for payload in payloads
        ]
        build_block(edge, next(block_ids), entries, created_at=1.0).digest()

    return _time_repeats("encode_cold", run, entries_per_block, repeats)


def bench_merkle_roots(rng: random.Random, quick: bool) -> BenchResult:
    """``CloudIndexMirror.level_roots()`` with occasional digest changes."""

    num_digests = 300 if quick else 1000
    calls = 200 if quick else 600
    change_every = 10
    mirror = CloudIndexMirror(
        edge=edge_id("bench-edge"),
        config=LSMerkleConfig.paper_default(),
    )
    mirror.level_page_digests[1] = [
        f"{rng.getrandbits(256):064x}" for _ in range(num_digests)
    ]
    mirror.level_page_digests[2] = [
        f"{rng.getrandbits(256):064x}" for _ in range(num_digests // 2)
    ]
    counter = {"calls": 0}

    def run() -> None:
        counter["calls"] += 1
        if counter["calls"] % change_every == 0:
            slot = rng.randrange(num_digests)
            mirror.level_page_digests[1][slot] = f"{rng.getrandbits(256):064x}"
        mirror.level_roots()

    return _time_repeats("merkle_roots", run, 1, calls)


def bench_merkle_update(rng: random.Random, quick: bool) -> BenchResult:
    """Replace a few leaves of a large tree and read the new root."""

    num_leaves = 512 if quick else 2048
    updates_per_repeat = 8
    repeats = 60 if quick else 200
    tree = MerkleTree([f"{rng.getrandbits(256):064x}" for _ in range(num_leaves)])

    def run() -> None:
        for _ in range(updates_per_repeat):
            tree.replace_leaf(rng.randrange(num_leaves), f"{rng.getrandbits(256):064x}")
        assert tree.root

    return _time_repeats("merkle_update", run, updates_per_repeat, repeats)


def bench_page_lookup(rng: random.Random, quick: bool) -> BenchResult:
    """Point lookups (hits and misses) against one large sorted page."""

    num_records = 1000 if quick else 4000
    lookups_per_repeat = 2000
    repeats = 15 if quick else 40
    records = _make_records(rng, num_records, key_space=num_records * 2)
    page = build_page(records, created_at=1.0)
    keys = [record.key for record in records]
    probe_keys = [
        rng.choice(keys) if rng.random() < 0.5 else f"key-{rng.randrange(10**8):08d}"
        for _ in range(lookups_per_repeat)
    ]

    def run() -> None:
        for key in probe_keys:
            page.lookup(key)

    return _time_repeats("page_lookup", run, lookups_per_repeat, repeats)


def bench_merge(rng: random.Random, quick: bool) -> BenchResult:
    """``merge_levels`` of overlapping source and target levels."""

    records_per_side = 2000 if quick else 6000
    page_capacity = 100
    repeats = 20 if quick else 50
    source = partition_into_pages(
        newest_versions(_make_records(rng, records_per_side, key_space=records_per_side)),
        page_capacity=page_capacity,
        created_at=1.0,
    )
    target = partition_into_pages(
        newest_versions(_make_records(rng, records_per_side, key_space=records_per_side)),
        page_capacity=page_capacity,
        created_at=0.5,
    )

    def run() -> None:
        merge_levels(source, target, created_at=2.0, page_capacity=page_capacity)

    return _time_repeats("merge", run, records_per_side * 2, repeats)


def bench_put_pipeline(rng: random.Random, quick: bool) -> BenchResult:
    """Build level-0 pages from records and compact through the LSM tree."""

    batches = 40 if quick else 120
    batch_size = 100
    repeats = 6 if quick else 12
    batches_of_records = [
        _make_records(rng, batch_size, key_space=batch_size * batches)
        for _ in range(batches)
    ]

    def run() -> None:
        tree = LSMTree(config=LSMerkleConfig(level_thresholds=(4, 8, 64, 512)))
        for index, records in enumerate(batches_of_records):
            page = build_page(records, created_at=float(index))
            if tree.add_level_zero_page(page):
                tree.compact_all(created_at=float(index))

    return _time_repeats("put_pipeline", run, batches * batch_size, repeats)


def bench_get_verify(rng: random.Random, quick: bool) -> BenchResult:
    """End-to-end read proofs: ``build_get_proof`` + ``verify_get_proof``."""

    gets_per_repeat = 30 if quick else 60
    repeats = 10 if quick else 25
    registry, cloud, edge = _certification_registry()

    index = MerkleizedLSM(
        config=LSMerkleConfig(level_thresholds=(4, 8, 64, 512)), page_capacity=50
    )
    merged_records = _make_records(rng, 2000, key_space=4000)
    known_keys = sorted({record.key for record in merged_records})
    for start in range(0, len(merged_records), 200):
        chunk = merged_records[start : start + 200]
        page = build_page(chunk, created_at=1.0)
        if index.add_level_zero_page(page):
            for level_index in index.levels_needing_merge():
                source, target = index.tree.plan_merge(level_index)
                result = merge_levels(
                    source, target, created_at=2.0, page_capacity=50
                )
                index.apply_merge(level_index, result.pages)
    signed_root = sign_global_root(
        registry=registry,
        cloud=cloud,
        edge=edge,
        level_roots=index.level_roots(),
        version=1,
        timestamp=3.0,
    )
    probe_keys = [
        rng.choice(known_keys)
        if rng.random() < 0.7
        else f"key-{rng.randrange(10**8):08d}"
        for _ in range(gets_per_repeat)
    ]

    def run() -> None:
        for key in probe_keys:
            result = index.get(key)
            proof = build_get_proof(
                key=key,
                index=index,
                level_zero_blocks=(),
                signed_root=signed_root,
                found_level=result.level_index,
            )
            verified = verify_get_proof(
                registry=registry,
                cloud=cloud,
                edge=edge,
                key=key,
                proof=proof,
            )
            assert verified.found == result.found

    return _time_repeats("get_verify", run, gets_per_repeat, repeats)


def bench_gossip_per_edge(rng: random.Random, quick: bool) -> BenchResult:
    """Unbatched gossip: one signed message per edge per interval."""

    num_edges = 12 if quick else 24
    repeats = 40 if quick else 120
    registry, cloud, _ = _certification_registry()
    edges = [edge_id(f"bench-edge-{index}") for index in range(num_edges)]
    views = {edge: GossipView(edge=edge) for edge in edges}
    counter = {"repeat": 0}

    def run() -> None:
        counter["repeat"] += 1
        now = float(counter["repeat"])
        for index, edge in enumerate(edges):
            message = build_gossip(registry, cloud, edge, counter["repeat"] + index, now)
            assert verify_gossip(registry, message, cloud=cloud)
            views[edge].update(message)

    return _time_repeats("gossip_per_edge", run, num_edges, repeats)


def bench_gossip_batch(rng: random.Random, quick: bool) -> BenchResult:
    """Batched gossip: one signed multi-edge statement per interval.

    Per repeat: the cloud signs one ``GossipBatchStatement`` covering every
    edge, and each edge's view verifies the one signature and applies its
    own entry.  Reported as edge-statements/s — comparable against
    ``gossip_per_edge``.
    """

    num_edges = 12 if quick else 24
    repeats = 40 if quick else 120
    registry, cloud, _ = _certification_registry()
    edges = [edge_id(f"bench-edge-{index}") for index in range(num_edges)]
    views = {edge: GossipView(edge=edge) for edge in edges}
    counter = {"repeat": 0}

    def run() -> None:
        counter["repeat"] += 1
        now = float(counter["repeat"])
        sizes = {
            edge: counter["repeat"] + index for index, edge in enumerate(edges)
        }
        message = build_gossip_batch(registry, cloud, sizes, now)
        for edge in edges:
            assert verify_gossip(registry, message, cloud=cloud)
            views[edge].update(message)

    return _time_repeats("gossip_batch", run, num_edges, repeats)


def bench_shard_route(rng: random.Random, quick: bool) -> BenchResult:
    """Key → shard → owning edge resolution: the shard-aware client hot path.

    Per routed key: one partitioner hash (consistent-hash ring walk) plus
    one verified-shard-map owner lookup, exactly what every put/get of a
    sharded fleet pays before it leaves the client.  Reported as routed
    keys/s.
    """

    routes_per_repeat = 2000 if quick else 8000
    repeats = 15 if quick else 40
    router = _sharded_fleet(4, ShardingConfig(num_shards=16)).clients[0].router
    keys = [f"key{rng.randrange(10**8):012d}" for _ in range(routes_per_repeat)]

    def run() -> None:
        for key in keys:
            route = router.route(key)
            assert route.owner is not None

    return _time_repeats("shard_route", run, routes_per_repeat, repeats)


def bench_durable_put(rng: random.Random, quick: bool) -> BenchResult:
    """Durable Phase I append rate: block + receipt into the segment log.

    Each repeat opens a fresh :class:`~repro.storage.store.PartitionStore`
    and appends pre-built blocks with their Phase I receipts under the
    benchmarked default fsync policy (``"on_seal"``) — the disk cost a
    durable edge pays on top of the in-memory put pipeline.  Reported as
    puts (log entries)/s.
    """

    from ..storage.store import PartitionStore

    num_blocks = 16 if quick else 64
    entries_per_block = 4
    repeats = 5 if quick else 10
    registry, _cloud, edge = _certification_registry()
    blocks = _make_blocks(rng, num_blocks, entries_per_block)
    receipts = [
        issue_phase_one_receipt(registry, edge, block, block.created_at)
        for block in blocks
    ]
    root = tempfile.mkdtemp(prefix="bench-durable-put-")
    storage = StorageConfig(
        backend="disk", root_dir=root, fsync="on_seal", segment_max_bytes=1 << 18
    )
    counter = {"run": 0}

    def run() -> None:
        directory = os.path.join(root, f"run-{counter['run']:04d}")
        counter["run"] += 1
        store = PartitionStore(directory, storage)
        for block, receipt in zip(blocks, receipts):
            store.append_block(block, receipt)
        store.close()

    try:
        return _time_repeats(
            "durable_put", run, num_blocks * entries_per_block, repeats
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_recovery_replay(rng: random.Random, quick: bool) -> BenchResult:
    """Crash-recovery rate: segment replay into a root-verified partition.

    A store is populated once (blocks, receipts, certification proofs, and
    a manifest carrying a cloud-signed root); each repeat then runs the
    real :func:`~repro.storage.recovery.recover_partition` path — directory
    rescan, decode, log rebuild, proof re-attachment, signed-root
    verification — into a fresh partition state.  Reported as blocks/s
    replayed to a verified root.
    """

    from ..nodes.edge import PartitionState
    from ..storage.recovery import recover_partition
    from ..storage.store import PartitionStore

    num_blocks = 16 if quick else 64
    entries_per_block = 4
    repeats = 5 if quick else 10
    registry, cloud, edge = _certification_registry()
    blocks = _make_blocks(rng, num_blocks, entries_per_block)
    config = SystemConfig()
    root = tempfile.mkdtemp(prefix="bench-recovery-")
    store = PartitionStore(
        os.path.join(root, "partition"),
        StorageConfig(backend="disk", root_dir=root, fsync="never"),
    )
    for block in blocks:
        store.append_block(
            block, issue_phase_one_receipt(registry, edge, block, block.created_at)
        )
        store.append_proof(
            issue_block_proof(
                registry,
                cloud,
                edge,
                block.block_id,
                block.digest(),
                block.created_at + 1.0,
            )
        )
    signed = sign_global_root(
        registry,
        cloud,
        edge,
        PartitionState(owner=edge, config=config).index.level_roots(),
        version=1,
        timestamp=float(num_blocks),
    )
    store.write_manifest(
        next_block_id=num_blocks,
        level_pages={},
        level_zero_blocks=(),
        signed_root=signed,
    )

    def run() -> None:
        state = PartitionState(owner=edge, config=config)
        report = recover_partition(state, store, registry, cloud)
        assert report.ok and report.root_verified
        assert report.blocks_replayed == num_blocks

    try:
        return _time_repeats("recovery_replay", run, num_blocks, repeats)
    finally:
        store.close()
        shutil.rmtree(root, ignore_errors=True)


def bench_frame_roundtrip(rng: random.Random, quick: bool) -> BenchResult:
    """One hop of a put acknowledgement: frame, unframe, digest.

    A 100-entry ``AppendBatchResponse`` goes through ``encode_frame`` →
    ``decode_payload`` → ``Block.digest()`` — what an edge pays to send a
    block and a client pays to receive and check it.  The sender is
    memo-warm as a real edge is: it digested the block and signed the
    receipt before framing.  The receiver starts from bytes every time.
    Reported as round trips per second.
    """

    from ..common.identifiers import OperationId
    from ..messages import AppendBatchResponse
    from ..service.framing import decode_payload, encode_frame

    num_responses = 4 if quick else 16
    repeats = 5 if quick else 10
    registry, _cloud, edge = _certification_registry()
    client = client_id("bench-client")
    responses = []
    for block in _make_blocks(rng, num_responses, 100):
        block.digest()
        responses.append(
            AppendBatchResponse(
                edge=edge,
                operation_id=OperationId(client=client, sequence=block.block_id),
                block_id=block.block_id,
                receipt=issue_phase_one_receipt(registry, edge, block, block.created_at),
                block=block,
            )
        )

    def run() -> None:
        for response in responses:
            frame = encode_frame(edge, response)
            _sender, received = decode_payload(frame[4:])
            assert received.block.digest() == response.block.digest()

    run()  # the decoders of these classes compile on first use
    return _time_repeats("frame_roundtrip", run, num_responses, repeats)


def bench_frame_transfer(rng: random.Random, quick: bool) -> BenchResult:
    """An append-sized and a get-sized frame across a real socket.

    Two endpoints of a started :class:`~repro.service.AsyncioTransport`
    on unix sockets; each transfer sends a ≈64 KB and a ≈0.68 MB
    ``AppendBatchResponse`` from one to the other and waits for each to
    be delivered, so the timed region runs from ``send`` (framing) through
    the link pump's write and the receiver's read to the decoded message.
    Both blocks keep their canonical text, as an edge's level-0 blocks do,
    so framing joins one string per block; the receiver holds both, as a
    client holds the level-0 blocks of its last get, so the decoder hands
    them back.  The row times the hop, not a block walk or a strict
    decode (``append_echo_receive`` and ``get_receive_cold`` time those).  Reported as transfers (one frame of
    each size) per second.
    """

    import asyncio

    from ..common.identifiers import OperationId
    from ..lsmerkle.codec import keep_text
    from ..messages import AppendBatchResponse
    from ..service import AsyncioTransport
    from ..storage.codec import HeldSet

    class Endpoint:
        region = None

        def __init__(self, name: str) -> None:
            self.node_id = edge_id(name)
            self.held = HeldSet()
            self.arrived: Any = None

        def deliver(self, sender, message) -> None:
            self.arrived.set_result(message)

    registry, _cloud, edge = _certification_registry()
    client = client_id("bench-client")
    [small] = _make_blocks(rng, 1, 150)
    [large] = _make_blocks(rng, 1, 1600)
    # Block ids tell the two apart in the receiver's hold.
    blocks = [small, build_block(edge, 1, large.entries, created_at=1.0)]
    for block in blocks:
        keep_text(block)
    messages = [
        AppendBatchResponse(
            edge=edge,
            operation_id=OperationId(client=client, sequence=index),
            block_id=block.block_id,
            receipt=issue_phase_one_receipt(registry, edge, block, block.created_at),
            block=block,
        )
        for index, block in enumerate(blocks)
    ]
    source, sink = Endpoint("bench-source"), Endpoint("bench-sink")
    sink.held.hold("blocks", blocks)
    transfers = 10 if quick else 30
    repeats = 5 if quick else 10

    async def transfer(count: int) -> None:
        for _ in range(count):
            for message in messages:
                sink.arrived = loop.create_future()
                transport.send(source.node_id, sink.node_id, message)
                await sink.arrived

    loop = asyncio.new_event_loop()
    transport = AsyncioTransport()
    transport.register(source)
    transport.register(sink)
    try:
        loop.run_until_complete(transport.start())
        # Connects the link, compiles the decoders and indexes the hold.
        loop.run_until_complete(transfer(2))
        return _time_repeats(
            "frame_transfer",
            lambda: loop.run_until_complete(transfer(transfers)),
            transfers,
            repeats,
        )
    finally:
        loop.run_until_complete(transport.stop())
        loop.close()


def _get_receive(name: str, rng: random.Random, quick: bool, cold: bool) -> BenchResult:
    """A client receiving a verified get over a full level 0.

    ``decode_payload`` + ``verify_get_proof`` of one framed ``GetResponse``
    backed by ten certified 100-put blocks (the paper's level-0 threshold
    and the live fleets' batch size): the ~0.55 MB a verified get ships
    between merges.  The receiver decodes with a client's held set
    (:class:`~repro.storage.codec.HeldSet`) and, as a client does, holds
    the proof's level-0 blocks under ``("get", edge)`` once it verifies,
    keeping the key maps the verifier returns
    (:attr:`~repro.lsmerkle.read_proof.VerifiedGet.key_maps`).  Warm, every
    block is the one the previous receive decoded, digested and held, and
    the verifier answers it from its key map; *cold*, the receiver
    releases that hold and its maps before each receive, so every block
    decodes strictly, is digested and has its key map built by the
    verifier — the first get after a merge.  The first two receives, which
    compile the decoders and index the held blocks, are not timed.
    """

    from ..common.identifiers import OperationId
    from ..lsmerkle.codec import encode_put
    from ..messages.kv_messages import GetResponse, GetResponseStatement
    from ..service.framing import decode_payload, encode_frame
    from ..storage.codec import HeldSet

    registry, cloud, edge = _certification_registry()
    client = client_id("bench-client")
    registry.register(client)
    keys = [f"key-{index:06d}" for index in range(2000)]
    evidence = []
    for block_id in range(1, 11):
        written = [rng.choice(keys) for _ in range(100)]
        entries = [
            make_entry(
                registry,
                client,
                block_id * 100 + index,
                encode_put(written_key, rng.randbytes(64)),
                float(block_id),
            )
            for index, written_key in enumerate(written)
        ]
        block = build_block(edge, block_id, entries, created_at=float(block_id))
        proof = issue_block_proof(
            registry, cloud, edge, block_id, block.digest(), float(block_id)
        )
        evidence.append((block, proof))
    key = rng.choice(written)
    index = MerkleizedLSM(config=LSMerkleConfig(), page_capacity=100)
    statement = GetResponseStatement(
        edge=edge,
        operation_id=OperationId(client=client, sequence=1),
        key=key,
        found=True,
        value_digest=None,
        issued_at=11.0,
    )
    response = GetResponse(
        statement=statement,
        signature=registry.sign(edge, statement),
        value=None,
        proof=build_get_proof(key, index, evidence, None, 0),
    )
    payload = encode_frame(edge, response)[4:]

    receives = 10 if quick else 30
    repeats = 5 if quick else 10
    held = HeldSet()
    maps: KeyMaps = {}

    def receive() -> None:
        nonlocal maps
        if cold:
            held.release(("get", edge))
            maps = {}
        _sender, received = decode_payload(payload, held)
        verified = verify_get_proof(
            registry, cloud, edge, key, received.proof, key_maps=maps
        )
        assert verified.found and verified.record.key == key
        held.hold(("get", edge), [item.block for item in received.proof.level_zero])
        maps = verified.key_maps

    def run() -> None:
        for _ in range(receives):
            receive()

    receive()
    receive()
    return _time_repeats(name, run, receives, repeats)


def bench_get_receive(rng: random.Random, quick: bool) -> BenchResult:
    """A repeat verified get: its level-0 blocks were decoded before."""

    return _get_receive("get_receive", rng, quick, cold=False)


def bench_get_receive_cold(rng: random.Random, quick: bool) -> BenchResult:
    """The first verified get after a merge: every level-0 block is new."""

    return _get_receive("get_receive_cold", rng, quick, cold=True)


def bench_get_serve(rng: random.Random, quick: bool) -> BenchResult:
    """An edge answering a repeat get over its level 0.

    ``EdgeNode._handle_get`` (index lookup, ``build_get_proof``, the signed
    statement) plus ``encode_frame`` of the ``GetResponse`` it sends, on a
    1-edge fleet that took nine 100-put batches over 5 000 keys: level 0
    holds nine certified blocks the edge formed, one short of its merge
    threshold — the ≈0.6 MB frame a live edge writes for every get between
    merges.  A send hook takes the response instead of delivering it.  The
    first serve, which compiles the encoders, is not timed.
    """

    from ..common.identifiers import OperationId
    from ..messages.kv_messages import GetRequest, GetResponse
    from ..service.framing import encode_frame

    fleet = WedgeChainSystem.build(config_for_batch(100), env=local_environment())
    edge, client = fleet.edge(), fleet.client()
    keys = [format_key(rng.randrange(5000)) for _ in range(900)]
    for batch in range(9):
        written = keys[batch * 100 : (batch + 1) * 100]
        client.put_batch([(key, rng.randbytes(100)) for key in written])
        fleet.run()
    state = edge._default_partition
    assert len(state.level_zero_blocks) == 9
    sent: list = []

    def take(_src, _dst, message) -> bool:
        sent.append(message)
        return False

    fleet.env.network.add_send_hook("bench:get-serve", take)
    requests = [
        GetRequest(
            requester=client.node_id,
            operation_id=OperationId(client=client.node_id, sequence=sequence),
            key=rng.choice(keys),
        )
        for sequence in range(4 if quick else 16)
    ]
    repeats = 5 if quick else 10

    def serve(request) -> None:
        sent.clear()
        edge._handle_get(state, client.node_id, request)
        (response,) = sent
        assert isinstance(response, GetResponse) and response.statement.found
        encode_frame(edge.node_id, response)

    def run() -> None:
        for request in requests:
            serve(request)

    serve(requests[0])
    return _time_repeats("get_serve", run, len(requests), repeats)


def bench_append_echo_receive(rng: random.Random, quick: bool) -> BenchResult:
    """A client receiving the acknowledgement of its 100-put append.

    ``decode_payload`` of one framed ``AppendBatchResponse`` whose block
    echoes the client's own 100 signed entries, then the receipt check
    against the block's digest, with the client's held set holding those
    entries (released and held anew per receive, so indexing them is timed
    as a client pays it once per append).  The first receive is not timed.
    """

    from ..common.identifiers import OperationId
    from ..lsmerkle.codec import encode_put
    from ..messages import AppendBatchResponse
    from ..service.framing import decode_payload, encode_frame
    from ..storage.codec import HeldSet

    registry, _cloud, edge = _certification_registry()
    client = client_id("bench-client")
    registry.register(client)
    entries = tuple(
        make_entry(
            registry, client, index, encode_put(format_key(index), rng.randbytes(100)), 1.0
        )
        for index in range(100)
    )
    block = build_block(edge, 1, entries, created_at=1.0)
    operation = OperationId(client=client, sequence=1)
    receipt = issue_phase_one_receipt(registry, edge, block, 1.0)
    payload = encode_frame(
        edge,
        AppendBatchResponse(
            edge=edge, operation_id=operation, block_id=1, receipt=receipt, block=block
        ),
    )[4:]

    receives = 20 if quick else 60
    repeats = 5 if quick else 10
    held = HeldSet()

    def receive() -> None:
        held.release(operation)
        held.hold(operation, entries)
        _sender, received = decode_payload(payload, held)
        assert receipt.matches_block(received.block)

    def run() -> None:
        for _ in range(receives):
            receive()

    receive()
    return _time_repeats("append_echo_receive", run, receives, repeats)


def bench_merge_outcome_receive(rng: random.Random, quick: bool) -> BenchResult:
    """An edge receiving the cloud's answer to a level-0 merge.

    ``decode_payload`` of one framed ``MergeResponse`` recorded from a
    1-edge fleet that took thirty 100-put batches over 5 000 keys (the
    recorded merge has a non-empty level 1 to merge into), with the edge's
    held set holding that merge's inputs as the edge held them (released
    and held anew per receive, so indexing them is timed as an edge pays it
    once per merge).  The first receive is not timed.
    """

    from ..messages.kv_messages import MergeResponse
    from ..service.framing import decode_payload, encode_frame
    from ..storage.codec import HeldSet

    fleet = WedgeChainSystem.build(config_for_batch(100), env=local_environment())
    edge, client = fleet.edge(), fleet.client()
    recorded: list = []

    def record(_src, _dst, message) -> bool:
        if isinstance(message, MergeResponse) and message.outcome.level_index == 0:
            recorded[:] = [(message, edge.held.objects())]
        return True

    fleet.env.network.add_send_hook("bench:merge-outcome", record)
    for _ in range(30):
        client.put_batch(
            [(format_key(rng.randrange(5000)), rng.randbytes(100)) for _ in range(100)]
        )
    _run_to_outcome(fleet, lambda fleet: lambda: edge.stats["merges_completed"] >= 3)
    ((response, inputs),) = recorded
    payload = encode_frame(fleet.cloud.node_id, response)[4:]

    receives = 3 if quick else 10
    repeats = 3 if quick else 5
    held = HeldSet()

    def receive() -> None:
        held.release("merge")
        held.hold("merge", inputs)
        _sender, received = decode_payload(payload, held)
        assert received.outcome.records_out == response.outcome.records_out

    def run() -> None:
        for _ in range(receives):
            receive()

    receive()
    return _time_repeats("merge_outcome_receive", run, receives, repeats)


def bench_merge_request_receive(rng: random.Random, quick: bool) -> BenchResult:
    """The cloud receiving an edge's level-1 merge request.

    ``decode_payload`` of one framed ``MergeRequest`` recorded from a 1-edge
    fleet taking rounds of ten 100-put batches over 5 000 keys, until its
    second level-1 merge: the edge re-sends its level-1 pages as the source
    and its level-2 pages as the target, each a page the cloud answered an
    earlier merge with.  The receiver's held set holds the records of those
    answers as the cloud holds them (one hold per partition, kept from
    merge to merge), so the decoder hands every record back.  The first
    receive, which compiles the decoders and indexes the held records, is
    not timed.
    """

    from ..messages.kv_messages import MergeRequest
    from ..service.framing import decode_payload, encode_frame
    from ..storage.codec import HeldSet

    fleet = WedgeChainSystem.build(config_for_batch(100), env=local_environment())
    edge, client, cloud = fleet.edge(), fleet.client(), fleet.cloud
    recorded: list = []

    def record(_src, _dst, message) -> bool:
        if isinstance(message, MergeRequest) and message.proposal.level_index == 1:
            recorded.append((message, cloud.held.objects()))
        return True

    fleet.env.network.add_send_hook("bench:merge-request", record)
    for _ in range(20):
        if len(recorded) >= 2:
            break
        for _ in range(10):
            client.put_batch(
                [(format_key(rng.randrange(5000)), rng.randbytes(100)) for _ in range(100)]
            )
        fleet.run()
    request, answered = recorded[1]
    assert request.proposal.target_pages, "no level-2 pages to re-send"
    payload = encode_frame(edge.node_id, request)[4:]

    receives = 3 if quick else 10
    repeats = 3 if quick else 5
    held = HeldSet()
    held.hold(("merge", edge.node_id, None), answered)

    def receive() -> None:
        _sender, received = decode_payload(payload, held)
        assert len(received.proposal.source_pages) == len(request.proposal.source_pages)

    def run() -> None:
        for _ in range(receives):
            receive()

    receive()
    return _time_repeats("merge_request_receive", run, receives, repeats)


# ----------------------------------------------------------------------
# Real-node rows: fleets are set-up, one protocol exchange is timed
# ----------------------------------------------------------------------
def _run_to_outcome(fleet, drive: Callable[[Any], Callable[[], bool]]) -> None:
    """Start an exchange on *fleet* and run its event loop until it is done.

    ``drive(fleet)`` issues the requests and returns the predicate of the
    protocol outcome they must reach.  The loop cannot simply drain (a
    replicated fleet's lease and shipping ticks never stop); 120 simulated
    seconds cost nothing and turn an exchange that never finishes into a
    failed assertion instead of a hang.
    """

    done = drive(fleet)
    assert fleet.env.run_until_condition(done, fleet.env.now() + 120.0), "no outcome"


def _time_fleet_runs(name: str, fleets: list, drive, ops_per_repeat: int) -> BenchResult:
    """Time :func:`_run_to_outcome`, one fresh fleet per repeat.

    A fleet is used once — certified digests, shard ownership and log
    positions are append-only, so a second exchange would not repeat the
    first — and building and preloading it is the caller's set-up.
    """

    pending = iter(fleets)
    return _time_repeats(
        name, lambda: _run_to_outcome(next(pending), drive), ops_per_repeat, len(fleets)
    )


def _all_phase_two(client, operations) -> Callable[[], bool]:
    return lambda: all(
        client.phase_of(operation) is CommitPhase.PHASE_TWO for operation in operations
    )


#: Batch size of the windowed-certification rows (the amortization target
#: compares certified-blocks/s at this batch size against the per-block row).
CERTIFY_BENCH_BATCH_SIZE = 32


def _make_certify_fleet(rng: random.Random, batch_size: int, depth: int, num_blocks: int):
    """A 1-edge Schnorr fleet whose edge holds digests awaiting Phase II.

    Batching exists to amortize genuinely asymmetric signatures (a
    deployment cannot use the HMAC oracle), so the certification rows run
    Schnorr.  The digests are tracked on the edge's certifier — and queued
    for the pump when batching is on — exactly where a formed block's digest
    sits before the edge asks for certification.
    """

    config = SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(certify_batch_size=batch_size, certify_pipeline_depth=depth)
    )
    fleet = WedgeChainSystem.build(config, env=local_environment(signature_scheme="schnorr"))
    certifier = fleet.edge().certifier
    for block_id in range(num_blocks):
        certifier.track(block_id, f"{rng.getrandbits(256):064x}")
        if batch_size > 1:
            certifier.enqueue_for_dispatch(block_id)
    return fleet


def bench_certify_per_block(rng: random.Random, quick: bool) -> BenchResult:
    """The paper's unbatched Phase II exchange, eight blocks per repeat.

    Timed, per block: ``EdgeNode._send_single_certify_request`` signs a
    ``BlockCertifyRequest``, the ``CloudNode`` verifies it, orders the digest
    and signs a ``BlockProofMessage``, the edge verifies the proof and
    retires the block — four Schnorr operations and two dispatches.  Set-up:
    the fleet at ``certify_batch_size=1`` with its tracked digests.  Reported
    as certified-blocks/s.
    """

    num_blocks = 8

    def drive(fleet):
        edge = fleet.edge()
        for task in edge.certifier.outstanding():
            edge._send_single_certify_request(edge._default_partition, task)
        return lambda: edge.certifier.certified_count == num_blocks

    fleets = [_make_certify_fleet(rng, 1, 1, num_blocks) for _ in range(3 if quick else 5)]
    return _time_fleet_runs("certify_per_block", fleets, drive, num_blocks)


def _bench_cert_pipeline(name: str, rng: random.Random, depth: int, repeats: int):
    num_blocks = depth * CERTIFY_BENCH_BATCH_SIZE

    def drive(fleet):
        edge = fleet.edge()
        edge._pump_certify_pipeline(edge._default_partition)
        return lambda: edge.certifier.certified_count == num_blocks

    fleets = [
        _make_certify_fleet(rng, CERTIFY_BENCH_BATCH_SIZE, depth, num_blocks)
        for _ in range(repeats)
    ]
    return _time_fleet_runs(name, fleets, drive, num_blocks)


def bench_cert_pipeline_d1(rng: random.Random, quick: bool) -> BenchResult:
    """Windowed certification through the nodes at depth 1: the serial path.

    One ``EdgeNode._pump_certify_pipeline`` call ships one 32-block
    ``CertifyBatchRequest``; the ``CloudNode`` verifies it, orders the
    digests and signs the batch root; the edge verifies the certificate and
    derives every proof — four Schnorr operations per 32 blocks where
    ``certify_per_block`` pays four per block.  Reported as
    certified-blocks/s.
    """

    return _bench_cert_pipeline("cert_pipeline_d1", rng, 1, 3 if quick else 5)


def bench_cert_pipeline_d8(rng: random.Random, quick: bool) -> BenchResult:
    """Windowed certification through the nodes at depth 8: a full window.

    One pump fills all eight slots and ships them as one
    ``CertifyWindowRequest``: the edge signs once and the cloud verifies
    once for the whole window (2 signature operations instead of 16), while
    the cloud still signs — and the edge still verifies — one certificate
    per batch, because window slots retire independently.  That is 18
    signature operations per 256 blocks against depth 1's 32, and the
    committed baseline records ≈1.7× ``cert_pipeline_d1``.  Same reporting
    unit.
    """

    return _bench_cert_pipeline("cert_pipeline_d8", rng, 8, 2 if quick else 4)


def _keys_in_shard(client, shard_id: int, count: int) -> list[str]:
    """The first *count* workload keys the fleet's partitioner puts in a shard."""

    keys = (format_key(index) for index in itertools.count())
    owned = (key for key in keys if client.partitioner.shard_of(key) == shard_id)
    return list(itertools.islice(owned, count))


def bench_shard_handoff(rng: random.Random, quick: bool) -> BenchResult:
    """One certified handoff of a 32-block shard between two edges.

    Timed: ``ShardedWedgeSystem.rebalance_shard`` and all it sets off — the
    cloud's order, the source's drain and signed offer, the cloud's check
    against its certified digests, its countersigned grant and new map, the
    transfer of blocks, proofs and pages, the destination's verification of
    each, and the install ack reaching the cloud.  Set-up: a 2-edge fleet
    whose shard 0 holds 32 four-put blocks, certified and merged.  Reported
    as handoffs/s (HMAC).
    """

    num_blocks, block_size = 32, 4

    def build():
        fleet = _sharded_fleet(2, ShardingConfig(num_shards=2), block_size=block_size)
        client = fleet.clients[0]
        keys = _keys_in_shard(client, 0, num_blocks * block_size)
        for start in range(0, len(keys), block_size):
            block = keys[start : start + block_size]
            client.put_batch([(key, rng.randbytes(32)) for key in block])
        fleet.run()  # every block certified, every merge absorbed
        assert len(fleet.edges[0].shard_state(0).log) == num_blocks
        return fleet

    def drive(fleet):
        fleet.rebalance_shard(0, dest=1)
        return lambda: fleet.cloud.stats["shard_installs"] == 1

    fleets = [build() for _ in range(20 if quick else 60)]
    return _time_fleet_runs("shard_handoff", fleets, drive, 1)


def bench_txn_cross_shard(rng: random.Random, quick: bool) -> BenchResult:
    """Cross-shard 2PC through the coordinator and both participant edges.

    Timed, per transaction of 2 shards x 4 writes: ``ShardedClient.txn_put``
    signs the entries and one prepare per shard; each edge verifies, stages
    and signs a receipt; the coordinator verifies both and signs the commit
    decision; each edge verifies it, forms the commit block, answers with a
    Phase I receipt and an ack, and the cloud certifies the block.  Five
    transactions run at once per repeat, until every commit block is at
    Phase II.  Set-up: an empty 2-edge fleet.  Reported as transactions/s
    (HMAC).
    """

    txns_per_repeat, writes_per_shard = 5, 4
    fleets = [
        _sharded_fleet(2, ShardingConfig(num_shards=2)) for _ in range(40 if quick else 150)
    ]
    shard_keys = [
        _keys_in_shard(fleets[0].clients[0], shard_id, txns_per_repeat * writes_per_shard)
        for shard_id in (0, 1)
    ]
    txns = [
        [(key, rng.randbytes(64)) for keys in shard_keys for key in keys[index::txns_per_repeat]]
        for index in range(txns_per_repeat)
    ]

    def drive(fleet):
        client = fleet.clients[0]
        records = [client.txns.record(client.txn_put(items)) for items in txns]
        prepares = [p.operation_id for record in records for p in record.participants.values()]
        return _all_phase_two(client, prepares)

    return _time_fleet_runs("txn_cross_shard", fleets, drive, txns_per_repeat)


def bench_replica_read(rng: random.Random, quick: bool) -> BenchResult:
    """Verified gets served by a shard's writer and its two read replicas.

    Timed, per get of a 200-key Zipfian(0.99) stream: ``ShardedClient.get``
    routes the key and picks its sticky replica-set member; that edge builds
    the read proof from its (mirrored) index and, if a replica, attaches its
    cloud-signed lease; the client checks the lease covers the response and
    verifies the proof to Phase II.  Set-up: a 4-edge, 16-shard
    ``replication_factor=3`` fleet with 64 certified keys mirrored to every
    replica.  Reported as reads/s; ``get_verify`` is the same proof path
    without fleet, routing or lease.
    """

    num_keys, reads_per_repeat = 64, 200
    items = [(format_key(index), rng.randbytes(32)) for index in range(num_keys)]
    key_space = KeySpace(num_keys, distribution="zipfian", zipf_theta=0.99)
    sampler = DeterministicRng(rng.randrange(2**31))
    keys = [key_space.sample(sampler) for _ in range(reads_per_repeat)]

    def build():
        fleet = _sharded_fleet(4, ShardingConfig(num_shards=16, replication_factor=3))
        client = fleet.clients[0]
        _run_to_outcome(fleet, lambda _: _all_phase_two(client, client.put_batch(items)))
        # Two shipping ticks: every replica mirrors the certified log and
        # holds a live lease before the first read is issued.
        fleet.run_for(2 * fleet.config.security.gossip_interval_s)
        return fleet

    def drive(fleet):
        client = fleet.clients[0]
        return _all_phase_two(client, [client.get(key) for key in keys])

    fleets = [build() for _ in range(5 if quick else 10)]
    return _time_fleet_runs("replica_read", fleets, drive, reads_per_repeat)


def _bench_put_fleet(name: str, rng: random.Random, quick: bool, observability: bool):
    """Ten 100-put batches to Phase II on a 1-edge fleet, observability on or off."""

    batches, batch_size = 10, 100
    config = config_for_batch(batch_size).with_overrides(
        observability=ObservabilityConfig(enabled=observability)
    )
    items = [
        [(format_key(batch * batch_size + i), rng.randbytes(32)) for i in range(batch_size)]
        for batch in range(batches)
    ]

    def drive(fleet):
        client = fleet.client()
        return _all_phase_two(client, [client.put_batch(batch) for batch in items])

    fleets = [
        WedgeChainSystem.build(config, env=local_environment())
        for _ in range(6 if quick else 12)
    ]
    return _time_fleet_runs(name, fleets, drive, batches * batch_size)


def bench_obs_overhead(rng: random.Random, quick: bool) -> BenchResult:
    """The put path of a 1-edge fleet with observability switched on.

    Timed: ``Client.put_batch`` x 10 to Phase II — entry signing, block
    formation, Phase I receipts, lazy certification, the level-0 merge the
    tenth block triggers — under ``ObservabilityConfig(enabled=True)``:
    every handler in its span, every ``stats`` write mirrored into the
    metrics registry, every message carrying a trace sidecar.  Set-up: the
    fleet.  Reported as puts/s.  The overhead is this row against the same
    helper with observability off; one suite run cannot resolve it, so
    ``tests/test_chaos_scenarios.py`` takes a median of adjacent pair ratios.
    """

    return _bench_put_fleet("obs_overhead", rng, quick, observability=True)


def bench_live_put_p99(rng: random.Random, quick: bool) -> BenchResult:
    """Open-loop Poisson puts against a live 1-edge asyncio fleet.

    The only row measured under real time: a seeded Poisson arrival stream
    of put batches is offered to a 1-cloud/1-edge fleet running on the
    wall-clock asyncio transport (unix sockets, codec-framed messages),
    and each request is timed from when it was due to its Phase I commit,
    so a late generator cannot hide queueing.  ``ops_per_s`` is
    settled requests per second of wall time; the percentile columns are
    the *response-time* percentiles (p50/p90/p99), not per-repeat harness
    times — this is the tail-latency-under-load row the simulator cannot
    produce.  Wall-clock numbers vary with the host, so the row rides in
    ``non_gating`` first, per convention.
    """

    import asyncio

    from ..common.config import WorkloadConfig
    from ..service import LiveFleet
    from ..workloads.driver import LoadDriver, OpenLoopSpec

    # ~40 req/s of 100-put batches saturates the single edge on a typical
    # host; offer well below that so the row tracks the service-time tail
    # rather than unbounded saturation queueing.
    batch_size = 100
    num_requests = 50 if quick else 200
    rate = 20.0 if quick else 25.0
    workload = WorkloadConfig(
        num_clients=1,
        batch_size=batch_size,
        value_size=100,
        read_fraction=0.0,
        key_space=10_000,
        operations_per_client=batch_size,
        seed=7,
    )
    spec = OpenLoopSpec(workload=workload, num_requests=num_requests, rate=rate)
    config = config_for_batch(batch_size)

    async def offered_run():
        async with LiveFleet(config=config, num_clients=1) as fleet:
            return await LoadDriver(fleet, spec).run_live()

    result = asyncio.run(offered_run())
    percentiles = result.percentiles_s
    return BenchResult(
        name="live_put_p99",
        ops=result.completed,
        repeats=1,
        total_s=result.duration_s,
        ops_per_s=result.throughput_rps,
        p50_ms=percentiles["p50"] * 1000.0,
        p90_ms=percentiles["p90"] * 1000.0,
        p99_ms=percentiles["p99"] * 1000.0,
    )


#: All registered micro-benchmarks, in reporting order.
BENCHMARKS = (
    bench_digest_encode,
    bench_encode_cold,
    bench_merkle_roots,
    bench_merkle_update,
    bench_page_lookup,
    bench_merge,
    bench_put_pipeline,
    bench_get_verify,
    bench_certify_per_block,
    bench_cert_pipeline_d1,
    bench_cert_pipeline_d8,
    bench_gossip_per_edge,
    bench_gossip_batch,
    bench_shard_route,
    bench_shard_handoff,
    bench_txn_cross_shard,
    bench_durable_put,
    bench_recovery_replay,
    bench_obs_overhead,
    bench_replica_read,
    bench_frame_roundtrip,
    bench_frame_transfer,
    bench_get_receive,
    bench_get_receive_cold,
    bench_get_serve,
    bench_append_echo_receive,
    bench_merge_outcome_receive,
    bench_merge_request_receive,
    bench_live_put_p99,
)


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------
def run_perf_suite(mode: str = "quick", seed: int = 7) -> dict:
    """Run every micro-benchmark and return a JSON-compatible summary."""

    quick = mode != "full"
    results: dict[str, dict] = {}
    for bench in BENCHMARKS:
        rng = random.Random(seed)
        result = bench(rng, quick)
        results[result.name] = asdict(result)
    return {
        "schema": 1,
        "suite": "hotpath",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "python": platform.python_version(),
        "results": results,
    }


def format_summary(summary: dict) -> str:
    """Render the suite summary as an aligned text table."""

    lines = [
        f"hot-path perf suite — mode={summary['mode']} seed={summary['seed']} "
        f"python={summary['python']}",
        f"{'benchmark':<16}{'ops/s':>14}{'p50 ms':>10}{'p90 ms':>10}"
        f"{'p99 ms':>10}",
    ]
    for name, result in summary["results"].items():
        lines.append(
            f"{name:<16}{result['ops_per_s']:>14,.0f}{result['p50_ms']:>10.3f}"
            f"{result['p90_ms']:>10.3f}{result['p99_ms']:>10.3f}"
        )
    return "\n".join(lines)
