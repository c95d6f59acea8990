"""Hot-path micro-benchmarks with seeded inputs and percentile reporting.

Every simulated experiment spends the bulk of its wall-clock time in a
handful of hot paths: canonical encoding (digests, signatures, ``wire_size``),
Merkle tree (re)builds, page lookups, merges, and read-proof verification.
This module times those paths in isolation with deterministic, seeded inputs
and reports throughput plus per-repeat latency percentiles (the reporting
shape follows the seeded-percentile harness idiom of faas-offloading-sim).

Results are written as ``BENCH_hotpath.json`` so later PRs can diff against
the recorded trajectory (the git history of that file).

Run via::

    python benchmarks/perf_baseline.py --mode quick

or programmatically through :func:`run_perf_suite`.
"""

from __future__ import annotations

import os
import platform
import random
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Callable

from ..common.config import LSMerkleConfig, StorageConfig, SystemConfig
from ..common.encoding import encoded_size
from ..common.identifiers import client_id, cloud_id, edge_id
from ..core.gossip import GossipView, build_gossip, build_gossip_batch, verify_gossip
from ..crypto.signatures import KeyRegistry, Signature
from ..log.block import build_block, compute_block_digest
from ..log.entry import EntryBody, LogEntry
from ..log.proofs import (
    build_certify_batch_tree,
    derive_batched_proofs,
    issue_batch_certificate,
    issue_block_proof,
    issue_phase_one_receipt,
)
from ..lsm.compaction import merge_levels, newest_versions, partition_into_pages
from ..lsm.lsm_tree import LSMTree
from ..lsm.page import build_page
from ..lsm.records import KVRecord
from ..lsmerkle.merge import CloudIndexMirror
from ..lsmerkle.mlsm import MerkleizedLSM, sign_global_root
from ..lsmerkle.read_proof import build_get_proof, verify_get_proof
from ..merkle.tree import MerkleTree
from ..messages.log_messages import CertifyBatchStatement, CertifyStatement

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


# ----------------------------------------------------------------------
# Individual micro-benchmarks
# ----------------------------------------------------------------------
def bench_digest_encode(rng: random.Random, quick: bool) -> BenchResult:
    """Digest + ``encoded_size`` over blocks: the canonical-encoder hot path.

    This is the micro-benchmark the perf ratchet tracks: every repeat
    recomputes each block's digest from its entries and charges its wire
    size, exactly what certification, gossip, and dispute verification do.
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
    """Replace a few leaves of a large tree and read the new root.

    Uses the incremental ``replace_leaf`` API when available and falls back
    to a full rebuild (the seed behaviour) otherwise, so the same workload is
    comparable across implementations.
    """

    num_leaves = 512 if quick else 2048
    updates_per_repeat = 8
    repeats = 60 if quick else 200
    leaves = [f"{rng.getrandbits(256):064x}" for _ in range(num_leaves)]
    state = {"tree": MerkleTree(leaves), "leaves": list(leaves)}
    incremental = hasattr(MerkleTree, "replace_leaf")

    def run() -> None:
        for _ in range(updates_per_repeat):
            slot = rng.randrange(num_leaves)
            digest = f"{rng.getrandbits(256):064x}"
            state["leaves"][slot] = digest
            if incremental:
                state["tree"].replace_leaf(slot, digest)
            else:
                state["tree"] = MerkleTree(state["leaves"])
        assert state["tree"].root

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
    registry = KeyRegistry()
    cloud = cloud_id("bench-cloud")
    edge = edge_id("bench-edge")
    registry.register(cloud)
    registry.register(edge)

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


#: Batch size used by the batched-certification micro-benchmark (the
#: acceptance target compares certified-blocks/s at this batch size).
CERTIFY_BENCH_BATCH_SIZE = 32


def _certification_registry(scheme: str = "hmac") -> tuple[KeyRegistry, object, object]:
    registry = KeyRegistry(scheme)
    cloud = cloud_id("bench-cloud")
    edge = edge_id("bench-edge")
    registry.register(cloud)
    registry.register(edge)
    return registry, cloud, edge


def _make_digest_pairs(rng: random.Random, count: int) -> list[tuple[int, str]]:
    return [
        (block_id, f"{rng.getrandbits(256):064x}") for block_id in range(count)
    ]


def bench_certify_per_block(rng: random.Random, quick: bool) -> BenchResult:
    """The unbatched certification round: one signature per block each way.

    Per block: the edge signs a ``CertifyStatement``, the cloud verifies it
    and signs a ``BlockProof``, and the edge verifies the proof — four
    signature operations per certified block.  Uses the Schnorr scheme: the
    point of batch certification is amortizing genuinely asymmetric
    signatures on the WAN path (a real deployment cannot use the HMAC
    oracle), so the signature-bound rows are measured with the scheme whose
    cost batching actually amortizes.  Reported as certified-blocks/s.
    """

    num_blocks = 8 if quick else 16
    repeats = 3 if quick else 5
    registry, cloud, edge = _certification_registry("schnorr")
    pairs = _make_digest_pairs(rng, num_blocks)
    counter = {"repeat": 0}

    def run() -> None:
        counter["repeat"] += 1
        now = float(counter["repeat"])
        for block_id, digest in pairs:
            statement = CertifyStatement(
                edge=edge, block_id=block_id, block_digest=digest, num_entries=100
            )
            signature = registry.sign(edge, statement)
            assert registry.verify(signature, statement)
            proof = issue_block_proof(
                registry=registry,
                cloud=cloud,
                edge=edge,
                block_id=block_id,
                block_digest=digest,
                certified_at=now,
            )
            assert proof.verify(registry)

    return _time_repeats("certify_per_block", run, num_blocks, repeats)


def bench_certify_batch(rng: random.Random, quick: bool) -> BenchResult:
    """Batched certification: one signature per batch amortized over N blocks.

    Per batch of ``CERTIFY_BENCH_BATCH_SIZE``: the edge signs one
    ``CertifyBatchStatement``, the cloud verifies it, builds the Merkle tree
    over the block digests and signs the single batch root, and the edge
    derives every per-block proof locally and verifies each one (leaf digest
    + membership path; the root signature is checked once and memoized).
    Same Schnorr scheme and reporting unit (certified-blocks/s) as
    ``certify_per_block``, so the two rows compare directly.
    """

    batch_size = CERTIFY_BENCH_BATCH_SIZE
    num_blocks = batch_size if quick else batch_size * 2
    repeats = 3 if quick else 5
    registry, cloud, edge = _certification_registry("schnorr")
    pairs = _make_digest_pairs(rng, num_blocks)
    counter = {"repeat": 0}

    def run() -> None:
        counter["repeat"] += 1
        now = float(counter["repeat"])
        for start in range(0, len(pairs), batch_size):
            chunk = tuple(pairs[start : start + batch_size])
            items = tuple(
                CertifyStatement(
                    edge=edge, block_id=bid, block_digest=d, num_entries=100
                )
                for bid, d in chunk
            )
            batch_statement = CertifyBatchStatement(edge=edge, items=items)
            signature = registry.sign(edge, batch_statement)
            assert registry.verify(signature, batch_statement)
            tree = build_certify_batch_tree(chunk)
            certificate = issue_batch_certificate(
                registry=registry,
                cloud=cloud,
                edge=edge,
                batch_root=tree.root,
                num_blocks=len(chunk),
                certified_at=now,
            )
            for proof in derive_batched_proofs(certificate, chunk):
                assert proof.verify(registry)

    return _time_repeats("certify_batch", run, num_blocks, repeats)


def _make_pipeline_pair(depth: int, pairs):
    """A real EdgeNode + CloudNode with *pairs* queued for certification.

    The pipeline rows time the windowed certify protocol a fleet runs — the
    edge's pump signing requests, the cloud's handler verifying, ordering and
    signing, the edge absorbing certificates — so they need genuine
    asymmetric signatures and the nodes themselves, co-located so the event
    loop adds no modelled delay.  *pairs* are ``(block id, digest)``: tracked
    and enqueued on the edge's certifier here, outside any timed region,
    exactly where a formed block's digest sits before the pump runs.
    """

    from ..common.config import LoggingConfig
    from ..nodes.cloud import CloudNode
    from ..nodes.edge import EdgeNode
    from ..sim.environment import local_environment

    env = local_environment(signature_scheme="schnorr", seed=7)
    config = SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(
            certify_batch_size=CERTIFY_BENCH_BATCH_SIZE,
            certify_pipeline_depth=depth,
        )
    )
    cloud = CloudNode(env=env, config=config, name="bench-cloud")
    edge = EdgeNode(env=env, cloud=cloud.node_id, config=config, name="bench-edge")
    for block_id, digest in pairs:
        edge.certifier.track(block_id, digest, requested_at=env.now())
        edge.certifier.enqueue_for_dispatch(block_id)
    return env, cloud, edge


def _bench_cert_pipeline(
    rng: random.Random, quick: bool, depth: int, name: str
) -> BenchResult:
    num_blocks = depth * CERTIFY_BENCH_BATCH_SIZE
    repeats = (3 if quick else 5) if depth == 1 else (2 if quick else 4)
    # One fresh pair per repeat, built outside the timed region: the cloud's
    # certified-digest map is append-only, so a second window over the same
    # pair would need new ids, and key generation is not what the row times.
    fleets = iter(
        [
            _make_pipeline_pair(depth, _make_digest_pairs(rng, num_blocks))
            for _ in range(repeats)
        ]
    )

    def run() -> None:
        env, _cloud, edge = next(fleets)
        edge._pump_certify_pipeline()
        env.run()
        assert edge.certifier.certified_count == num_blocks

    return _time_repeats(name, run, num_blocks, repeats)


def bench_cert_pipeline_d1(rng: random.Random, quick: bool) -> BenchResult:
    """Windowed certification through the nodes at depth 1: the serial path.

    One ``EdgeNode._pump_certify_pipeline()`` ships one 32-block
    ``CertifyBatchRequest``; the ``CloudNode`` verifies it, orders the
    digests and signs the batch root; the edge verifies the certificate and
    derives every proof.  That is the per-batch exchange of
    ``certify_batch`` plus message dispatch, so this row must track
    ``certify_batch`` within noise.  Reported as certified-blocks/s.
    """

    return _bench_cert_pipeline(rng, quick, depth=1, name="cert_pipeline_d1")


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

    return _bench_cert_pipeline(rng, quick, depth=8, name="cert_pipeline_d8")


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

    from ..sharding.partitioner import HashRingPartitioner
    from ..sharding.router import ShardRouter
    from ..sharding.shard_map import ShardMapView, build_shard_map_message

    num_shards = 16
    num_edges = 4
    routes_per_repeat = 2000 if quick else 8000
    repeats = 15 if quick else 40
    registry, cloud, _ = _certification_registry()
    edges = [edge_id(f"bench-edge-{index}") for index in range(num_edges)]
    assignments = {
        shard_id: edges[shard_id % num_edges] for shard_id in range(num_shards)
    }
    message = build_shard_map_message(
        registry, cloud, 1, num_shards, "hash-ring", assignments, 1.0
    )
    view = ShardMapView(cloud=cloud)
    assert view.update(registry, message)
    router = ShardRouter(HashRingPartitioner(num_shards), view)
    keys = [f"key{rng.randrange(10**8):012d}" for _ in range(routes_per_repeat)]

    def run() -> None:
        for key in keys:
            route = router.route(key)
            assert route.owner is not None

    return _time_repeats("shard_route", run, routes_per_repeat, repeats)


def bench_shard_handoff(rng: random.Random, quick: bool) -> BenchResult:
    """The certified shard-handoff crypto pipeline, end to end.

    Per handoff of a 32-block shard: the source signs the offer (certified
    log prefix + state digest), the cloud verifies it, recomputes the state
    digest from its mirror digests, and countersigns the grant plus the
    refreshed shard map, and the destination verifies the certificate and
    recomputes the state digest from the transferred digests.  Reported as
    handoffs/s.
    """

    from ..messages.shard_messages import (
        HandoffGrantStatement,
        ShardHandoffCertificate,
        ShardHandoffStatement,
    )
    from ..sharding.handoff import shard_state_digest
    from ..sharding.shard_map import build_shard_map_message

    num_blocks = 32
    repeats = 30 if quick else 100
    registry, cloud, source = _certification_registry()
    dest = edge_id("bench-edge-dest")
    registry.register(dest)
    blocks = tuple(_make_digest_pairs(rng, num_blocks))
    level_roots = tuple(f"{rng.getrandbits(256):064x}" for _ in range(3))
    assignments = {0: source, 1: dest}
    counter = {"repeat": 0}

    def run() -> None:
        counter["repeat"] += 1
        now = float(counter["repeat"])
        digest = shard_state_digest(0, level_roots, blocks)
        offer = ShardHandoffStatement(
            edge=source,
            dest=dest,
            shard_id=0,
            blocks=blocks,
            state_digest=digest,
            issued_at=now,
        )
        offer_sig = registry.sign(source, offer)
        # Cloud side: verify the offer, recompute, countersign, re-sign map.
        assert registry.verify(offer_sig, offer)
        assert shard_state_digest(0, level_roots, offer.blocks) == offer.state_digest
        grant = HandoffGrantStatement(
            cloud=cloud,
            source=source,
            dest=dest,
            shard_id=0,
            map_version=counter["repeat"] + 1,
            state_digest=digest,
            num_blocks=num_blocks,
            issued_at=now,
        )
        certificate = ShardHandoffCertificate(
            statement=grant, signature=registry.sign(cloud, grant)
        )
        build_shard_map_message(
            registry, cloud, counter["repeat"] + 1, 2, "hash-ring", assignments, now
        )
        # Destination side: verify the certificate and the received digests.
        assert certificate.verify(registry)
        assert shard_state_digest(0, level_roots, blocks) == certificate.state_digest

    return _time_repeats("shard_handoff", run, 1, repeats)


def bench_txn_cross_shard(rng: random.Random, quick: bool) -> BenchResult:
    """The cross-shard 2PC crypto pipeline, end to end (HMAC substrate).

    Per transaction spanning 2 participant shards: the coordinator signs
    the client entries and one prepare statement per shard, each
    participant verifies the statement and signs a prepare receipt bound to
    the staged write set, the coordinator verifies both receipts and signs
    the commit decision, and each participant verifies the decision.  That
    is every signature the protocol adds on top of the ordinary put path
    (the commit block's Phase I receipt and certification are charged to
    the existing rows).  Reported as transactions/s.
    """

    from ..crypto.hashing import digest_value
    from ..log.entry import make_entry
    from ..lsmerkle.codec import encode_put
    from ..messages.txn_messages import (
        TXN_COMMIT,
        TxnDecisionMessage,
        TxnDecisionStatement,
        TxnId,
        TxnPrepareReceipt,
        TxnPrepareReceiptStatement,
        TxnPrepareStatement,
        TxnWrite,
    )

    num_shards = 2
    writes_per_shard = 4
    repeats = 40 if quick else 150
    txns_per_repeat = 5
    registry, cloud, edge_a = _certification_registry()
    edge_b = edge_id("bench-edge-b")
    coordinator = client_id("bench-coordinator")
    registry.register(edge_b)
    registry.register(coordinator)
    edges = (edge_a, edge_b)
    items = [
        [
            (f"key{rng.randrange(10**8):012d}", bytes(rng.getrandbits(8) for _ in range(64)))
            for _ in range(writes_per_shard)
        ]
        for _ in range(num_shards)
    ]
    counter = {"txn": 0, "entry": 0}

    def run() -> None:
        for _ in range(txns_per_repeat):
            counter["txn"] += 1
            txn_id = TxnId(coordinator=coordinator, sequence=counter["txn"])
            now = float(counter["txn"])
            receipts: list[TxnPrepareReceipt] = []
            for shard_id, edge in enumerate(edges):
                entries = []
                writes = []
                for key, value in items[shard_id]:
                    counter["entry"] += 1
                    entries.append(
                        make_entry(
                            registry, coordinator, counter["entry"],
                            encode_put(key, value), now,
                        )
                    )
                    writes.append(TxnWrite(key=key, value_digest=digest_value(value)))
                statement = TxnPrepareStatement(
                    coordinator=coordinator,
                    txn_id=txn_id,
                    shard_id=shard_id,
                    writes=tuple(writes),
                    participant_shards=(0, 1),
                    staged_floor=counter["txn"],
                    issued_at=now,
                )
                signature = registry.sign(coordinator, statement)
                # Participant side: verify the prepare, sign the receipt.
                assert registry.verify(signature, statement)
                receipt_statement = TxnPrepareReceiptStatement(
                    edge=edge,
                    txn_id=txn_id,
                    shard_id=shard_id,
                    log_position=counter["txn"],
                    writes=statement.writes,
                    prepare_digest=digest_value(statement),
                    prepared_at=now,
                    expires_at=now + 5.0,
                )
                receipts.append(
                    TxnPrepareReceipt(
                        statement=receipt_statement,
                        signature=registry.sign(edge, receipt_statement),
                    )
                )
            # Coordinator side: verify every receipt, sign the decision.
            for receipt in receipts:
                assert receipt.verify(registry)
            decision_statement = TxnDecisionStatement(
                coordinator=coordinator,
                txn_id=txn_id,
                decision=TXN_COMMIT,
                participant_shards=(0, 1),
                decided_at=now,
            )
            decision = TxnDecisionMessage(
                statement=decision_statement,
                signature=registry.sign(coordinator, decision_statement),
            )
            # Each participant verifies the decision before applying.
            for _edge in edges:
                assert decision.verify(registry)

    return _time_repeats("txn_cross_shard", run, txns_per_repeat, repeats)


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


def bench_obs_overhead(rng: random.Random, quick: bool) -> BenchResult:
    """The ``put_pipeline`` workload with live observability bookkeeping.

    Same record batches and LSM compaction as ``put_pipeline``, plus the
    per-batch work an observability-enabled edge performs: registry-mirrored
    :class:`~repro.obs.metrics.StatsDict` counter updates, a pipeline gauge
    set, and one histogram observation.  Read the instrumentation overhead
    by comparing ops/s against the ``put_pipeline`` row; the chaos suite
    separately asserts the enabled overhead stays under 5% and that
    disabled observability adds zero work to the hot path.
    """

    from ..obs.metrics import MetricsRegistry, StatsDict

    batches = 40 if quick else 120
    batch_size = 100
    repeats = 6 if quick else 12
    batches_of_records = [
        _make_records(rng, batch_size, key_space=batch_size * batches)
        for _ in range(batches)
    ]

    def run() -> None:
        registry = MetricsRegistry("bench-edge")
        stats = StatsDict(registry, {"entries_logged": 0, "blocks_formed": 0})
        latency = registry.histogram("certify_latency_s")
        in_flight = registry.gauge("certify_in_flight", shard="default")
        tree = LSMTree(config=LSMerkleConfig(level_thresholds=(4, 8, 64, 512)))
        for index, records in enumerate(batches_of_records):
            page = build_page(records, created_at=float(index))
            stats["entries_logged"] += len(records)
            stats["blocks_formed"] += 1
            in_flight.set(index % 8)
            latency.observe(0.001 * (index % 50))
            if tree.add_level_zero_page(page):
                tree.compact_all(created_at=float(index))
        assert registry.snapshot()["counters"]["entries_logged"] == batches * batch_size

    return _time_repeats("obs_overhead", run, batches * batch_size, repeats)


def bench_replica_read(rng: random.Random, quick: bool) -> BenchResult:
    """Leased replica reads: route, sticky member pick, lease validation.

    A ``replication_factor=3`` shard map (one certifying writer plus k=2
    read replicas per shard) serves a Zipfian(0.99) read stream.  Per
    read: the client routes the key, picks its sticky replica-set member
    (the crc32 spread that pins a session to one member), and — when the
    pick is a replica — validates the member's freshness lease: the cloud
    signature plus the replica/shard/expiry pins.  That is exactly the
    work a replica read adds on top of the ``get_verify`` proof path; the
    k=0 cost of the same stream is the ``shard_route`` row (route only,
    no member pick, no lease), so the replica-set overhead is the ratio
    of the two.  Reported as reads/s.
    """

    import zlib

    from ..messages.shard_messages import ReplicaLease, ReplicaLeaseStatement
    from ..sharding.partitioner import HashRingPartitioner
    from ..sharding.router import ShardRouter
    from ..sharding.shard_map import ShardMapView, build_shard_map_message
    from ..sim.rng import DeterministicRng
    from ..workloads.generator import KeySpace

    num_shards = 16
    num_edges = 4
    reads_per_repeat = 2000 if quick else 8000
    repeats = 15 if quick else 40
    registry, cloud, _ = _certification_registry()
    client = client_id("bench-client")
    edges = [edge_id(f"bench-edge-{index}") for index in range(num_edges)]
    assignments = {
        shard_id: edges[shard_id % num_edges] for shard_id in range(num_shards)
    }
    replicas = {
        shard_id: (
            edges[(shard_id + 1) % num_edges],
            edges[(shard_id + 2) % num_edges],
        )
        for shard_id in range(num_shards)
    }
    message = build_shard_map_message(
        registry, cloud, 1, num_shards, "hash-ring", assignments, 1.0,
        replicas=replicas,
    )
    view = ShardMapView(cloud=cloud)
    assert view.update(registry, message)
    router = ShardRouter(HashRingPartitioner(num_shards), view)
    leases = {}
    for shard_id in range(num_shards):
        for member in (assignments[shard_id], *replicas[shard_id]):
            statement = ReplicaLeaseStatement(
                cloud=cloud,
                replica=member,
                shard_id=shard_id,
                map_version=1,
                issued_at=1.0,
                expires_at=10.0,
            )
            leases[(shard_id, member)] = ReplicaLease(
                statement=statement, signature=registry.sign(cloud, statement)
            )
    key_space = KeySpace(10_000, distribution="zipfian", zipf_theta=0.99)
    sampler = DeterministicRng(rng.randrange(2**31))
    keys = [key_space.sample(sampler) for _ in range(reads_per_repeat)]

    def run() -> None:
        for key in keys:
            route = router.route(key)
            members = (route.owner, *view.replicas_of(route.shard_id))
            pick = members[
                zlib.crc32(f"{client}:{route.shard_id}".encode())
                % len(members)
            ]
            if pick != route.owner:
                lease = leases[(route.shard_id, pick)]
                assert lease.verify(registry)
                assert lease.statement.cloud == cloud
                assert lease.statement.replica == pick
                assert lease.statement.shard_id == route.shard_id
                assert lease.statement.issued_at <= lease.statement.expires_at

    return _time_repeats("replica_read", run, reads_per_repeat, repeats)


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


def bench_live_put_p99(rng: random.Random, quick: bool) -> BenchResult:
    """Open-loop Poisson puts against a live 1-edge asyncio fleet.

    The only row measured under real time: a seeded Poisson arrival stream
    of put batches is offered to a 1-cloud/1-edge fleet running on the
    wall-clock asyncio transport (unix sockets, codec-framed messages),
    and per-request Phase I response times are recorded.  ``ops_per_s`` is
    settled requests per second of wall time; the percentile columns are
    the *response-time* percentiles (p50/p90/p99), not per-repeat harness
    times — this is the tail-latency-under-load row the simulator cannot
    produce.  Wall-clock numbers vary with the host, so the row rides in
    ``non_gating`` first, per convention.
    """

    import asyncio

    from ..common.config import WorkloadConfig
    from ..service import LiveFleet
    from ..workloads.openloop import OpenLoopSpec, run_open_loop
    from .runner import config_for_batch

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
            return await run_open_loop(fleet, spec)

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
    bench_merkle_roots,
    bench_merkle_update,
    bench_page_lookup,
    bench_merge,
    bench_put_pipeline,
    bench_get_verify,
    bench_certify_per_block,
    bench_certify_batch,
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
