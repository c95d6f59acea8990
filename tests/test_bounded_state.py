"""Retention bounds: what a long put run leaves behind on the cloud and edge.

A put stream over a fixed key set must not grow the cloud with the data it
merged.  The cloud keeps one signed root per executed merge (its duplicate
answer is rebuilt from the re-sent proposal) and holds the records of the
upper levels it last answered with, never the bottom; the edge releases the
decoded records and the canonical-text memos of every block a merge
consumed.  A block the edge formed keeps its own canonical text
while it backs level 0, and only then; a client keeps a key map for each
block it holds for its gets, and only for those.  The run is the paper's
defaults with ``block_size=100``: one client writes 64-byte values over
5 000 keys and waits for each batch's Phase II before the next.  A mixed
run checks that verifying gets does not undo the edge's release, and a
replicated shard that a replica releases the blocks its writer merged.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import sys
import tracemalloc
from types import FunctionType, ModuleType

import pytest

from repro.bench.runner import build_system, config_for_batch
from repro.common.config import (
    LoggingConfig,
    LSMerkleConfig,
    ShardingConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.common.encoding import FRAGMENT_ATTR, reference_encode
from repro.faults import CrashEvent, FaultInjector, FaultPlan
from repro.log.block import Block
from repro.log.entry import make_entry
from repro.log.proofs import CommitPhase
from repro.lsm.page import Page
from repro.lsm.records import KVRecord
from repro.lsmerkle.codec import encode_put, records_from_block
from repro.lsmerkle.merge import MergeOutcome
from repro.messages import (
    GetResponse,
    MergeRejection,
    MergeRequest,
    ReplicaLogShipment,
)
from repro.sharding.system import ShardedWedgeSystem
from repro.sim.environment import local_environment
from repro.storage.codec import decode_record, encode_record
from repro.workloads import LoadDriver
from repro.workloads.generator import format_key

KEYS = 5_000
BATCH = 100
WARMUP_PUTS = 4_000
MEASURED_PUTS = 8_000
#: Retained bytes per put after warm-up, the edge's log included.  Measured
#: on CPython 3.11 (x86-64), the same under any hash seed: 885 B, against
#: 1 521 B when merged blocks kept the canonical text of their entries and
#: 1 947 B when the cloud also kept every merge response and merged blocks
#: kept their decoded records.  The bound is that measurement plus 8 %.
MAX_RETAINED_BYTES_PER_PUT = 956
#: Dedup-table bytes per executed merge: a signed root, its memos and its
#: key (1 192 B measured as above).
MAX_DEDUP_BYTES_PER_MERGE = 4_096


@pytest.fixture(scope="module")
def long_put_run():
    system = build_system("wedgechain", config=config_for_batch(BATCH), seed=11)
    client = system.clients[0]
    rng = random.Random(11)

    def puts(count: int) -> None:
        for _ in range(count // BATCH):
            items = [
                (format_key(rng.randrange(KEYS)), rng.randbytes(64))
                for _ in range(BATCH)
            ]
            op = client.put_batch(items)
            phase = system.wait_for(client, op, CommitPhase.PHASE_TWO, max_time_s=60)
            assert phase is CommitPhase.PHASE_TWO
        system.run()
        gc.collect()

    tracemalloc.start()
    try:
        puts(WARMUP_PUTS)
        before = tracemalloc.get_traced_memory()[0]
        puts(MEASURED_PUTS)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return system, (after - before) / MEASURED_PUTS


def _memoized_outside_level_zero(log, level_zero_blocks) -> list[int]:
    level_zero = set(level_zero_blocks)
    return [
        record.block.block_id
        for record in log
        if record.block.block_id not in level_zero
        and getattr(record.block, "_records_cache", None) is not None
    ]


def _reachable(root) -> list:
    """Every object reachable from *root*, not entering code or classes."""

    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(value, (type, ModuleType, FunctionType)):
            continue
        seen[id(value)] = value
        stack.extend(gc.get_referents(value))
    return list(seen.values())


def test_cloud_dedup_table_keeps_digests_not_pages(long_put_run):
    system, _per_put = long_put_run
    cloud = system.cloud
    merges = cloud.stats["merges"]
    assert merges >= 10
    table = cloud._merge_responses
    assert len(table) == merges
    reachable = _reachable(table)
    kept = {type(value).__name__ for value in reachable}
    assert not kept & {cls.__name__ for cls in (Page, KVRecord, Block, MergeOutcome)}
    size = sum(sys.getsizeof(value) for value in reachable)
    assert size <= MAX_DEDUP_BYTES_PER_MERGE * merges


def test_merged_blocks_release_their_decoded_records(long_put_run):
    system, _per_put = long_put_run
    edge = system.edge()
    assert _memoized_outside_level_zero(edge.log, edge.level_zero_blocks) == []


def test_merged_blocks_keep_only_what_was_signed(long_put_run):
    # A block outside level 0 is never sent again by a get or a merge, so
    # neither it nor any entry, body or signature of it keeps its canonical
    # text; a level-0 block keeps its own, which gets and merges send as
    # one string, and the bodies and signatures the block digest hashed
    # keep theirs.
    system, _per_put = long_put_run
    edge = system.edge()
    level_zero = set(edge.level_zero_blocks)
    assert level_zero and len(level_zero) < len(list(edge.log))

    def memos(block, parts) -> list[bool]:
        return [
            getattr(part, FRAGMENT_ATTR, None) is not None
            for entry in block.entries
            for part in parts(entry)
        ]

    for record in edge.log:
        block = record.block
        if block.block_id in level_zero:
            assert all(memos(block, lambda e: (e.body, e.signature)))
            assert getattr(block, FRAGMENT_ATTR) == reference_encode(block).decode()
        else:
            assert not any(memos(block, lambda e: (e, e.body, e.signature)))
            assert getattr(block, FRAGMENT_ATTR, None) is None


def test_verified_gets_leave_no_memo_on_merged_blocks():
    # On the simulator a get proof carries the edge's own level-0 blocks.  A
    # get answered just before a merge lands is verified after it, so a
    # verifier that memoized would re-attach what the edge released.
    system = build_system("wedgechain", config=config_for_batch(BATCH), num_clients=3)
    workload = WorkloadConfig(
        num_clients=3,
        batch_size=BATCH,
        read_fraction=0.5,
        key_space=KEYS,
        operations_per_client=2_000,
    )
    LoadDriver(system, workload).run()
    system.run()
    assert system.cloud.stats["merges"] >= 3
    edge = system.edge()
    assert _memoized_outside_level_zero(edge.log, edge.level_zero_blocks) == []


def test_replica_releases_records_of_blocks_merged_out_of_level_zero():
    # Shipments go through the wire codec, so the replica holds its own
    # copies of the blocks as on a live fleet (on the simulator it would
    # otherwise share the writer's objects, whose memos the writer releases).
    config = SystemConfig.paper_default().with_overrides(
        num_edge_nodes=2,
        logging=LoggingConfig(block_size=4, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
        sharding=ShardingConfig(num_shards=1, replication_factor=2),
    )
    system = ShardedWedgeSystem.build(
        config=config, num_clients=1, env=local_environment(seed=5)
    )
    send = system.env.send

    def send_over_wire(src, dst, message):
        if isinstance(message, ReplicaLogShipment):
            message = decode_record(encode_record(message))
        return send(src, dst, message)

    system.env.send = send_over_wire
    client = system.clients[0]
    for block in range(12):
        client.put_batch([(f"k-{block}-{i}", b"v%d" % i) for i in range(4)])
        system.run_for(0.5)
    system.run_for(3.0)
    replica = system.edges[1]
    state = replica._replica_states[0]
    assert replica.stats["replica_shipments_installed"] >= 2
    assert len(state.level_zero_blocks) < len(list(state.log))
    assert _memoized_outside_level_zero(state.log, state.level_zero_blocks) == []


def test_retained_bytes_per_put_stay_bounded(long_put_run):
    _system, per_put = long_put_run
    assert per_put <= MAX_RETAINED_BYTES_PER_PUT


def _upper_level_records(cloud, edge, state) -> list:
    """The records of the pages the cloud's mirror of *state* lists for
    levels 1 … n−2, which the edge's own pages of those levels must match."""

    mirror = cloud.mirror_for(edge.node_id, state.shard_id)
    levels = state.index.tree.levels
    records = []
    for level in range(1, len(levels) - 1):
        pages = levels[level].pages
        assert [page.digest() for page in pages] == mirror.level_page_digests[level]
        records += [record for page in pages for record in page.records]
    return records


def _ids(objects) -> list[int]:
    return sorted(map(id, objects))


class TestCloudHold:
    """The cloud holds the records of the merged pages it last answered for
    each level above the bottom, per partition: no more, never the bottom
    level, unchanged by a duplicate or a rejection, and released with the
    partition's mirror."""

    def test_the_cloud_holds_its_mirrors_upper_levels(self, long_put_run):
        system, _per_put = long_put_run
        edge, cloud = system.edge(), system.cloud
        upper = _upper_level_records(cloud, edge, edge._default_partition)
        assert upper and _ids(cloud.held.objects()) == _ids(upper)

    def test_the_bottom_level_is_never_held(self):
        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(block_size=4),
            lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 2, 100)),
        )
        system = build_system("wedgechain", config=config, seed=3)
        client = system.clients[0]
        for batch in range(40):
            operation = client.put_batch(
                [(format_key((7 * batch + i) % 60), b"v%d" % batch) for i in range(4)]
            )
            phase = system.wait_for(client, operation, CommitPhase.PHASE_TWO, 30)
            assert phase is CommitPhase.PHASE_TWO
        system.run()
        edge, cloud = system.edge(), system.cloud
        state = edge._default_partition
        bottom = [record for page in state.index.tree.levels[-1].pages for record in page.records]
        assert bottom and cloud.stats["merges"] > 10
        held = cloud.held.objects()
        assert _ids(held) == _ids(_upper_level_records(cloud, edge, state))
        assert not set(map(id, held)) & set(map(id, bottom))

    def test_a_duplicate_or_a_rejected_merge_leaves_the_hold(self):
        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(block_size=4),
            lsmerkle=LSMerkleConfig(level_thresholds=(2, 10, 100)),
        )
        system = build_system("wedgechain", config=config, seed=3)
        requests = []

        def record(_src, _dst, message) -> bool:
            if isinstance(message, MergeRequest):
                requests.append(message)
            return True

        system.env.network.add_send_hook("test:merges", record)
        client, edge, cloud = system.clients[0], system.edge(), system.cloud
        for batch in range(8):
            client.put_batch([(f"k{batch}-{i}", b"v") for i in range(4)])
        system.run()
        assert cloud.stats["merges"] >= 2
        held = _ids(cloud.held.objects())
        assert held
        # The first merge again: its answer's pages are no longer level 1.
        cloud.on_message(edge.node_id, requests[0])
        assert cloud.stats["merge_duplicate_requests"] == 1
        assert _ids(cloud.held.objects()) == held
        stale = dataclasses.replace(requests[-1].proposal, target_pages=())
        cloud.on_message(edge.node_id, MergeRequest(edge=edge.node_id, proposal=stale))
        assert cloud.stats["merge_rejections"] == 1
        assert _ids(cloud.held.objects()) == held

    @staticmethod
    def sharded(replication_factor: int = 1, **sharding) -> ShardedWedgeSystem:
        config = SystemConfig.paper_default().with_overrides(
            num_edge_nodes=2,
            logging=LoggingConfig(block_size=4, block_timeout_s=0.02),
            lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 100, 1000)),
            sharding=ShardingConfig(
                num_shards=2, replication_factor=replication_factor, **sharding
            ),
        )
        system = ShardedWedgeSystem.build(
            config=config, num_clients=1, env=local_environment(seed=5)
        )
        client = system.clients[0]
        for block in range(12):
            client.put_batch([(f"k-{block}-{i}", b"v%d" % i) for i in range(4)])
            system.run_for(0.5)
        system.run_for(3.0)
        return system

    @staticmethod
    def held_keys(cloud) -> set:
        return {key for key, levels in cloud._answered.items() if levels}

    def test_a_handoff_releases_the_old_owners_hold(self):
        system = self.sharded()
        cloud = system.cloud
        source = system.edges[0]
        shard = next(
            shard for shard in source.owned_shards()
            if (source.node_id, shard) in self.held_keys(cloud)
        )
        before = len(cloud.held.objects())
        system.rebalance_shard(shard, system.edges[1].node_id)
        system.run_for(10.0)
        assert system.shard_owner(shard) == system.edges[1].node_id
        assert (source.node_id, shard) not in cloud._answered
        assert len(cloud.held.objects()) < before
        assert ("merge", source.node_id, shard) not in cloud.held._holds

    def test_a_failover_releases_the_deposed_writers_hold(self):
        system = self.sharded(
            replication_factor=2, replica_lease_s=1.0, failover_timeout_s=1.0
        )
        cloud = system.cloud
        writer = system.edge_by_id(system.shard_owner(0))
        keys = {(writer.node_id, shard) for shard in writer.owned_shards()}
        assert keys & self.held_keys(cloud)
        plan = FaultPlan(seed=5, name="writer-crash").with_crash(
            CrashEvent(writer.node_id, at_s=system.env.now() + 0.05)
        )
        FaultInjector(system.env, plan).install()
        system.run_for(10.0)
        assert cloud.stats["replica_promotions"] == len(keys)
        assert not keys & set(cloud._answered)
        assert not {("merge", *key) for key in keys} & set(cloud.held._holds)


class TestHeldSets:
    """What a node holds for its decoder goes by the node's own rule: a
    client's entries until Phase I or failure and the level-0 blocks of its
    latest verified get per edge (with a key map per block), an edge's
    merge inputs until the merge's outcome, rejection or a crash."""

    @pytest.fixture
    def system(self):
        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(block_size=4),
            lsmerkle=LSMerkleConfig(level_thresholds=(2, 10, 100)),
        )
        return build_system("wedgechain", config=config, seed=3)

    @staticmethod
    def put(client, batch: int):
        return client.put_batch([(f"k{batch}-{i}", b"v") for i in range(4)])

    @staticmethod
    def merge_in_flight(system):
        """Run *system* until its edge proposes a merge; the merge's inputs."""

        edge = system.edge()
        assert system.env.run_until_condition(
            lambda: edge.stats["merges_started"] >= 1, system.env.now() + 30.0
        )
        state = edge._default_partition
        assert state.merge_in_flight
        blocks = [state.log.block(block_id) for block_id in state.merge_source_bids]
        return [record for block in blocks for record in records_from_block(block)]

    def test_a_write_holds_its_entries_until_phase_one(self, system):
        client = system.clients[0]
        operation = self.put(client, 0)
        assert client.held.objects() == list(client.operation(operation).entries)
        phase = system.wait_for(client, operation, CommitPhase.PHASE_ONE, max_time_s=30)
        assert phase is not CommitPhase.PENDING
        assert client.held.objects() == []

    def test_a_failed_write_releases_its_entries(self, system):
        client = system.clients[0]
        operation = self.put(client, 0)
        client.tracker.mark_failed(operation, system.env.now(), "refused")
        assert client.held.objects() == []

    def test_an_edge_holds_a_merges_records_until_its_outcome(self, system):
        client, edge = system.clients[0], system.edge()
        for batch in range(3):
            self.put(client, batch)
        inputs = self.merge_in_flight(system)
        assert inputs and edge.held.objects() == inputs
        assert system.env.run_until_condition(
            lambda: edge.stats["merges_completed"] >= 1, system.env.now() + 30.0
        )
        assert not edge._default_partition.merge_in_flight
        assert edge.held.objects() == []

    def test_a_rejected_merge_or_a_crash_releases_the_records(self, system):
        client, edge = system.clients[0], system.edge()
        for batch in range(3):
            self.put(client, batch)
        inputs = self.merge_in_flight(system)
        assert inputs and edge.held.objects() == inputs
        rejection = MergeRejection(
            cloud=system.cloud.node_id, edge=edge.node_id, level_index=0, reason="test"
        )
        edge._handle_merge_rejection(edge._default_partition, system.cloud.node_id, rejection)
        assert edge.held.objects() == []
        edge._send_merge(
            edge._default_partition, edge._build_merge_proposal(edge._default_partition, 0)
        )
        assert edge.held.objects()
        edge.on_crash()
        assert edge.held.objects() == []

    # ---------------------------------------------------- a reader's gets
    @staticmethod
    def two_edges():
        """A reader on edge 0 and a writer on edge 1; every get response sent
        to the reader is recorded per edge, and withheld while *veto* is
        non-empty."""

        config = SystemConfig.paper_default().with_overrides(
            num_edge_nodes=2,
            logging=LoggingConfig(block_size=4),
            lsmerkle=LSMerkleConfig(level_thresholds=(4, 10, 100)),
        )
        system = build_system("wedgechain", config=config, num_clients=2, seed=3)
        reader = system.clients[0]
        responses: dict = {edge.node_id: [] for edge in system.edges}
        veto: list = []

        def record(_src, dst, message) -> bool:
            if isinstance(message, GetResponse) and dst == reader.node_id:
                responses[message.statement.edge].append(message)
                return not veto
            return True

        system.env.network.add_send_hook("test:gets", record)
        return system, responses, veto

    def settle(self, system, client, batch: int) -> None:
        operation = self.put(client, batch)
        phase = system.wait_for(client, operation, CommitPhase.PHASE_TWO, max_time_s=30)
        assert phase is CommitPhase.PHASE_TWO

    @staticmethod
    def read(system, edge):
        reader = system.clients[0]
        operation = reader.get("k0-0", edge=edge.node_id)
        phase = system.wait_for(reader, operation, CommitPhase.PHASE_TWO, max_time_s=30)
        assert phase is CommitPhase.PHASE_TWO

    @staticmethod
    def ids(blocks) -> list[int]:
        return [id(block) for block in blocks]

    @staticmethod
    def mapped(reader) -> list[int]:
        """The blocks *reader* keeps a key map for, held order per edge."""

        return [
            id(block)
            for maps in reader._key_maps.values()
            for block, _map in maps.values()
        ]

    def test_a_reader_holds_the_level_zero_of_its_latest_get_per_edge(self):
        system, responses, _veto = self.two_edges()
        reader, writer = system.clients

        def latest(edge):
            return [item.block for item in responses[edge.node_id][-1].proof.level_zero]

        for batch in range(3):
            self.settle(system, reader, batch)
            self.settle(system, writer, batch)
            for _ in range(2):
                for edge in system.edges:
                    self.read(system, edge)
            assert [len(latest(edge)) for edge in system.edges] == [batch + 1] * 2
            assert self.ids(reader.held.objects()) == self.ids(
                latest(system.edge(0)) + latest(system.edge(1))
            )
            assert self.mapped(reader) == self.ids(reader.held.objects())
        # On the simulator nothing decodes, so no span text is ever built.
        assert reader.held._index == {} and writer.held._index == {}

    def test_a_root_only_proof_after_a_merge_empties_that_edges_hold(self):
        system, responses, _veto = self.two_edges()
        reader, writer = system.clients
        edge = system.edge(0)
        self.settle(system, reader, 0)
        self.settle(system, writer, 0)
        for each in system.edges:
            self.read(system, each)
        assert len(reader.held.objects()) == 2
        # A merge of every certified level-0 block leaves level 0 empty.
        state = edge._default_partition
        edge._send_merge(state, edge._build_merge_proposal(state, 0))
        system.run()
        assert edge.stats["merges_completed"] == 1 and edge.level_zero_blocks == []
        self.read(system, edge)
        proof = responses[edge.node_id][-1].proof
        assert proof.level_zero == () and proof.signed_root is not None
        other = responses[system.edge(1).node_id][-1].proof.level_zero
        assert self.ids(reader.held.objects()) == self.ids(item.block for item in other)
        assert reader._key_maps[edge.node_id] == {}
        assert self.mapped(reader) == self.ids(reader.held.objects())

    def test_a_get_that_fails_verification_leaves_the_hold(self):
        system, responses, veto = self.two_edges()
        reader = system.clients[0]
        edge = system.edge(0)
        for batch in range(2):
            self.settle(system, reader, batch)
        for _ in range(2):
            self.read(system, edge)
        held = self.ids(reader.held.objects())
        maps = dict(reader._key_maps[edge.node_id])
        assert len(held) == 2 and self.mapped(reader) == held
        self.settle(system, reader, 2)
        # Three gets whose honest answers are withheld and forged: a level-0
        # block that is not the one certified, a value the proof denies, an
        # uncertified level-0 block holding a malformed put.  The two blocks
        # the reader holds are answered from their key maps each time.
        veto.append(True)
        for _ in range(3):
            reader.get("k0-0", edge=edge.node_id)
        assert system.env.run_until_condition(
            lambda: len(responses[edge.node_id]) == 5, system.env.now() + 30
        )
        first, second, third = responses[edge.node_id][2:]
        *rest, item = first.proof.level_zero
        assert self.ids(kept.block for kept in rest) == held
        block = dataclasses.replace(item.block, entries=item.block.entries[:-1])
        malformed = make_entry(
            system.env.registry, reader.node_id, 10_000, encode_put("k", b"")[:8], 0.0
        )
        unproven = dataclasses.replace(
            item,
            block=dataclasses.replace(item.block, entries=(*item.block.entries, malformed)),
            proof=None,
        )
        forged = [
            dataclasses.replace(
                first,
                proof=dataclasses.replace(
                    first.proof,
                    level_zero=(*rest, dataclasses.replace(item, block=block)),
                ),
            ),
            dataclasses.replace(second, value=b"forged"),
            dataclasses.replace(
                third, proof=dataclasses.replace(third.proof, level_zero=(*rest, unproven))
            ),
        ]
        for response in forged:
            reader.on_message(edge.node_id, response)
            operation = reader.operation(response.statement.operation_id)
            assert operation.phase is CommitPhase.FAILED
            assert self.ids(reader.held.objects()) == held
            assert reader._key_maps[edge.node_id] == maps
        assert "malformed put" in reader.operation(third.statement.operation_id).failure_reason
