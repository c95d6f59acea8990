"""End-to-end behaviour of the sharded fleet: routing, redirects, handoff."""

from __future__ import annotations

from repro.common.config import (
    LoggingConfig,
    LSMerkleConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.log.proofs import CommitPhase
from repro.messages.kv_messages import MergeRejection
from repro.messages.log_messages import CertifyBatchRequest
from repro.messages.shard_messages import ShardHandoffRequest
from repro.sharding import ShardedWedgeSystem
from repro.sim.environment import local_environment
from repro.workloads.generator import format_key


def fleet_config(num_edges=3, num_shards=6, partitioner="hash-ring"):
    return SystemConfig.paper_default().with_overrides(
        num_edge_nodes=num_edges,
        sharding=ShardingConfig(num_shards=num_shards, partitioner=partitioner),
        logging=LoggingConfig(block_size=5, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )


def build_fleet(num_edges=3, num_shards=6, num_clients=2, seed=13, **kwargs):
    return ShardedWedgeSystem.build(
        config=fleet_config(num_edges=num_edges, num_shards=num_shards, **kwargs),
        num_clients=num_clients,
        env=local_environment(seed=seed),
    )


def write_keys(system, client, count, phase=CommitPhase.PHASE_TWO):
    operations = [
        (client, client.put(format_key(index), b"v%d" % index))
        for index in range(count)
    ]
    assert system.wait_for_all(operations, phase, max_time_s=300)
    system.run()
    return operations


class TestFleetBasics:
    def test_every_shard_has_exactly_one_owner(self):
        system = build_fleet()
        owners = [system.shard_owner(shard) for shard in range(6)]
        assert all(owner is not None for owner in owners)
        edge_ids = {edge.node_id for edge in system.edges}
        assert set(owners) <= edge_ids
        # Round-robin assignment touches every edge.
        assert len(set(owners)) == len(edge_ids)

    def test_any_client_reads_and_writes_any_key(self):
        system = build_fleet()
        writer, reader = system.clients
        write_keys(system, writer, 30)
        # Writes spread across the fleet (no edge served everything).
        blocks = [edge.stats["blocks_formed"] for edge in system.edges]
        assert sum(blocks) > 0 and max(blocks) < sum(blocks)
        # A different client reads every key back, verified, from whichever
        # edge owns it.
        for index in (0, 7, 19, 29):
            get_op = reader.get(format_key(index))
            phase = system.wait_for(reader, get_op, CommitPhase.PHASE_TWO, 60)
            assert phase is CommitPhase.PHASE_TWO
            assert reader.value_of(get_op) == b"v%d" % index
            record = reader.tracker.get(get_op)
            shard = system.partitioner.shard_of(format_key(index))
            assert record.details["edge"] == system.shard_owner(shard)

    def test_split_batches_commit_across_edges(self):
        system = build_fleet()
        client = system.clients[0]
        items = [(format_key(index), b"b%d" % index) for index in range(25)]
        operations = client.put_batch(items)
        assert len(operations) > 1  # the batch fanned out per owner
        assert system.wait_for_all(
            [(client, op) for op in operations], CommitPhase.PHASE_TWO, 120
        )
        for operation in operations:
            assert client.tracker.get(operation).phase is CommitPhase.PHASE_TWO

    def test_misroute_answered_with_signed_redirect_and_reissued(self):
        system = build_fleet()
        client = system.clients[0]
        write_keys(system, client, 10)
        key = format_key(3)
        shard = system.partitioner.shard_of(key)
        owner = system.shard_owner(shard)
        wrong_edge = next(e for e in system.edges if e.node_id != owner)
        before = wrong_edge.stats["shard_redirects"]
        get_op = client.get(key, edge=wrong_edge.node_id)
        phase = system.wait_for(client, get_op, CommitPhase.PHASE_TWO, 60)
        # The wrong edge refused with a signed redirect; the client followed
        # it and the operation still committed at the true owner.
        assert wrong_edge.stats["shard_redirects"] == before + 1
        assert client.stats["redirects_followed"] >= 1
        assert phase is CommitPhase.PHASE_TWO
        assert client.value_of(get_op) == b"v3"
        assert client.tracker.get(get_op).details["edge"] == owner


class TestCertifiedHandoff:
    def test_handoff_moves_shard_and_serving_continues(self):
        system = build_fleet(num_edges=2, num_shards=4)
        client = system.clients[0]
        write_keys(system, client, 40)
        source = system.edges[0]
        shard = max(source.shard_entry_counts, key=source.shard_entry_counts.get)
        dest = system.edges[1]
        moved_key = next(
            format_key(i)
            for i in range(40)
            if system.partitioner.shard_of(format_key(i)) == shard
        )

        system.rebalance_shard(shard, dest.node_id)
        system.run_for(10.0)
        system.run()

        assert system.shard_owner(shard) == dest.node_id
        assert source.stats["shard_handoffs_out"] == 1
        assert dest.stats["shard_handoffs_in"] == 1
        assert system.cloud.stats["shard_handoffs_granted"] == 1
        assert system.cloud.stats["shard_installs"] == 1
        assert dest.shard_state(shard) is not None
        assert source.shard_state(shard) is None
        # The map republish bumped every view to version 2.
        assert client.shard_map.version == 2
        assert dest.map_view.version == 2

        # Reads and writes of the moved keys go to the new owner, verified.
        get_op = client.get(moved_key)
        assert system.wait_for(client, get_op, CommitPhase.PHASE_TWO, 60) is (
            CommitPhase.PHASE_TWO
        )
        assert client.value_of(get_op) is not None
        put_op = client.put(moved_key, b"new-value")
        assert system.wait_for(client, put_op, CommitPhase.PHASE_TWO, 60) is (
            CommitPhase.PHASE_TWO
        )
        get_again = client.get(moved_key)
        system.wait_for(client, get_again, CommitPhase.PHASE_TWO, 60)
        assert client.value_of(get_again) == b"new-value"

    def test_destination_merges_adopted_shard_after_handoff(self):
        """The destination's own level-0 merges for an adopted shard must
        succeed: block ids are per-edge, so the source's consumed ids must
        not shadow the destination's new blocks at the cloud mirror."""

        system = build_fleet(num_edges=2, num_shards=4)
        client = system.clients[0]
        write_keys(system, client, 40)
        source = system.edges[0]
        shard = max(source.shard_entry_counts, key=source.shard_entry_counts.get)
        dest = system.edges[1]
        system.rebalance_shard(shard, dest.node_id)
        system.run_for(10.0)
        system.run()
        assert dest.shard_state(shard) is not None

        # Write enough keys of the moved shard to force level-0 merges of
        # the adopted partition at the destination.
        moved_keys = [
            format_key(i)
            for i in range(200)
            if system.partitioner.shard_of(format_key(i)) == shard
        ][:30]
        rejected_before = dest.stats["merges_rejected"]
        operations = [
            (client, client.put(key, b"post-%d" % i))
            for i, key in enumerate(moved_keys)
        ]
        assert system.wait_for_all(operations, CommitPhase.PHASE_TWO, 300)
        system.run()
        state = dest.shard_state(shard)
        assert dest.stats["merges_rejected"] == rejected_before
        # Level 0 drained into the merged levels (threshold 2 in this config).
        assert state.index.tree.level_zero.num_pages <= 2
        # And the merged state stays readable, verified, at the destination.
        get_op = client.get(moved_keys[0])
        assert (
            system.wait_for(client, get_op, CommitPhase.PHASE_TWO, 60)
            is CommitPhase.PHASE_TWO
        )
        assert client.value_of(get_op) == b"post-0"

    def test_rebalance_trigger_moves_hot_shard(self):
        # Range partitioning + low-index keys: all load lands on shard 0's
        # owner, which is exactly what the trigger should correct.
        system = build_fleet(num_edges=2, num_shards=4, partitioner="range")
        client = system.clients[0]
        write_keys(system, client, 40)
        action = system.maybe_rebalance()
        assert action is not None
        assert action.source != action.dest
        system.run_for(10.0)
        system.run()
        assert system.shard_owner(action.shard_id) == action.dest
        assert system.cloud.stats["shard_installs"] == 1

    def test_handoff_of_empty_shard(self):
        system = build_fleet(num_edges=2, num_shards=4)
        source_shard = next(
            shard
            for shard in system.edges[0].owned_shards()
            if not system.edges[0].shard_entry_counts.get(shard)
        )
        system.rebalance_shard(source_shard, system.edges[1].node_id)
        system.run_for(10.0)
        system.run()
        assert system.shard_owner(source_shard) == system.edges[1].node_id
        assert system.cloud.stats["shard_installs"] == 1

    def test_log_reads_survive_handoff_via_archive(self):
        system = build_fleet(num_edges=2, num_shards=4)
        client = system.clients[0]
        write_keys(system, client, 40)
        source = system.edges[0]
        shard = max(source.shard_entry_counts, key=source.shard_entry_counts.get)
        # A block of the shard, readable before the handoff …
        block_id = next(
            bid for bid, sid in source._block_shards.items() if sid == shard
        )
        system.rebalance_shard(shard, system.edges[1].node_id)
        system.run_for(10.0)
        system.run()
        # … is still served (certified under this edge's name) afterwards.
        read_op = client.read(block_id, edge=source.node_id)
        phase = system.wait_for(client, read_op, CommitPhase.PHASE_TWO, 60)
        assert phase is CommitPhase.PHASE_TWO


    def test_lost_handoff_offer_is_resent(self):
        system = build_fleet(num_edges=2, num_shards=4)
        client = system.clients[0]
        write_keys(system, client, 40)
        source, dest = system.edges
        shard = max(source.shard_entry_counts, key=source.shard_entry_counts.get)
        dropped = []

        def drop_first_offer(src, dst, message):
            if isinstance(message, ShardHandoffRequest) and not dropped:
                dropped.append(message)
                return False
            return True

        system.env.network.add_send_hook("test:drop-first-offer", drop_first_offer)
        system.rebalance_shard(shard, dest.node_id)
        system.run_for(30.0)
        system.run()

        assert len(dropped) == 1
        assert source.stats["shard_offer_retries"] == 1
        assert system.shard_owner(shard) == dest.node_id
        assert system.cloud.stats["shard_installs"] == 1
        assert dest.shard_state(shard) is not None


class TestShardFieldRouting:
    """Cloud answers that name a shard land on that shard's partition."""

    def test_root_refresh_and_merge_rejection_reach_the_named_shard(self):
        system = build_fleet(num_edges=1, num_shards=4, num_clients=1)
        write_keys(system, system.clients[0], 20)
        edge = system.edges[0]
        shard, other = sorted(edge.owned_shards())[:2]
        state, other_state = edge.shard_state(shard), edge.shard_state(other)
        other_root = other_state.signed_root
        refreshes = edge.stats["root_refreshes"]
        requested_at = system.env.now()

        edge.request_root_refresh(state)
        system.run()
        assert edge.stats["root_refreshes"] == refreshes + 1
        assert state.signed_root.statement.timestamp >= requested_at
        assert other_state.signed_root is other_root

        state.merge_in_flight = other_state.merge_in_flight = True
        edge.on_message(
            system.cloud.node_id,
            MergeRejection(
                cloud=system.cloud.node_id,
                edge=edge.node_id,
                level_index=0,
                reason="rejected for the test",
                shard_id=shard,
            ),
        )
        assert not state.merge_in_flight
        assert other_state.merge_in_flight
        other_state.merge_in_flight = False


class TestTimersStayWithTheirPartition:
    """A deferred step acts on the partition that armed it, whichever
    partition the edge served in between."""

    def test_flush_certify_flush_and_retry_act_only_on_their_shard(self):
        config = SystemConfig.paper_default().with_overrides(
            num_edge_nodes=1,
            sharding=ShardingConfig(num_shards=2),
            logging=LoggingConfig(
                block_size=5, block_timeout_s=0.02, certify_batch_size=2
            ),
        )
        system = ShardedWedgeSystem.build(
            config=config, num_clients=1, env=local_environment(seed=13)
        )
        edge, client = system.edges[0], system.clients[0]
        shard_a, shard_b = 0, 1
        state_a, state_b = edge.shard_state(shard_a), edge.shard_state(shard_b)
        keys = {shard_a: [], shard_b: []}
        for index in range(200):
            key = format_key(index)
            keys[system.partitioner.shard_of(key)].append(key)
        dropped = []

        def drop_first_certify_of_a(src, dst, message):
            if (
                isinstance(message, CertifyBatchRequest)
                and not dropped
                and message.statement.items[0].block_id in state_a.log
            ):
                dropped.append(message)
                return False
            return True

        system.env.network.add_send_hook("test:drop-a-certify", drop_first_certify_of_a)
        # One entry on A: a partial block, so A's block-flush timer is armed.
        client.put(keys[shard_a][0], b"a")
        system.run_for(0.005)
        # Then the edge serves B: two full blocks, one full certify batch
        # shipped from the handler itself, so B arms no timer of its own.
        client.put_batch([(key, b"b") for key in keys[shard_b][:10]])
        system.run_for(0.005)
        assert len(state_a.log) == 0 and not state_a.buffer.is_empty
        b_blocks = [record.block.block_id for record in state_b.log]
        assert len(b_blocks) == 2 and state_b.certifier.tracked_count == 2

        system.run_for(10.0)

        # A's block-flush timer formed A's block; A's certify-flush timer
        # shipped it as a partial batch (dropped); the retry re-sent it.
        assert len(dropped) == 1
        assert edge.stats["timeout_flushes"] == 1
        assert edge.stats["certify_retries"] == 1
        (record_a,) = list(state_a.log)
        assert record_a.block.num_entries == 1 and record_a.proof is not None
        assert state_a.certifier.tracked_count == 1
        assert state_a.certifier.certified_count == 1
        # B kept exactly its own two blocks and digests.
        assert [record.block.block_id for record in state_b.log] == b_blocks
        assert state_b.certifier.tracked_count == 2
        assert state_b.certifier.certified_count == 2
        assert len(edge._default_partition.log) == 0


class TestSingleEdgeDegeneration:
    def test_single_edge_fleet_behaves_like_one_partition_per_shard(self):
        system = build_fleet(num_edges=1, num_shards=4, num_clients=1)
        client = system.clients[0]
        write_keys(system, client, 20)
        edge = system.edges[0]
        assert edge.stats["shard_redirects"] == 0
        assert set(edge.owned_shards()) == {0, 1, 2, 3}
        get_op = client.get(format_key(5))
        assert system.wait_for(client, get_op, CommitPhase.PHASE_TWO, 60) is (
            CommitPhase.PHASE_TWO
        )
        assert client.value_of(get_op) == b"v5"
