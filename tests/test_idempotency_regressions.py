"""Regression pins for duplicate-delivery idempotency.

The fault injector's ``duplicate`` rules and the unified retransmission
timers both redeliver protocol messages, so every handler on a redelivery
path must be idempotent.  Each test here captures real messages off the
wire with a named send hook, re-sends a captured copy through the network,
and pins the dedupe counter plus the unchanged observable state.  These are
the exact double-apply bugs the duplicate-delivery audit fixed; the pins
keep them fixed.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.config import (
    LoggingConfig,
    LSMerkleConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.core.system import WedgeChainSystem
from repro.log.proofs import CommitPhase
from repro.messages import MergeRequest, MergeResponse
from repro.messages.log_messages import AppendBatchRequest, BatchCertificateMessage
from repro.messages.shard_messages import (
    ShardHandoffRequest,
    ShardInstallAck,
    ShardTransferMessage,
)
from repro.sharding import ShardedWedgeSystem
from repro.sim.environment import local_environment
from repro.workloads.generator import format_key


class MessageTap:
    """Named send hook that records matching traffic without touching it."""

    def __init__(self, env, *message_types):
        self.records: list[tuple] = []  # (src, dst, message)
        self._types = message_types
        env.network.add_send_hook("test:message-tap", self._observe)

    def _observe(self, src, dst, message) -> bool:
        if isinstance(message, self._types):
            self.records.append((src, dst, message))
        return True

    def first(self, message_type):
        for src, dst, message in self.records:
            if isinstance(message, message_type):
                return src, dst, message
        raise AssertionError(f"no {message_type.__name__} captured")

    def count(self, message_type) -> int:
        return sum(
            1 for _, _, message in self.records if isinstance(message, message_type)
        )


# ----------------------------------------------------------------------
# Merge protocol (edge <-> cloud)
# ----------------------------------------------------------------------
def merged_system():
    """A single-edge system that has completed at least one merge, with the
    merge round-trip captured off the wire."""

    config = SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=5, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )
    system = WedgeChainSystem.build(
        config=config, num_clients=1, env=local_environment(seed=71)
    )
    tap = MessageTap(system.env, MergeRequest, MergeResponse)
    client = system.clients[0]
    for block in range(6):
        items = [
            (format_key(block * 5 + i), b"v%d-%d" % (block, i)) for i in range(5)
        ]
        op = client.put_batch(items)
        assert (
            system.wait_for(client, op, CommitPhase.PHASE_TWO, max_time_s=60)
            is CommitPhase.PHASE_TWO
        )
    system.run()
    edge = system.edge()
    assert edge.stats["merges_completed"] >= 1
    assert tap.count(MergeRequest) >= 1 and tap.count(MergeResponse) >= 1
    return system, edge, tap


class TestMergeIdempotency:
    def test_duplicate_merge_response_is_counted_not_reapplied(self):
        system, edge, tap = merged_system()
        merges_before = edge.stats["merges_completed"]
        root_before = edge.signed_root
        src, dst, response = tap.first(MergeResponse)
        system.env.send(src, dst, response)
        system.run()
        assert edge.stats["merge_duplicates"] >= 1
        assert edge.stats["merges_completed"] == merges_before
        assert edge.signed_root is root_before

    def test_duplicate_merge_request_reanswered_without_punishment(self):
        system, edge, tap = merged_system()
        cloud = system.cloud
        merges_before = cloud.stats["merges"]
        src, dst, request = tap.first(MergeRequest)
        system.env.send(src, dst, request)
        system.run()
        # The cloud re-sends the stored response instead of re-running the
        # merge against its advanced mirror (which would raise a protocol
        # error and falsely punish the honest edge).
        assert cloud.stats["merge_duplicate_requests"] >= 1
        assert cloud.stats["merges"] == merges_before
        assert cloud.stats["punishments"] == 0
        # The re-answered response lands at the edge as a benign duplicate.
        assert edge.stats["merge_duplicates"] >= 1

    def test_every_merge_request_reanswered_identically_at_any_age(self):
        system, edge, tap = merged_system()
        cloud = system.cloud
        mirror = cloud.mirror_for(edge.node_id)
        merges_before = cloud.stats["merges"]
        version_before = mirror.version
        requests = [r for r in tap.records if isinstance(r[2], MergeRequest)]
        originals = [r[2] for r in tap.records if isinstance(r[2], MergeResponse)]
        assert len(requests) == len(originals) == merges_before >= 3
        captured = len(tap.records)
        for src, dst, request in requests:
            system.env.send(src, dst, request)
        system.run()
        answers = [
            r[2] for r in tap.records[captured:] if isinstance(r[2], MergeResponse)
        ]
        assert len(answers) == len(originals)
        for original, answer in zip(originals, answers):
            first, again = original.outcome, answer.outcome
            assert [p.digest() for p in again.merged_pages] == [
                p.digest() for p in first.merged_pages
            ]
            assert again.signed_root == first.signed_root
            assert (again.records_in, again.records_out) == (
                first.records_in,
                first.records_out,
            )
        assert cloud.stats["merge_duplicate_requests"] == len(requests)
        assert cloud.stats["merges"] == merges_before
        assert mirror.version == version_before
        assert cloud.stats["punishments"] == 0
        # The replayed level-0 merges read the edge's own blocks; none of
        # them may get back the records memo the edge released.
        level_zero = set(edge.level_zero_blocks)
        assert not [
            record.block.block_id
            for record in edge.log
            if record.block.block_id not in level_zero
            and getattr(record.block, "_records_cache", None) is not None
        ]

    def test_altered_target_page_still_rejected_and_punished(self):
        system, edge, tap = merged_system()
        cloud = system.cloud
        src, dst, request = next(
            r
            for r in tap.records
            if isinstance(r[2], MergeRequest) and r[2].proposal.target_pages
        )
        proposal = request.proposal
        page = proposal.target_pages[0]
        forged_record = replace(page.records[0], value=b"forged")
        forged_page = replace(page, records=(forged_record,) + page.records[1:])
        forged = replace(
            proposal, target_pages=(forged_page,) + proposal.target_pages[1:]
        )
        rejections_before = cloud.stats["merge_rejections"]
        system.env.send(src, dst, MergeRequest(edge=request.edge, proposal=forged))
        system.run()
        # A changed page changes the fingerprint: the dedup table cannot
        # answer it, so the mirror's checks run and convict.
        assert cloud.stats["merge_rejections"] == rejections_before + 1
        assert cloud.stats["punishments"] == 1
        assert cloud.ledger.is_punished(edge.node_id)


# ----------------------------------------------------------------------
# Certified shard handoff (source edge <-> cloud <-> dest edge)
# ----------------------------------------------------------------------
def completed_handoff():
    """A two-edge fleet after one certified handoff, with the handoff
    request, transfer, and install-ack captured off the wire."""

    config = SystemConfig.paper_default().with_overrides(
        num_edge_nodes=2,
        sharding=ShardingConfig(num_shards=4, partitioner="hash-ring"),
        logging=LoggingConfig(block_size=5, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )
    system = ShardedWedgeSystem.build(
        config=config, num_clients=1, env=local_environment(seed=73)
    )
    tap = MessageTap(
        system.env, ShardHandoffRequest, ShardTransferMessage, ShardInstallAck
    )
    client = system.clients[0]
    operations = [
        (client, client.put(format_key(i), b"v%d" % i)) for i in range(20)
    ]
    assert system.wait_for_all(operations, CommitPhase.PHASE_TWO, max_time_s=300)
    system.run()
    source = system.edges[0]
    shard = max(source.shard_entry_counts, key=source.shard_entry_counts.get)
    dest = system.edges[1]
    system.rebalance_shard(shard, dest.node_id)
    system.run_for(10.0)
    system.run()
    assert system.shard_owner(shard) == dest.node_id
    assert system.cloud.stats["shard_installs"] == 1
    return system, source, dest, shard, tap


class TestHandoffIdempotency:
    def test_duplicate_handoff_request_regrants_same_certificate(self):
        system, source, dest, shard, tap = completed_handoff()
        src, dst, request = tap.first(ShardHandoffRequest)
        system.env.send(src, dst, request)
        system.run()
        cloud = system.cloud
        # The stored countersigned grant is re-sent; no second handoff
        # starts and the source (whose shard is long gone) ignores it.
        assert cloud.stats["shard_handoff_regrants"] == 1
        assert cloud.stats["shard_handoffs_granted"] == 1
        assert cloud.stats["shard_installs"] == 1
        assert source.stats["shard_handoffs_out"] == 1
        assert system.shard_owner(shard) == dest.node_id

    def test_duplicate_transfer_reacked_without_reinstall(self):
        system, source, dest, shard, tap = completed_handoff()
        state_before = dest.shard_state(shard)
        src, dst, transfer = tap.first(ShardTransferMessage)
        system.env.send(src, dst, transfer)
        system.run()
        assert dest.stats["shard_transfer_duplicates"] == 1
        assert dest.stats["shard_handoffs_in"] == 1
        # The live partition was not overwritten by the replayed snapshot.
        assert dest.shard_state(shard) is state_before
        # The dest re-acked (so a source with a lost ack stops resending);
        # the cloud deduplicates the extra ack instead of double-counting.
        assert system.cloud.stats["shard_installs"] == 1
        assert system.cloud.stats.get("shard_install_ack_duplicates", 0) >= 1

    def test_duplicate_install_ack_not_double_counted(self):
        system, source, dest, shard, tap = completed_handoff()
        src, dst, ack = next(
            record
            for record in tap.records
            if isinstance(record[2], ShardInstallAck) and record[1] == system.cloud.node_id
        )
        system.env.send(src, dst, ack)
        system.run()
        assert system.cloud.stats["shard_install_ack_duplicates"] == 1
        assert system.cloud.stats["shard_installs"] == 1


# ----------------------------------------------------------------------
# Append path and certificates (client <-> edge <-> cloud)
# ----------------------------------------------------------------------
class TestAppendIdempotency:
    def test_buffered_duplicate_append_applies_once(self):
        # A long block timeout keeps a partial batch buffered: the
        # ``entry_locations`` replay map only covers formed blocks, so the
        # buffer itself must refuse the in-flight duplicate.
        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(block_size=5, block_timeout_s=30.0),
            lsmerkle=LSMerkleConfig(level_thresholds=(4, 4, 8, 16)),
        )
        system = WedgeChainSystem.build(
            config=config, num_clients=1, env=local_environment(seed=79)
        )
        tap = MessageTap(system.env, AppendBatchRequest)
        client = system.clients[0]
        op = client.put_batch([(format_key(0), b"a"), (format_key(1), b"b")])
        system.run_for(1.0)
        edge = system.edge()
        assert len(edge.buffer) == 2  # still buffered, block not formed
        src, dst, request = tap.first(AppendBatchRequest)
        system.env.send(src, dst, request)
        system.run_for(1.0)
        assert edge.stats["buffered_duplicate_entries"] == 2
        assert len(edge.buffer) == 2  # not buffered twice
        # Fill the block; exactly five entries (not seven) land in the log.
        fill = client.put_batch(
            [(format_key(i), b"c%d" % i) for i in range(2, 5)]
        )
        assert (
            system.wait_for(client, fill, CommitPhase.PHASE_TWO, max_time_s=60)
            is CommitPhase.PHASE_TWO
        )
        assert (
            system.wait_for(client, op, CommitPhase.PHASE_TWO, max_time_s=60)
            is CommitPhase.PHASE_TWO
        )
        system.run()
        assert edge.log.total_entries() == 5

    def test_duplicate_batch_certificate_is_benign(self):
        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(
                block_size=5,
                block_timeout_s=0.02,
                certify_batch_size=2,
                certify_flush_timeout_s=0.02,
            ),
        )
        system = WedgeChainSystem.build(
            config=config, num_clients=1, env=local_environment(seed=83)
        )
        tap = MessageTap(system.env, BatchCertificateMessage)
        client = system.clients[0]
        op = client.put_batch([(format_key(i), b"v%d" % i) for i in range(5)])
        assert (
            system.wait_for(client, op, CommitPhase.PHASE_TWO, max_time_s=60)
            is CommitPhase.PHASE_TWO
        )
        system.run()
        edge = system.edge()
        certified_before = edge.certifier.certified_count
        src, dst, certificate = tap.first(BatchCertificateMessage)
        system.env.send(src, dst, certificate)
        system.run()
        assert edge.certifier.certified_count == certified_before
        assert system.cloud.stats["punishments"] == 0
