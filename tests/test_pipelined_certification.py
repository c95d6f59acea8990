"""Tests for pipelined (windowed) certification.

Covers the LazyCertifier in-flight window (batch ids, out-of-order
retirement), the edge's windowed dispatch and
window-envelope requests, adversarial cases at depth ≥ 4 (out-of-order and
duplicate certificates, a malicious cloud signing a reordered batch, a lost
request retried selectively with its late duplicate absorbed idempotently,
rejections real and forged), the mid-handoff drain with an in-flight window,
and the per-request retry chains: elapsed-time schedules on both substrates
and backoff through a sustained cloud outage.  Everything
runs through ``EdgeNode`` and ``CloudNode`` — the one driver of windowed
Phase II.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common import ProtocolError
from repro.common.config import (
    ConfigurationError,
    LoggingConfig,
    LSMerkleConfig,
    SecurityConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.common.identifiers import client_id, cloud_id, edge_id
from repro.common.regions import Region
from repro.core.certification import LazyCertifier
from repro.log.block import build_block
from repro.log.entry import make_entry
from repro.log.proofs import (
    build_certify_batch_tree,
    issue_batch_certificate,
    issue_block_proof,
)
from repro.messages.log_messages import (
    BatchCertificateMessage,
    CertifyBatchRequest,
    CertifyRejection,
    CertifyWindowRequest,
)
from repro.nodes.cloud import CloudNode
from repro.nodes.edge import EdgeNode
from repro.sim.environment import local_environment
from repro.sim.parameters import SimulationParameters

CLOUD = cloud_id("cloud-0")
EDGE = edge_id("edge-0")
ALICE = client_id("alice")


def pipeline_config(batch_size=3, depth=4):
    return SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(
            block_size=4,
            block_timeout_s=0.02,
            certify_batch_size=batch_size,
            certify_flush_timeout_s=0.02,
            certify_pipeline_depth=depth,
        ),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )


def make_pipelined_edge(num_blocks, batch_size=3, depth=4):
    """A colocated edge/cloud pair with *num_blocks* tracked, queued blocks."""

    env = local_environment(seed=17)
    config = pipeline_config(batch_size, depth)
    cloud = CloudNode(env=env, config=config, region=Region.CALIFORNIA)
    edge = EdgeNode(env=env, cloud=cloud.node_id, config=config)
    env.registry.register(ALICE)
    for index in range(num_blocks):
        entries = [
            make_entry(
                env.registry,
                ALICE,
                sequence=index * 4 + offset,
                payload=b"p-%d" % (index * 4 + offset),
                produced_at=0.0,
            )
            for offset in range(4)
        ]
        block = build_block(edge.node_id, index, entries, created_at=0.0)
        edge.log.append(block)
        edge.certifier.track(index, block.digest())
        edge.certifier.enqueue_for_dispatch(index)
    return env, cloud, edge


def record_sends(env, keep=lambda message: True):
    """Every message the network is asked to carry from now on, in order.

    *keep* decides which of them actually travel; the rest are lost.
    """

    sent = []

    def hook(src, dst, message):
        sent.append(message)
        return keep(message)

    env.network.add_send_hook("test:record-sends", hook)
    return sent


def cloud_answers(env, cloud, sender, request):
    """Hand *request* to the cloud as *sender*; returns what it answered.

    The answers are held back from the network so the test decides which
    of them reach the edge, and when.
    """

    answers = []

    def hold(src, dst, message):
        if src == cloud.node_id:
            answers.append(message)
            return False
        return True

    env.network.add_send_hook("test:cloud-answers", hold)
    try:
        cloud.on_message(sender, request)
    finally:
        env.network.remove_send_hook("test:cloud-answers")
    return answers


# ----------------------------------------------------------------------
# LazyCertifier windowed state
# ----------------------------------------------------------------------
class TestInFlightWindow:
    def make(self, count):
        certifier = LazyCertifier()
        for block_id in range(count):
            certifier.track(block_id, f"{block_id:064x}")
        return certifier

    def proof(self, registry, block_id):
        return issue_block_proof(
            registry, CLOUD, EDGE, block_id, f"{block_id:064x}", 2.0
        )

    def test_begin_and_retire_out_of_order(self, registry):
        certifier = self.make(4)
        first = certifier.begin_batch([0, 1])
        second = certifier.begin_batch([2, 3])
        assert certifier.in_flight_count == 2
        assert certifier.in_flight(0) and certifier.in_flight(3)
        # The *second* batch's certificate lands first.
        certifier.complete(self.proof(registry, 3))
        certifier.complete(self.proof(registry, 2))
        assert certifier.in_flight_count == 1
        assert second.batch_id not in {
            batch.batch_id for batch in certifier.in_flight_batches()
        }
        certifier.complete(self.proof(registry, 0))
        certifier.complete(self.proof(registry, 1))
        assert certifier.in_flight_count == 0
        assert certifier.retired_batch_count == 2
        assert first.remaining == set()

    def test_begin_batch_rejects_double_membership_and_empty(self):
        certifier = self.make(2)
        certifier.begin_batch([0])
        with pytest.raises(ProtocolError):
            certifier.begin_batch([0, 1])
        with pytest.raises(ProtocolError):
            certifier.begin_batch([])
        with pytest.raises(ProtocolError):
            certifier.begin_batch([99])

    def test_duplicate_completion_is_idempotent(self, registry):
        certifier = self.make(2)
        certifier.begin_batch([0, 1])
        certifier.complete(self.proof(registry, 0))
        certifier.complete(self.proof(registry, 0))  # duplicate
        assert certifier.certified_count == 1
        assert certifier.in_flight_count == 1
        certifier.complete(self.proof(registry, 1))
        assert certifier.in_flight_count == 0
        assert certifier.retired_batch_count == 1

    def test_abandon_in_flight_frees_the_slot(self, registry):
        certifier = self.make(2)
        batch = certifier.begin_batch([0, 1])
        certifier.abandon_in_flight(0)
        assert certifier.in_flight_count == 1
        certifier.complete(self.proof(registry, 1))
        assert certifier.in_flight_count == 0
        assert batch.remaining == set()


# ----------------------------------------------------------------------
# Edge windowed dispatch + window envelope
# ----------------------------------------------------------------------
class TestWindowedDispatch:
    def test_window_bounds_in_flight_batches(self):
        env, cloud, edge = make_pipelined_edge(12, batch_size=3, depth=2)
        edge._pump_certify_pipeline(edge._default_partition)
        # Only `depth` batches leave; the rest stay queued.
        assert edge.certifier.in_flight_count == 2
        assert edge.certifier.pending_dispatch_count == 6
        assert edge.stats.get("certify_window_stalls", 0) == 1
        env.run()
        # Retirements pump the queue through the window until dry.
        assert edge.certifier.certified_count == 12
        assert edge.certifier.in_flight_count == 0
        assert edge.stats["certify_batches"] == 4

    def test_multi_batch_pump_ships_one_window_envelope(self):
        env, cloud, edge = make_pipelined_edge(9, batch_size=3, depth=4)
        sent = record_sends(env)
        edge._pump_certify_pipeline(edge._default_partition)
        windows = [m for m in sent if isinstance(m, CertifyWindowRequest)]
        batches = [m for m in sent if isinstance(m, CertifyBatchRequest)]
        assert len(windows) == 1 and not batches
        assert len(windows[0].batches) == 3
        assert windows[0].num_blocks == 9
        assert edge.stats["certify_windows"] == 1
        assert edge.stats["certify_requests"] == 1
        assert edge.stats["certify_batches"] == 3
        env.run()
        # One certificate per inner batch; all slots retired.
        assert edge.certifier.certified_count == 9
        assert cloud.stats["certify_batches"] == 3
        assert edge.certifier.retired_batch_count == 3

    def test_single_batch_pump_keeps_plain_wire_format(self):
        env, cloud, edge = make_pipelined_edge(3, batch_size=3, depth=4)
        sent = record_sends(env)
        edge._pump_certify_pipeline(edge._default_partition)
        assert [type(m) for m in sent] == [CertifyBatchRequest]

    def test_misattributed_window_envelope_dropped(self):
        env, cloud, edge = make_pipelined_edge(6, batch_size=3, depth=4)
        mallory = edge_id("edge-mallory")
        env.registry.register(mallory)
        sent = record_sends(env, keep=lambda message: False)
        edge._pump_certify_pipeline(edge._default_partition)
        env.network.remove_send_hook("test:record-sends")
        (window,) = sent
        assert isinstance(window, CertifyWindowRequest)
        # Mallory replays the edge's window under its own name.
        assert cloud_answers(env, cloud, mallory, window) == []
        # And a forged signature over the same statement is dropped too.
        forged = CertifyWindowRequest(
            statement=window.statement,
            signature=env.registry.sign(mallory, window.statement),
        )
        assert cloud_answers(env, cloud, edge.node_id, forged) == []
        assert cloud.stats["certifications"] == 0
        # The genuine envelope from its genuine sender is what certifies.
        assert len(cloud_answers(env, cloud, edge.node_id, window)) == 2


# ----------------------------------------------------------------------
# Adversarial pipeline cases at depth >= 4
# ----------------------------------------------------------------------
class TestPipelineAdversarial:
    def certificates_for(self, env, cloud, edge):
        """Short-circuit the cloud: certificates for the edge's window."""

        edge._pump_certify_pipeline(edge._default_partition)
        batches = [
            tuple(
                (block_id, edge.certifier.task(block_id).block_digest)
                for block_id in batch.block_ids
            )
            for batch in edge.certifier.in_flight_batches()
        ]
        messages = []
        for blocks in batches:
            tree = build_certify_batch_tree(blocks)
            certificate = issue_batch_certificate(
                registry=env.registry,
                cloud=cloud.node_id,
                edge=edge.node_id,
                batch_root=tree.root,
                num_blocks=len(blocks),
                certified_at=1.0,
            )
            messages.append(
                BatchCertificateMessage(certificate=certificate, blocks=blocks)
            )
        return messages

    def test_out_of_order_and_duplicate_certificates_at_depth_4(self):
        env, cloud, edge = make_pipelined_edge(12, batch_size=3, depth=4)
        messages = self.certificates_for(env, cloud, edge)
        assert len(messages) == 4
        # Deliver in reverse order, with a duplicate in the middle.
        for message in [messages[3], messages[1], messages[1], messages[0], messages[2]]:
            edge.on_message(cloud.node_id, message)
        assert edge.certifier.certified_count == 12
        assert edge.certifier.in_flight_count == 0
        assert edge.certifier.retired_batch_count == 4
        assert edge.stats["batch_cert_mismatches"] == 0
        for block_id in range(12):
            assert edge.log.proof_for(block_id) is not None

    def test_malicious_cloud_signing_reordered_batch_rejected(self):
        """A cloud that signs a *reordered* block list produced a root the
        edge cannot reproduce from the returned list order — the whole
        message is rejected and the batch stays in flight for retry."""

        env, cloud, edge = make_pipelined_edge(6, batch_size=3, depth=4)
        messages = self.certificates_for(env, cloud, edge)
        genuine = messages[0]
        reordered_blocks = tuple(reversed(genuine.blocks))
        # The malicious cloud signs the root of the *reordered* list but
        # returns the original order alongside it.
        tree = build_certify_batch_tree(reordered_blocks)
        certificate = issue_batch_certificate(
            registry=env.registry,
            cloud=cloud.node_id,
            edge=edge.node_id,
            batch_root=tree.root,
            num_blocks=len(reordered_blocks),
            certified_at=1.0,
        )
        edge.on_message(
            cloud.node_id,
            BatchCertificateMessage(certificate=certificate, blocks=genuine.blocks),
        )
        assert edge.stats["batch_cert_mismatches"] == 1
        assert edge.certifier.certified_count == 0
        assert edge.certifier.in_flight_count == 2  # both batches still open
        # The reordered delivery *with* its matching list derives proofs for
        # blocks the edge asked to certify under those exact digests, so it
        # is absorbed — order inside a batch is a transport detail; the
        # (id, digest) binding is what the leaves pin.
        edge.on_message(
            cloud.node_id,
            BatchCertificateMessage(
                certificate=certificate, blocks=reordered_blocks
            ),
        )
        assert edge.certifier.certified_count == 3

    def test_lost_batch_retried_selectively_and_duplicate_absorbed(self):
        """Only the lost batch is re-sent; when the 'lost' original answer
        arrives late after the retry's, it is absorbed idempotently."""

        env, cloud, edge = make_pipelined_edge(6, batch_size=3, depth=4)
        dropped = []

        def drop_first_batch(src, dst, message):
            if (
                isinstance(message, (CertifyBatchRequest, CertifyWindowRequest))
                and not dropped
            ):
                dropped.append(message)
                return False
            return True

        env.network.add_send_hook("test:drop-first-batch", drop_first_batch)
        sent = record_sends(env)
        edge._pump_certify_pipeline(edge._default_partition)
        first_retry = edge.config.security.dispute_timeout_s / 2
        env.scheduler.run_until(first_retry - 0.01)
        # The window (both batches) was lost in one envelope: nothing came back.
        assert dropped and edge.certifier.certified_count == 0
        assert edge.certifier.in_flight_count == 2
        assert edge.stats["certify_retries"] == 0

        env.run()
        # Each lost batch retried once, as exactly itself (a plain batch
        # request carrying that batch's members, never re-chunked).
        assert edge.stats["certify_batch_retries"] == 2
        assert edge.stats["certify_retries"] == 6
        resent = [m for m in sent if isinstance(m, CertifyBatchRequest)]
        assert [[item.block_id for item in m.statement.items] for m in resent] == [
            [0, 1, 2],
            [3, 4, 5],
        ]
        assert edge.certifier.certified_count == 6
        assert edge.certifier.in_flight_count == 0

        # The lost window's certificates surface late (duplicate answers):
        # replay what the cloud would have answered for the original window.
        (window,) = [
            m for m in dropped if isinstance(m, CertifyWindowRequest)
        ] or [None]
        assert window is not None
        late = cloud_answers(env, cloud, edge.node_id, window)
        assert [type(message) for message in late] == [BatchCertificateMessage] * 2
        for message in late:
            edge.on_message(cloud.node_id, message)
        assert edge.certifier.certified_count == 6  # idempotent
        assert cloud.stats["certify_conflicts"] == 0
        assert cloud.ledger.is_punished(edge.node_id) is False

    def test_rejection_releases_window_slot(self):
        env, cloud, edge = make_pipelined_edge(3, batch_size=3, depth=4)
        # The cloud already certified block 0 under a different digest.
        cloud._certified.setdefault(edge.node_id, {})[0] = "f" * 64
        edge._pump_certify_pipeline(edge._default_partition)
        env.run()
        # Blocks 1-2 certified; block 0 rejected and its slot released.
        assert edge.certifier.certified_count == 2
        assert edge.stats["certify_rejections"] == 1
        assert edge.certifier.in_flight_count == 0

    def test_unauthenticated_rejection_moves_neither_counter_nor_window(self):
        """Only this edge's cloud, naming this pair, can refuse a block: a
        rejection from a client, or from the cloud but about another edge,
        is not the "an honest edge should never see this" event and must not
        release a window slot the real certificate still needs."""

        env, cloud, edge = make_pipelined_edge(3, batch_size=3, depth=4)
        record_sends(env, keep=lambda message: False)  # hold the window open
        edge._pump_certify_pipeline(edge._default_partition)
        assert edge.certifier.in_flight_count == 1

        def rejection(cloud_name, edge_name):
            return CertifyRejection(
                cloud=cloud_name,
                edge=edge_name,
                block_id=0,
                existing_digest="f" * 64,
                offending_digest=edge.certifier.task(0).block_digest,
                reason="forged refusal",
            )

        other_edge = edge_id("edge-other")
        edge.on_message(ALICE, rejection(cloud.node_id, edge.node_id))
        edge.on_message(cloud.node_id, rejection(cloud.node_id, other_edge))
        edge.on_message(cloud.node_id, rejection(cloud_id("cloud-x"), edge.node_id))
        assert "certify_rejections" not in edge.stats
        assert edge.certifier.in_flight(0)
        assert edge.certifier.in_flight_batches()[0].remaining == {0, 1, 2}
        # The same refusal from the real cloud about this pair does both.
        edge.on_message(cloud.node_id, rejection(cloud.node_id, edge.node_id))
        assert edge.stats["certify_rejections"] == 1
        assert not edge.certifier.in_flight(0)


# ----------------------------------------------------------------------
# Mid-handoff shard with an in-flight window
# ----------------------------------------------------------------------
class TestMidHandoffWindow:
    def build_fleet(self, seed=31):
        from repro.sharding import ShardedWedgeSystem

        config = SystemConfig.paper_default().with_overrides(
            num_edge_nodes=2,
            sharding=ShardingConfig(num_shards=4),
            logging=LoggingConfig(
                block_size=5,
                block_timeout_s=0.02,
                certify_batch_size=2,
                certify_flush_timeout_s=0.02,
                certify_pipeline_depth=4,
            ),
            lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
        )
        return ShardedWedgeSystem.build(
            config=config, num_clients=1, env=local_environment(seed=seed)
        )

    def test_drain_waits_for_window_then_hands_off_cleanly(self):
        """A handoff ordered while certify batches are in flight must not
        offer until the window drains; lost answers are recovered by the
        selective per-batch retry and the handoff then completes."""

        from repro.log.proofs import CommitPhase
        from repro.workloads.generator import format_key

        system = self.build_fleet()
        client = system.clients[0]

        # Hold back every batch certificate so dispatched windows stay open.
        def drop_certificates(src, dst, message):
            return not isinstance(message, BatchCertificateMessage)

        system.env.network.add_send_hook("test:drop-certificates", drop_certificates)
        operations = [
            (client, client.put(format_key(index), b"v%d" % index))
            for index in range(40)
        ]
        assert system.wait_for_all(operations, CommitPhase.PHASE_ONE, 120)
        system.run_for(0.5)

        source = next(
            edge
            for edge in system.edges
            if any(
                edge.shard_state(s) is not None
                and edge.shard_state(s).certifier.in_flight_count
                for s in edge.owned_shards()
            )
        )
        shard = next(
            s
            for s in source.owned_shards()
            if source.shard_state(s).certifier.in_flight_count
        )
        dest = next(e for e in system.edges if e is not source)

        system.rebalance_shard(shard, dest.node_id)
        system.run_for(1.0)
        # The drain is parked on the open window: no offer can be verified
        # until every listed block is certified, so nothing was granted.
        assert source.stats.get("handoff_window_waits", 0) == 1
        assert system.cloud.stats["shard_handoffs_granted"] == 0
        assert shard in source._migrating

        # Release the network; the lost window is re-sent batch by batch
        # by each batch's own chain (next step at most D/2 + D after its
        # dispatch, D the dispute timeout).
        system.env.network.remove_send_hook("test:drop-certificates")
        system.run_for(2 * system.config.security.dispute_timeout_s)
        assert source.stats["certify_batch_retries"] > 0
        assert system.cloud.stats["shard_handoffs_granted"] == 1
        assert system.cloud.stats["shard_installs"] == 1
        assert system.shard_owner(shard) == dest.node_id
        assert source.shard_state(shard) is None
        assert dest.shard_state(shard) is not None
        # The moved partition left no certification debris behind.
        assert shard not in source.owned_shards()

    def test_rejection_mid_drain_frees_the_slot_and_drain_completes(self):
        """A ``CertifyRejection`` arriving mid-handoff-drain must release its
        window slot (letting the queued batches ship) and end the batch's
        retry — a refused digest is never re-sent — and the drain must still
        complete once the block's real certificate arrives late."""

        from repro.log.proofs import CommitPhase
        from repro.workloads.generator import format_key

        system = self.build_fleet(seed=41)
        client = system.clients[0]
        held = []

        def drop_certificates(src, dst, message):
            if isinstance(message, BatchCertificateMessage):
                held.append((dst, message))
                return False
            return True

        system.env.network.add_send_hook("test:drop-certificates", drop_certificates)
        operations = [
            (client, client.put(format_key(index), b"v%d" % index))
            for index in range(40)
        ]
        assert system.wait_for_all(operations, CommitPhase.PHASE_ONE, 120)
        system.run_for(0.5)

        source = next(
            edge
            for edge in system.edges
            if any(
                edge.shard_state(s) is not None
                and edge.shard_state(s).certifier.in_flight_count
                for s in edge.owned_shards()
            )
        )
        shard = next(
            s
            for s in source.owned_shards()
            if source.shard_state(s).certifier.in_flight_count
        )
        dest = next(e for e in system.edges if e is not source)
        system.rebalance_shard(shard, dest.node_id)
        system.run_for(0.5)
        assert shard in source._migrating
        state = source.shard_state(shard)
        in_flight = state.certifier.in_flight_batches()
        assert in_flight

        # Let answers flow again, then refuse the whole stuck batch: each
        # rejection must free its share of the slot so the window un-wedges.
        system.env.network.remove_send_hook("test:drop-certificates")
        stuck = in_flight[0]
        slots_before = state.certifier.in_flight_count
        for block_id in stuck.block_ids:
            source.on_message(
                system.cloud.node_id,
                CertifyRejection(
                    cloud=system.cloud.node_id,
                    edge=source.node_id,
                    block_id=block_id,
                    existing_digest="f" * 64,
                    offending_digest="e" * 64,
                    reason="simulated stray refusal",
                ),
            )
        system.run_for(0.5)
        assert state.certifier.in_flight_count < slots_before or (
            not state.certifier.in_flight(stuck.block_ids[0])
        )
        assert source.stats.get("certify_rejections", 0) == len(stuck.block_ids)

        # The refused blocks were certified cloud-side before the rejection
        # was injected (only the certificates were held back): no retry
        # re-sends them, and the late certificates complete the drain.
        sent = record_sends(system.env)
        system.run_for(2 * system.config.security.dispute_timeout_s)
        refused = set(stuck.block_ids)
        assert not any(
            item.block_id in refused
            for message in sent
            if isinstance(message, CertifyBatchRequest) and message.edge == source.node_id
            for item in message.statement.items
        )
        for dst, message in held:
            if dst == source.node_id:
                source.on_message(system.cloud.node_id, message)
        system.run_for(5.0)
        assert system.cloud.stats["shard_handoffs_granted"] == 1
        assert system.cloud.stats["shard_installs"] == 1
        assert system.shard_owner(shard) == dest.node_id
        assert source.shard_state(shard) is None
        assert dest.shard_state(shard) is not None


# ----------------------------------------------------------------------
# Depth validation
# ----------------------------------------------------------------------
class TestShardDepthOverride:
    def test_invalid_depths_rejected(self):
        with pytest.raises(ConfigurationError):
            LoggingConfig(certify_pipeline_depth=0)


# ----------------------------------------------------------------------
# Whole windows through the nodes
# ----------------------------------------------------------------------
class TestCertifyEngineAndHarness:
    def test_pipeline_harness_depths_certify_everything(self):
        # Depth 1 is six serial exchanges; depth 4 ships a four-batch window
        # and two refills (the first retirement finds a full batch queued,
        # the second the last one).
        for depth, requests in ((1, 6), (4, 3)):
            env, cloud, edge = make_pipelined_edge(24, batch_size=4, depth=depth)
            edge._pump_certify_pipeline(edge._default_partition)
            env.run()
            assert edge.certifier.certified_count == 24
            assert edge.certifier.retired_batch_count == 6
            assert edge.certifier.in_flight_count == 0
            assert edge.stats["certify_inflight_peak"] == depth
            assert edge.stats["certify_requests"] == requests
            assert cloud.stats["certify_batches"] == 6
            assert cloud.stats["certifications"] == 24

    def test_harness_handles_conflict_rejections_without_stalling(self):
        """A definitively refused block must release its slot — the window
        drains and every other block certifies instead of wedging on it."""

        env, cloud, edge = make_pipelined_edge(4, batch_size=2, depth=4)
        # The cloud already holds a conflicting digest for block 1.
        cloud._certified.setdefault(edge.node_id, {})[1] = "f" * 64
        edge._pump_certify_pipeline(edge._default_partition)
        env.run()
        assert edge.certifier.certified_count == 3
        assert [task.block_id for task in edge.certifier.outstanding()] == [1]
        assert edge.stats["certify_rejections"] == 1
        assert cloud.stats["certify_conflicts"] == 1
        assert edge.certifier.in_flight_count == 0
        assert edge.certifier.pending_dispatch_count == 0
        assert edge.certifier.retired_batch_count == 2

    @pytest.mark.parametrize("batch_size", [2, 1])
    def test_refused_block_is_never_resent(self, batch_size):
        """A refusal ends the refused request's retry: a minute later the
        cloud has seen the conflicting digest exactly once, whether it rode
        a batch or its own single-block request."""

        env, cloud, edge = make_pipelined_edge(4, batch_size=batch_size, depth=4)
        cloud._certified.setdefault(edge.node_id, {})[1] = "f" * 64
        edge.certifier.drain_dispatch_queue()  # dispatch the ordinary way
        for block_id in range(4):
            block = edge.log.block(block_id)
            edge._send_certify_request(edge._default_partition, block)
        env.scheduler.run_until(60.0)
        assert cloud.stats["certify_conflicts"] == 1
        assert edge.stats["certify_rejections"] == 1
        assert edge.stats["certify_retries"] == 0
        assert edge.certifier.certified_count == 3

    def test_lazy_dispute_proofs_derived_on_demand(self):
        env, cloud, edge = make_pipelined_edge(3, batch_size=3, depth=4)
        edge._pump_certify_pipeline(edge._default_partition)
        env.run()
        assert edge.certifier.certified_count == 3
        # The hot path stored no eager proofs; proof_for derives on demand.
        proof = cloud.proof_for(edge.node_id, 1)
        assert proof is not None and proof.verify(env.registry)
        assert cloud.proof_for(edge.node_id, 1) is proof  # memoized


# ----------------------------------------------------------------------
# Honest fleets: no retry timer outlives its request
# ----------------------------------------------------------------------
def _batch_100_depth_8():
    from repro.bench.runner import config_for_batch

    config = config_for_batch(100)
    return config.with_overrides(
        logging=dataclasses.replace(config.logging, certify_pipeline_depth=8)
    )


class TestNoTimerOutlivesItsRequest:
    @pytest.mark.parametrize(
        "make_config",
        [
            SystemConfig.paper_default,
            _batch_100_depth_8,
            lambda: pipeline_config(batch_size=4, depth=8),
        ],
        ids=["paper-default", "batch-100-depth-8", "batched-depth-8"],
    )
    def test_drained_fleet_keeps_no_retry_timer(self, make_config):
        from repro.core.system import WedgeChainSystem
        from repro.log.proofs import CommitPhase

        system = WedgeChainSystem.build(config=make_config(), num_clients=2, seed=5)
        scheduler = system.env.scheduler
        scheduled = []
        schedule_at = scheduler.schedule_at

        def recording(when, callback, label=""):
            handle = schedule_at(when, callback, label)
            scheduled.append(handle)
            return handle

        scheduler.schedule_at = recording
        block_size = system.config.logging.block_size
        operations = [
            (client, client.put_batch([(f"{client.node_id}-{i}-{j}", b"v") for j in range(block_size)]))
            for client in system.clients
            for i in range(10)
        ]
        assert system.wait_for_all(operations, CommitPhase.PHASE_TWO)
        system.run()

        retries = [handle for handle in scheduled if "certify-retry" in handle.label]
        assert retries and all(handle.cancelled for handle in retries)
        assert system.edge().stats["certify_retries"] == 0
        # The clock stands at the last event that ran, never at a retry.
        assert system.env.now() == max(
            handle.time for handle in scheduled if not handle.cancelled
        )


# ----------------------------------------------------------------------
# Sim parameters for windowed certification
# ----------------------------------------------------------------------
class TestOverlapParameters:
    def test_window_cost_charges_one_signature_per_inner_batch(self):
        params = SimulationParameters()
        one_batch = params.window_certification_cost(1, 32)
        assert one_batch == pytest.approx(params.batch_certification_cost(32))
        eight = params.window_certification_cost(8, 8 * 32)
        # 7 extra signatures + 7 batches' extra per-block lookups.
        assert eight == pytest.approx(
            one_batch
            + 7 * params.sign_seconds
            + 7 * 32 * params.lookup_seconds_per_op
        )


# ----------------------------------------------------------------------
# Elapsed-time retry schedule on both substrates
# ----------------------------------------------------------------------
class TestMonotonicRetryClock:
    """The retry schedule runs on *elapsed* time, never wall-clock: a
    system clock step (NTP correction, manual adjustment) would otherwise
    mass-trigger — or indefinitely suppress — every pending retry at once.
    Chains arm on their environment's own ``schedule``: simulated time, or
    the live service's monotonic event-loop timers."""

    def test_wall_clock_step_cannot_mass_trigger_retries(self, monkeypatch):
        import asyncio
        import time as time_module

        from repro.service import LiveFleet

        # First retry at dispute_timeout_s / 2 = 0.5 s of elapsed time.
        config = pipeline_config(batch_size=2, depth=2).with_overrides(
            security=SecurityConfig(dispute_timeout_s=1.0)
        )

        async def scenario():
            fleet = LiveFleet(config=config, num_edges=1)
            async with fleet:
                env, edge = fleet.env, fleet.edge(0)
                # A lossy uplink: no certify request ever reaches the cloud.
                record_sends(
                    env,
                    keep=lambda message: not isinstance(
                        message, (CertifyBatchRequest, CertifyWindowRequest)
                    ),
                )
                for block_id in range(4):
                    edge.certifier.track(block_id, f"{block_id:064x}")
                    edge.certifier.enqueue_for_dispatch(block_id)
                edge._pump_certify_pipeline(edge._default_partition)
                assert edge.certifier.in_flight_count == 2

                # The system clock leaps an hour forward and then a day back
                # — monotonic elapsed time has barely moved, so no chain
                # fires.
                for step in (3600.0, -86400.0):
                    monkeypatch.setattr(
                        time_module, "time", lambda step=step: 1_700_000_000.0 + step
                    )
                    await asyncio.sleep(0.1)
                    assert edge.stats["certify_retries"] == 0

                # Genuine elapsed time past the first step: both lost
                # batches retry once, each as exactly that batch.
                await asyncio.sleep(0.5)
                assert edge.stats["certify_batch_retries"] == 2
                assert edge.stats["certify_retries"] == 4
                assert env.failures == []

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_sim_time_injection_still_works(self):
        """On the simulator the same schedule runs in simulated seconds."""

        env, cloud, edge = make_pipelined_edge(2, batch_size=2, depth=2)
        first_retry = edge.config.security.dispute_timeout_s / 2
        env.network.set_offline(cloud.node_id)
        env.scheduler.run_until(5.0)
        edge._pump_certify_pipeline(edge._default_partition)
        env.scheduler.run_until(5.0 + first_retry - 0.01)
        assert edge.stats["certify_retries"] == 0
        env.scheduler.run_until(5.0 + first_retry + 0.01)
        assert edge.stats["certify_retries"] == 2
        assert edge.stats["certify_batch_retries"] == 1


# ----------------------------------------------------------------------
# Sustained cloud unavailability
# ----------------------------------------------------------------------
class TestRetryPolicyUnderOutage:
    """Each lost batch's chain carries it through a sustained cloud
    outage: retries back off from ``dispute_timeout_s / 2`` to a cap of
    ``dispute_timeout_s`` with no attempt budget, the in-flight window
    stays bounded however long the outage lasts, and the backlog drains
    completely once the cloud answers again."""

    def make_outage(self, num_blocks):
        env, cloud, edge = make_pipelined_edge(num_blocks, batch_size=2, depth=2)
        env.network.set_offline(cloud.node_id)
        return env, cloud, edge

    def test_backoff_grows_to_the_dispute_timeout(self):
        env, _cloud, edge = self.make_outage(2)
        timeout = edge.config.security.dispute_timeout_s
        assert edge._pump_certify_pipeline(edge._default_partition) == 1
        (batch,) = edge.certifier.in_flight_batches()
        fired = []
        for step in (timeout / 2, timeout, timeout, timeout):
            now = env.now() + step
            env.scheduler.run_until(now - 0.01)
            assert edge.stats.get("certify_batch_retries", 0) == len(fired)
            env.scheduler.run_until(now)
            fired.append(edge.stats["certify_batch_retries"])
        assert fired == [1, 2, 3, 4]
        # No budget: the batch is still in flight, its chain still armed.
        assert edge.certifier.in_flight_batches() == (batch,)
        assert batch.retry is not None

    def test_window_stays_bounded_and_drains_after_recovery(self):
        env, cloud, edge = self.make_outage(8)
        sent = record_sends(env)

        # Only depth=2 batches ship; the other four blocks stay queued.
        edge._pump_certify_pipeline(edge._default_partition)
        (first_wave,) = sent
        assert isinstance(first_wave, CertifyWindowRequest)
        assert edge.certifier.in_flight_count == 2

        # A long outage (retries at 2.5, 7.5, ..., 27.5 s at the default
        # 5 s dispute timeout), yet the window never grows — retries re-sign
        # the same two lost batches and the queue stays parked behind them.
        env.scheduler.run_until(30.0)
        assert edge.stats["certify_batch_retries"] == 12
        assert edge._pump_certify_pipeline(edge._default_partition) == 0
        assert edge.certifier.in_flight_count == 2
        assert edge.certifier.pending_dispatch_count == 4
        assert edge.certifier.certified_count == 0
        assert [type(message) for message in sent[1:]] == [CertifyBatchRequest] * 12

        # Recovery: the cloud is back and the chains' next step re-sends
        # the two lost batches; their retirements pump the backlog through.
        env.network.set_offline(cloud.node_id, offline=False)
        env.run()
        assert edge.certifier.certified_count == 8
        assert edge.certifier.in_flight_count == 0
        assert edge.certifier.pending_dispatch_count == 0
        assert edge.stats["certify_inflight_peak"] == 2

        # Late duplicates from the first (lost) wave are absorbed
        # idempotently — certified counts do not double, nobody is punished.
        cloud.on_message(edge.node_id, first_wave)
        env.run()
        assert edge.certifier.certified_count == 8
        assert edge.stats["batch_cert_mismatches"] == 0
        assert cloud.stats["certify_conflicts"] == 0
        assert cloud.ledger.is_punished(edge.node_id) is False

    def test_single_block_backlog_costs_a_bounded_trickle(self):
        """At paper defaults every block has its own chain and no window
        caps them.  Through a 60 s outage with one block formed per second,
        each block still gets its first retry (the one that beats the
        client's dispute), but later ones collapse into one probe per
        dispute timeout — not one re-send per block per timeout — and the
        backlog certifies once the probe is answered."""

        env = local_environment(seed=17)
        config = SystemConfig.paper_default()
        cloud = CloudNode(env=env, config=config, region=Region.CALIFORNIA)
        edge = EdgeNode(env=env, cloud=cloud.node_id, config=config)
        timeout = config.security.dispute_timeout_s
        outage_s, num_blocks = 60.0, 40
        env.network.set_offline(cloud.node_id)
        for block_id in range(num_blocks):
            env.scheduler.run_until(float(block_id))
            task = edge.certifier.track(block_id, f"{block_id:064x}")
            edge._dispatch_certify(edge._default_partition, task)
        env.scheduler.run_until(outage_s)
        probes = edge.stats["certify_retries"] - num_blocks
        assert 0 < probes <= outage_s / timeout
        assert edge.certifier.certified_count == 0

        env.network.set_offline(cloud.node_id, offline=False)
        env.scheduler.run_until(outage_s + 2 * timeout + 1.0)
        assert edge.certifier.certified_count == num_blocks
        assert all(edge.certifier.task(i).retry is None for i in range(num_blocks))
