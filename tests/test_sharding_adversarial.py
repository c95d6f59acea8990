"""Adversarial paths of the sharded fleet.

Covers the multi-edge attacks the certified handoff and membership gossip
exist to contain:

* a source edge that tampers with the transferred shard state — the
  destination refuses to install and the source's own signed transfer
  statement convicts it;
* a malicious edge that keeps serving a shard it handed off — a client
  holding the newer shard map detects the non-owner response and the
  cloud's ownership history convicts it;
* a stale shard map injected mid-interval — the version-monotone view
  rejects it, so membership can be delayed but never rolled back;
* honest races (an in-flight response crossing an ownership change) are
  disputed but acquitted;
* shipped shard state that lacks the cloud's word for any part of it — one
  hostile matrix through both installers (handoff transfer, replica
  shipment), which share one verifier.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import (
    LoggingConfig,
    LSMerkleConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.log.proofs import CommitPhase, issue_block_proof
from repro.lsm.page import Page
from repro.lsmerkle.mlsm import sign_global_root
from repro.messages.shard_messages import (
    ReplicaLogShipment,
    ReplicaShipmentAck,
    ShardDispute,
    ShardTransferMessage,
)
from repro.sharding import (
    ShardedEdgeNode,
    ShardedWedgeSystem,
    StaleShardOwnerEdgeNode,
    TamperingHandoffEdgeNode,
    build_shard_map_message,
)
from repro.sharding.judges import judge_shard_dispute
from repro.sim.environment import local_environment
from repro.workloads.generator import format_key


def build_fleet(
    bad_edge_cls=None, num_edges=2, num_shards=4, seed=13, replication_factor=1
):
    config = SystemConfig.paper_default().with_overrides(
        num_edge_nodes=num_edges,
        sharding=ShardingConfig(
            num_shards=num_shards, replication_factor=replication_factor
        ),
        logging=LoggingConfig(block_size=5, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )

    def factory(**kwargs):
        cls = ShardedEdgeNode
        if bad_edge_cls is not None and kwargs["name"] == "edge-0":
            cls = bad_edge_cls
        return cls(**kwargs)

    return ShardedWedgeSystem.build(
        config=config,
        num_clients=1,
        env=local_environment(seed=seed),
        edge_factory=factory,
    )


def populate(system, count=40):
    client = system.clients[0]
    operations = [
        (client, client.put(format_key(index), b"v%d" % index))
        for index in range(count)
    ]
    assert system.wait_for_all(operations, CommitPhase.PHASE_TWO, max_time_s=300)
    return client


def populate_and_pick_shard(system, count=40):
    client = populate(system, count)
    system.run()
    source = system.edges[0]
    shard = max(source.shard_entry_counts, key=source.shard_entry_counts.get)
    key = next(
        format_key(i)
        for i in range(count)
        if system.partitioner.shard_of(format_key(i)) == shard
    )
    return client, source, shard, key


class TestTamperedHandoff:
    def test_tampered_transfer_rejected_disputed_and_punished(self):
        system = build_fleet(TamperingHandoffEdgeNode)
        client, source, shard, _ = populate_and_pick_shard(system)
        dest = system.edges[1]

        system.rebalance_shard(shard, dest.node_id)
        system.run_for(10.0)
        system.run()

        # The destination never installed the tampered state …
        assert dest.shard_state(shard) is None
        assert dest.stats["shard_handoffs_in"] == 0
        assert dest.stats["shard_disputes_sent"] == 1
        assert system.cloud.stats["shard_installs"] == 0
        # … the cloud judged the dispute from the source's own signature …
        assert system.cloud.stats["shard_disputes"] == 1
        assert system.cloud.ledger.is_punished(source.node_id)
        verdict = dest.shard_verdicts[-1]
        assert verdict.punished and verdict.accused == source.node_id

    def test_version_lying_transfer_cannot_dodge_the_certificate(self):
        """A source that lies about ``map_version`` in its signed transfer
        statement (pointing the dispute path at a certificate the cloud
        never issued) is refused outright by the destination."""

        from dataclasses import replace

        from repro.messages.shard_messages import ShardTransferMessage

        class VersionLyingEdgeNode(TamperingHandoffEdgeNode):
            def _handle_handoff_grant(self, sender, grant):
                original_send = self.env.send

                def rewriting_send(src, dst, message):
                    if isinstance(message, ShardTransferMessage):
                        statement = replace(message.statement, map_version=999)
                        message = ShardTransferMessage(
                            statement=statement,
                            signature=self.env.registry.sign(
                                self.node_id, statement
                            ),
                            certificate=message.certificate,
                            blocks=message.blocks,
                            proofs=message.proofs,
                            level_pages=message.level_pages,
                            signed_root=message.signed_root,
                        )
                    return original_send(src, dst, message)

                self.env.send = rewriting_send
                try:
                    super()._handle_handoff_grant(sender, grant)
                finally:
                    self.env.send = original_send

        system = build_fleet(VersionLyingEdgeNode)
        client, source, shard, _ = populate_and_pick_shard(system)
        dest = system.edges[1]
        system.rebalance_shard(shard, dest.node_id)
        system.run_for(10.0)
        system.run()

        # The destination binds the statement to the countersigned version
        # and drops the transfer without filing a doomed dispute.
        assert dest.shard_state(shard) is None
        assert dest.stats["shard_transfer_invalid"] == 1
        assert dest.stats["shard_disputes_sent"] == 0
        assert system.cloud.stats["shard_installs"] == 0

    def test_honest_handoff_convicts_nobody(self):
        system = build_fleet()
        client, source, shard, _ = populate_and_pick_shard(system)
        system.rebalance_shard(shard, system.edges[1].node_id)
        system.run_for(10.0)
        system.run()
        assert system.cloud.stats["shard_installs"] == 1
        assert system.cloud.stats["shard_disputes"] == 0
        assert not system.cloud.ledger.is_punished(source.node_id)


class TestStaleOwnerServing:
    def test_serving_after_handoff_detected_and_punished(self):
        system = build_fleet(StaleShardOwnerEdgeNode)
        client, source, shard, key = populate_and_pick_shard(system)
        system.rebalance_shard(shard, system.edges[1].node_id)
        system.run_for(10.0)
        system.run()
        assert system.shard_owner(shard) == system.edges[1].node_id

        # Force routing to the stale old owner (e.g. a client with a cached
        # connection); the malicious edge happily serves from its snapshot.
        get_op = client.get(key, edge=source.node_id)
        system.run_for(5.0)
        system.run()

        record = client.tracker.get(get_op)
        assert record.phase is CommitPhase.FAILED
        assert client.stats["stale_owner_detections"] == 1
        assert client.stats["shard_disputes_sent"] == 1
        assert any(
            event["kind"] == "stale-owner-serve" for event in client.malicious_events
        )
        assert system.cloud.ledger.is_punished(source.node_id)
        verdict = client.shard_verdicts[-1]
        assert verdict.punished and verdict.accused == source.node_id

    def test_pre_handoff_response_is_acquitted(self):
        """A signed response issued *before* the ownership change must not
        convict the edge (the in-flight race is legal)."""

        system = build_fleet()
        client, source, shard, key = populate_and_pick_shard(system)
        # Capture a legitimate signed response statement before the move.
        get_op = client.get(key)
        assert (
            system.wait_for(client, get_op, CommitPhase.PHASE_TWO, 60)
            is CommitPhase.PHASE_TWO
        )
        record = client.tracker.get(get_op)
        statement = record.details["get_statement"]
        signature = record.details["get_signature"]

        system.rebalance_shard(shard, system.edges[1].node_id)
        system.run_for(10.0)
        system.run()

        dispute = ShardDispute(
            reporter=client.node_id,
            accused=source.node_id,
            shard_id=shard,
            kind="stale-owner-serve",
            serve_statement=statement,
            serve_signature=signature,
        )
        judgement = judge_shard_dispute(
            dispute,
            registry=system.env.registry,
            owner_at=system.cloud.shard_registry.owner_at,
            granted_state_digest=None,
            shard_of=system.partitioner.shard_of,
        )
        assert not judgement.punished
        assert "owned the shard" in judgement.reason


class TestHandoffAuthorization:
    def test_unordered_handoff_offer_rejected(self):
        """An owning edge cannot unilaterally dump its shard on an arbitrary
        destination: offers without a matching cloud order are refused."""

        from repro.messages.shard_messages import (
            ShardHandoffRequest,
            ShardHandoffStatement,
        )
        from repro.sharding import shard_state_digest

        system = build_fleet()
        cloud = system.cloud
        source = system.edges[0]
        shard = source.owned_shards()[0]
        mirror = cloud.mirror_for(source.node_id, shard)
        statement = ShardHandoffStatement(
            edge=source.node_id,
            dest=system.edges[1].node_id,
            shard_id=shard,
            blocks=(),
            state_digest=shard_state_digest(shard, mirror.level_roots(), ()),
            issued_at=system.env.now(),
        )
        request = ShardHandoffRequest(
            statement=statement,
            signature=system.env.registry.sign(source.node_id, statement),
        )
        system.env.send(source.node_id, cloud.node_id, request)
        system.run_for(2.0)
        system.run()
        assert cloud.stats["shard_handoffs_rejected"] == 1
        assert cloud.stats["shard_handoffs_granted"] == 0
        assert system.shard_owner(shard) == source.node_id
        assert source.stats["shard_handoff_rejections"] == 1

    def test_duplicate_transfer_does_not_clobber_live_partition(self):
        """A replayed (valid) transfer never overwrites a live partition at
        the destination."""

        from repro.messages.shard_messages import ShardTransferMessage
        from repro.sharding import ShardedEdgeNode

        class DoubleSendingEdgeNode(ShardedEdgeNode):
            def _handle_handoff_grant(self, sender, grant):
                original_send = self.env.send

                def duplicating_send(src, dst, message):
                    delay = original_send(src, dst, message)
                    if isinstance(message, ShardTransferMessage):
                        original_send(src, dst, message)  # replay
                    return delay

                self.env.send = duplicating_send
                try:
                    super()._handle_handoff_grant(sender, grant)
                finally:
                    self.env.send = original_send

        system = build_fleet(DoubleSendingEdgeNode)
        client, source, shard, key = populate_and_pick_shard(system)
        dest = system.edges[1]
        system.rebalance_shard(shard, dest.node_id)
        system.run_for(10.0)
        system.run()
        assert dest.stats["shard_handoffs_in"] == 1
        assert dest.stats.get("shard_transfer_duplicates", 0) == 1
        # Writes that landed after the first install survive the replay.
        put_op = client.put(key, b"post-install")
        assert (
            system.wait_for(client, put_op, CommitPhase.PHASE_TWO, 60)
            is CommitPhase.PHASE_TWO
        )
        get_op = client.get(key)
        system.wait_for(client, get_op, CommitPhase.PHASE_TWO, 60)
        assert client.value_of(get_op) == b"post-install"

    def test_former_owner_cannot_refresh_shard_root(self):
        """After a handoff the old owner gets no fresh-timestamped signed
        root for the shard (which could back verifiable absence proofs)."""

        system = build_fleet()
        client, source, shard, _ = populate_and_pick_shard(system)
        system.rebalance_shard(shard, system.edges[1].node_id)
        system.run_for(10.0)
        system.run()
        before = system.cloud.stats["root_refreshes"]
        from repro.messages.kv_messages import RootRefreshRequest

        system.env.send(
            source.node_id,
            system.cloud.node_id,
            RootRefreshRequest(edge=source.node_id, shard_id=shard),
        )
        system.run_for(2.0)
        system.run()
        assert system.cloud.stats["root_refreshes"] == before


class TestMembershipChangeMidInterval:
    def test_stale_shard_map_never_passes_verification(self):
        """A delayed (pre-handoff) map delivered after the change must not
        roll any view back — client, edge, or fleet view."""

        system = build_fleet()
        client, source, shard, _ = populate_and_pick_shard(system)
        registry = system.env.registry
        stale_message = system.cloud.current_shard_map()  # version 1

        system.rebalance_shard(shard, system.edges[1].node_id)
        system.run_for(10.0)
        system.run()
        assert client.fleet_view.shard_map.version == 2

        # Replay the stale version-1 map to every party, mid-interval.
        for node in (client, *system.edges):
            system.env.send(system.cloud.node_id, node.node_id, stale_message)
        system.run_for(2.0)
        system.run()

        assert client.fleet_view.shard_map.version == 2
        assert client.fleet_view.shard_map.rejected >= 1
        for edge in system.edges:
            assert edge.map_view.version == 2
        # Ownership still points at the new owner everywhere.
        assert client.fleet_view.shard_map.owner_of(shard) == system.edges[1].node_id

    def test_forged_map_from_non_cloud_signer_rejected(self):
        system = build_fleet()
        client = system.clients[0]
        registry = system.env.registry
        edge = system.edges[0]
        # An edge forges a "version 99" map naming itself owner of everything.
        forged = build_shard_map_message(
            registry,
            edge.node_id,  # signed by the edge, not the cloud
            99,
            4,
            "hash-ring",
            {shard: edge.node_id for shard in range(4)},
            1.0,
        )
        before = client.fleet_view.shard_map.version
        assert not client.fleet_view.shard_map.update(registry, forged)
        assert client.fleet_view.shard_map.version == before

    def test_requests_during_migration_are_redirected_not_lost(self):
        """While a shard is mid-handoff the source redirects and the client
        lands on the destination once it is installed."""

        system = build_fleet()
        client, source, shard, key = populate_and_pick_shard(system)
        dest = system.edges[1]
        system.rebalance_shard(shard, dest.node_id)
        # Wait until the source has actually entered the migrating state
        # (order received, shard drain in progress), then issue the get.
        assert system.env.run_until_condition(
            lambda: shard in source._migrating or source.shard_state(shard) is None,
            system.env.now() + 10.0,
        )
        redirects_before = source.stats["shard_redirects"]
        get_op = client.get(key)
        system.run_for(15.0)
        system.run()
        record = client.tracker.get(get_op)
        # The operation completed (possibly after redirects) at the new owner.
        assert record.phase in (CommitPhase.PHASE_ONE, CommitPhase.PHASE_TWO)
        assert record.details["edge"] == dest.node_id
        assert client.value_of(get_op) is not None
        # The client's route was stale at issue time, so at least one
        # signed redirect (from the migrating source) was followed.
        assert source.stats["shard_redirects"] > redirects_before
        assert client.stats["redirects_followed"] >= 1


# ----------------------------------------------------------------------
# One verifier, one hostile matrix: shipped state through both installers
# ----------------------------------------------------------------------
def _held_back(system, message_type, run):
    """Run *run* with every *message_type* send vetoed; returns those held."""

    held = []

    def hold(src, dst, message):
        if isinstance(message, message_type):
            held.append(message)
            return False
        return True

    system.env.network.add_send_hook("hold-back", hold)
    try:
        run()
    finally:
        system.env.network.remove_send_hook("hold-back")
    return held


def replicated_fleet():
    """A populated honest 2-edge fleet where each edge mirrors the other's
    shards; returns it with edge 0's busiest shard.  Settles with
    ``run_for``: the replication ticks never let a bare ``run()`` drain."""

    system = build_fleet(replication_factor=2)
    populate(system)
    system.run_for(3.0)
    counts = system.edges[0].shard_entry_counts
    return system, max(counts, key=counts.get)


def honest_transfer():
    """A real ``ShardTransferMessage`` that never reached its destination.

    Returns ``(system, sender, receiver, message, installed)`` where
    ``installed()`` is what the receiver holds of the shard.
    """

    system, shard = replicated_fleet()
    source, dest = system.edges

    def hand_off():
        system.rebalance_shard(shard, dest.node_id)
        system.run_for(0.5)

    (message,) = _held_back(system, ShardTransferMessage, hand_off)
    return system, source, dest, message, lambda: dest.shard_state(shard)


def honest_shipment():
    """A real full ``ReplicaLogShipment`` (blocks, proofs, pages, root) the
    writer re-ships after its replica acked ``-1``, as a restarted mirror
    does; ``installed()`` is the mirror's index, root and log length."""

    system, shard = replicated_fleet()
    writer, replica = system.edges
    mirror = replica._replica_states[shard]

    def reship():
        writer.on_message(
            replica.node_id,
            ReplicaShipmentAck(
                replica=replica.node_id, shard_id=shard, watermark=-1, root_version=0
            ),
        )
        system.run_for(2 * system.config.security.gossip_interval_s)

    held = _held_back(system, ReplicaLogShipment, reship)
    message = next(m for m in held if m.shard_id == shard and m.blocks)
    return (
        system,
        writer,
        replica,
        message,
        lambda: (mirror.index, mirror.signed_root, len(mirror.log)),
    )


INSTALLERS = {
    # installer -> (capture, the one counter a refusal bumps)
    "transfer": (honest_transfer, "shard_transfer_invalid"),
    "shipment": (honest_shipment, "replica_shipments_rejected"),
}


def _resigned_root(system, message, signer=None, edge=None):
    statement = message.signed_root.statement
    return sign_global_root(
        registry=system.env.registry,
        cloud=signer if signer is not None else system.cloud.node_id,
        edge=edge if edge is not None else statement.edge,
        level_roots=statement.level_roots,
        version=statement.version,
        timestamp=statement.timestamp,
    )


def _edge_signed_proof(system, sender, message):
    block = message.blocks[0]
    return issue_block_proof(
        system.env.registry,
        cloud=sender.node_id,  # a valid signature, just not the cloud's
        edge=block.edge,
        block_id=block.block_id,
        block_digest=block.digest(),
        certified_at=message.proofs[0].certified_at,
    )


def _forged_first_page(message):
    (level_index, (page, *pages)), *levels = message.level_pages
    records = (dataclasses.replace(page.records[0], value=b"forged"), *page.records[1:])
    forged = Page(records=records, fence=page.fence, created_at=page.created_at)
    return ((level_index, (forged, *pages)), *levels)


#: lie -> (system, sender, message) -> the fields to replace.
SHIPPED_STATE_LIES = {
    "proofs-one-short": lambda system, sender, m: dict(proofs=m.proofs[:-1]),
    "proof-for-a-different-block": lambda system, sender, m: dict(
        proofs=(m.proofs[1], m.proofs[0], *m.proofs[2:])
    ),
    "proof-not-by-this-cloud": lambda system, sender, m: dict(
        proofs=(_edge_signed_proof(system, sender, m), *m.proofs[1:])
    ),
    "root-signed-for-another-node": lambda system, sender, m: dict(
        signed_root=_resigned_root(system, m, edge=system.clients[0].node_id)
    ),
    "root-not-signed-by-this-cloud": lambda system, sender, m: dict(
        signed_root=_resigned_root(system, m, signer=sender.node_id)
    ),
    "pages-do-not-hash-to-the-root": lambda system, sender, m: dict(
        level_pages=_forged_first_page(m)
    ),
    "duplicated-level-index": lambda system, sender, m: dict(
        level_pages=(*m.level_pages, m.level_pages[0])
    ),
    "level-index-zero": lambda system, sender, m: dict(
        level_pages=((0, m.level_pages[0][1]), *m.level_pages)
    ),
    "level-index-num-levels": lambda system, sender, m: dict(
        level_pages=(
            *m.level_pages,
            (system.config.lsmerkle.num_levels, m.level_pages[0][1]),
        )
    ),
}


def _deliver(system, sender, receiver, message):
    """Hand *message* to *receiver*; returns (stat deltas, what it sent)."""

    before = dict(receiver.stats)
    sent = _held_back(
        system, object, lambda: receiver.on_message(sender.node_id, message)
    )
    deltas = {
        key: value - before.get(key, 0)
        for key, value in receiver.stats.items()
        if value != before.get(key, 0)
    }
    return deltas, sent


class TestShippedStateHostileMatrix:
    """The same tampered payloads through both installers of shipped shard
    state: each is refused whole — nothing installed, one counter bumped,
    nothing sent (no install ack, no positive shipment ack, and no dispute:
    the source-signed digest never contradicts the certificate here)."""

    @pytest.mark.parametrize("installer", sorted(INSTALLERS))
    def test_the_untampered_capture_installs(self, installer):
        capture, _ = INSTALLERS[installer]
        system, sender, receiver, message, installed = capture()
        assert len(message.blocks) >= 2 and message.level_pages
        assert len(message.proofs) == len(message.blocks)
        before = installed()
        deltas, sent = _deliver(system, sender, receiver, message)
        assert installed() != before and sent
        assert not set(deltas) & {counter for _, counter in INSTALLERS.values()}

    @pytest.mark.parametrize("lie", sorted(SHIPPED_STATE_LIES))
    @pytest.mark.parametrize("installer", sorted(INSTALLERS))
    def test_lie_is_refused_whole(self, installer, lie):
        capture, counter = INSTALLERS[installer]
        system, sender, receiver, message, installed = capture()
        before = installed()
        tampered = dataclasses.replace(
            message, **SHIPPED_STATE_LIES[lie](system, sender, message)
        )
        deltas, sent = _deliver(system, sender, receiver, tampered)
        assert installed() == before
        assert deltas == {counter: 1}
        assert sent == []
