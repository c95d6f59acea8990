"""Unit-level tests of the edge and cloud node implementations.

These drive single nodes (attached to a co-located environment) through
specific message sequences to pin down behaviours that the end-to-end
integration tests only exercise implicitly: certification idempotency,
conflict handling, merge rejections, root refreshes, and the data-free
ablation variant.
"""

from __future__ import annotations

import pytest

from repro.common import LoggingConfig, LSMerkleConfig, SecurityConfig, SystemConfig
from repro.common.identifiers import client_id
from repro.core.system import WedgeChainSystem
from repro.faults import assert_no_false_convictions
from repro.log.entry import make_entry
from repro.log.proofs import CommitPhase
from repro.lsmerkle.codec import encode_put
from repro.messages.log_messages import (
    BlockCertifyRequest,
    CertifyStatement,
)
from repro.nodes.cloud import CloudNode
from repro.nodes.variants import FullDataCertifyRequest, FullDataLazyEdgeNode
from repro.sim.environment import local_environment


def small_config(block_size=4):
    return SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=block_size, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
        security=SecurityConfig(dispute_timeout_s=2.0),
    )


@pytest.fixture
def cloud_env():
    env = local_environment(seed=101)
    cloud = CloudNode(env=env, config=small_config())
    return env, cloud


class _Probe:
    """A fake edge endpoint used to talk to the cloud node directly."""

    def __init__(self, env, name="edge-0"):
        from repro.common.identifiers import edge_id
        from repro.common.regions import Region

        self.node_id = edge_id(name)
        self.region = Region.CALIFORNIA
        self.received = []
        self.env = env
        env.attach(self)

    def on_message(self, sender, message):
        self.received.append(message)

    def certify(self, block_id, digest, num_entries=4):
        statement = CertifyStatement(
            edge=self.node_id,
            block_id=block_id,
            block_digest=digest,
            num_entries=num_entries,
        )
        signature = self.env.registry.sign(self.node_id, statement)
        return BlockCertifyRequest(statement=statement, signature=signature)


class TestCloudCertification:
    def test_first_certification_issues_proof(self, cloud_env):
        env, cloud = cloud_env
        probe = _Probe(env)
        env.send(probe.node_id, cloud.node_id, probe.certify(0, "a" * 64))
        env.run()
        assert cloud.certified_digest(probe.node_id, 0) == "a" * 64
        assert cloud.stats["certifications"] == 1
        assert len(probe.received) == 1
        proof_message = probe.received[0]
        assert proof_message.proof.block_digest == "a" * 64
        assert proof_message.proof.verify(env.registry)

    def test_repeated_identical_certification_is_idempotent(self, cloud_env):
        env, cloud = cloud_env
        probe = _Probe(env)
        for _ in range(3):
            env.send(probe.node_id, cloud.node_id, probe.certify(0, "a" * 64))
        env.run()
        assert cloud.stats["certifications"] == 1
        assert cloud.stats["punishments"] == 0
        assert len(probe.received) == 3  # a proof is (re)sent every time

    def test_conflicting_digest_flags_edge_as_malicious(self, cloud_env):
        env, cloud = cloud_env
        probe = _Probe(env)
        env.send(probe.node_id, cloud.node_id, probe.certify(0, "a" * 64))
        env.send(probe.node_id, cloud.node_id, probe.certify(0, "b" * 64))
        env.run()
        assert cloud.stats["certify_conflicts"] == 1
        assert cloud.ledger.is_punished(probe.node_id)
        from repro.messages.log_messages import CertifyRejection

        assert any(isinstance(msg, CertifyRejection) for msg in probe.received)
        # The originally certified digest is retained.
        assert cloud.certified_digest(probe.node_id, 0) == "a" * 64

    def test_misattributed_certification_is_ignored(self, cloud_env):
        env, cloud = cloud_env
        honest = _Probe(env, name="edge-0")
        impostor = _Probe(env, name="edge-1")
        # The impostor relays a statement naming the honest edge.
        request = honest.certify(0, "c" * 64)
        env.send(impostor.node_id, cloud.node_id, request)
        env.run()
        assert cloud.certified_digest(honest.node_id, 0) is None
        assert cloud.stats["certifications"] == 0

    def test_certified_log_size_counts_blocks(self, cloud_env):
        env, cloud = cloud_env
        probe = _Probe(env)
        for block_id in range(3):
            env.send(
                probe.node_id, cloud.node_id, probe.certify(block_id, f"{block_id}" * 64)
            )
        env.run()
        assert cloud.certified_log_size(probe.node_id) == 3
        assert cloud.proof_for(probe.node_id, 2) is not None
        assert cloud.proof_for(probe.node_id, 9) is None


class TestEdgeNodeBehaviour:
    def _system(self, **kwargs):
        return WedgeChainSystem.build(
            config=small_config(**kwargs), num_clients=1, env=local_environment(seed=103)
        )

    def test_append_forms_block_and_certifies(self):
        system = self._system()
        client = system.client()
        op = client.put_batch([(f"k{i}", b"v") for i in range(4)])
        system.run_for(2.0)
        edge = system.edge()
        assert edge.stats["blocks_formed"] == 1
        assert edge.stats["certify_requests"] == 1
        assert edge.log.certified_count() == 1
        assert client.operation(op).phase is CommitPhase.PHASE_TWO

    def test_multiple_operations_batched_into_one_block(self):
        system = self._system()
        client = system.client()
        op_a = client.put_batch([("a", b"1"), ("b", b"2")])
        op_b = client.put_batch([("c", b"3"), ("d", b"4")])
        system.run_for(2.0)
        assert system.edge().stats["blocks_formed"] == 1
        assert client.operation(op_a).block_id == client.operation(op_b).block_id

    def test_index_only_tracks_put_blocks(self):
        system = self._system()
        client = system.client()
        client.add_batch([b"log-only"] * 4)
        system.run_for(2.0)
        edge = system.edge()
        assert edge.stats["blocks_formed"] == 1
        assert edge.index.tree.level_zero.num_pages == 0
        client.put_batch([(f"k{i}", b"v") for i in range(4)])
        system.run_for(2.0)
        assert edge.index.tree.level_zero.num_pages == 1

    def test_foreign_block_proof_is_ignored(self):
        system = self._system()
        client = system.client()
        client.put_batch([(f"k{i}", b"v") for i in range(4)])
        system.run_for(2.0)
        edge = system.edge()
        from repro.log.proofs import issue_block_proof

        foreign = issue_block_proof(
            system.env.registry,
            system.cloud.node_id,
            client.node_id.__class__(client.node_id.role, "someone-else"),
            99,
            "d" * 64,
            1.0,
        )
        before = edge.stats["proofs_received"]
        from repro.messages.log_messages import BlockProofMessage

        system.env.send(system.cloud.node_id, edge.node_id, BlockProofMessage(proof=foreign))
        system.run_for(1.0)
        assert edge.stats["proofs_received"] == before

    def test_unknown_message_types_are_ignored(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class UnknownMessage:
            text: str = "???"

        system = self._system()
        edge = system.edge()
        system.env.send(system.cloud.node_id, edge.node_id, UnknownMessage())
        system.run_for(0.5)  # must not raise


class TestFullDataLazyVariant:
    def test_full_data_certification_still_certifies_but_costs_bandwidth(self):
        def factory(env, cloud, cfg, name, region):
            return FullDataLazyEdgeNode(env=env, cloud=cloud, config=cfg, name=name, region=region)

        lazy_system = WedgeChainSystem.build(
            config=small_config(), num_clients=1, env=local_environment(seed=104)
        )
        full_system = WedgeChainSystem.build(
            config=small_config(),
            num_clients=1,
            env=local_environment(seed=104),
            edge_factory=factory,
        )
        payload = [(f"key-{i}", b"x" * 200) for i in range(4)]
        for system in (lazy_system, full_system):
            client = system.client()
            op = client.put_batch(payload)
            system.run_for(2.0)
            assert client.operation(op).phase is CommitPhase.PHASE_TWO
        lazy_bytes = lazy_system.env.network.stats.per_link_bytes
        full_bytes = full_system.env.network.stats.per_link_bytes
        edge_to_cloud = lambda stats, system: stats.get(
            (str(system.edge().node_id), str(system.cloud.node_id)), 0
        )
        assert edge_to_cloud(full_bytes, full_system) > 2 * edge_to_cloud(
            lazy_bytes, lazy_system
        )

    def test_full_data_request_exposes_certify_interface(self, registry):
        from repro.log.block import build_block

        entries = [
            make_entry(registry, client_id("alice"), i, encode_put(f"k{i}", b"v"), 0.0)
            for i in range(2)
        ]
        from repro.common.identifiers import edge_id

        block = build_block(edge_id("edge-0"), 0, entries, 0.0)
        statement = CertifyStatement(
            edge=block.edge, block_id=0, block_digest=block.digest(), num_entries=2
        )
        request = FullDataCertifyRequest(
            statement=statement,
            signature=registry.sign(client_id("alice"), statement),
            block=block,
        )
        assert isinstance(request, BlockCertifyRequest)
        assert request.wire_size > block.wire_size
        assert request.block_digest == block.digest()


class TestDroppedCertifyRequestIsNeverResent:
    """One certify request lost on the uplink.  The class name records the
    hole it used to pin (nothing re-sent the request, so the client's
    dispute convicted an honest edge); the edge's own retransmission chain
    now re-sends it at ``dispute_timeout_s / 2``, before that dispute."""

    @staticmethod
    def fleet_after_a_minute_without_the_first_certify_request():
        """A 1-edge sim fleet at paper defaults whose first
        ``BlockCertifyRequest`` a send hook vetoes, run 60 simulated seconds."""

        system = WedgeChainSystem.build()
        dropped = []

        def veto_first_certify_request(src, dst, message) -> bool:
            if isinstance(message, BlockCertifyRequest) and not dropped:
                dropped.append(message)
                return False
            return True

        system.env.network.add_send_hook("test:drop-certify", veto_first_certify_request)
        block_size = system.config.logging.block_size
        system.client().put_batch([(f"key-{i}", b"v") for i in range(block_size)])
        system.run_for(60.0)
        return system, dropped

    def test_block_reaches_phase_two_on_its_own(self):
        system, dropped = self.fleet_after_a_minute_without_the_first_certify_request()
        edge = system.edge()
        assert len(dropped) == 1 and edge.stats["blocks_formed"] == 1
        assert edge.log.uncertified_block_ids() == ()
        assert edge.stats["certify_retries"] == 1
        assert system.cloud.stats["certifications"] == 1
        assert_no_false_convictions(system.cloud, [edge.node_id])
        assert system.client().stats["disputes_sent"] == 0
