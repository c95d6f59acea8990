"""Integration tests for the two baseline systems and cross-system comparisons."""

from __future__ import annotations

import pytest

from repro.baselines.cloud_only import CloudOnlySystem
from repro.baselines.edge_baseline import (
    CertifiedStateResponse,
    EdgeBaselineCloudNode,
    EdgeBaselineSystem,
    FullBlockCertifyRequest,
)
from repro.common import LoggingConfig, LSMerkleConfig, SystemConfig
from repro.common.identifiers import edge_id
from repro.common.regions import Region
from repro.core.system import SystemStats, WedgeChainSystem
from repro.log.block import build_block
from repro.log.entry import make_entry
from repro.log.proofs import CommitPhase
from repro.messages.log_messages import CertifyRejection
from repro.sim.environment import local_environment


def small_config(block_size=5):
    return SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=block_size, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )


class TestCloudOnly:
    def test_put_and_get_roundtrip(self):
        system = CloudOnlySystem.build(
            config=small_config(), num_clients=1, env=local_environment(seed=81)
        )
        client = system.client()
        op = client.put_batch([(f"k{i}", f"v{i}".encode()) for i in range(5)])
        system.wait_for_all([(client, op)], max_time_s=30)
        assert client.tracker.get(op).phase is CommitPhase.PHASE_TWO

        get_op = client.get("k3")
        system.wait_for_all([(client, get_op)], max_time_s=30)
        assert client.value_of(get_op) == b"v3"

    def test_get_missing_key(self):
        system = CloudOnlySystem.build(
            config=small_config(), num_clients=1, env=local_environment(seed=82)
        )
        client = system.client()
        op = client.put_batch([(f"k{i}", b"v") for i in range(5)])
        system.wait_for_all([(client, op)], max_time_s=30)
        get_op = client.get("missing")
        system.wait_for_all([(client, get_op)], max_time_s=30)
        record = client.tracker.get(get_op)
        assert record.details["found"] is False

    def test_read_block_and_missing_block(self):
        system = CloudOnlySystem.build(
            config=small_config(), num_clients=1, env=local_environment(seed=83)
        )
        client = system.client()
        op = client.add_batch([f"e{i}".encode() for i in range(5)])
        system.wait_for_all([(client, op)], max_time_s=30)
        block_id = client.tracker.get(op).block_id
        read_op = client.read(block_id)
        system.wait_for_all([(client, read_op)], max_time_s=30)
        assert client.tracker.get(read_op).details["found"] is True

        missing = client.read(999)
        system.wait_for_all([(client, missing)], max_time_s=30)
        assert client.tracker.get(missing).phase is CommitPhase.FAILED

    def test_partial_batch_is_flushed_immediately(self):
        system = CloudOnlySystem.build(
            config=small_config(block_size=100),
            num_clients=1,
            env=local_environment(seed=84),
        )
        client = system.client()
        op = client.put_batch([("only", b"one")])
        system.wait_for_all([(client, op)], max_time_s=30)
        assert client.tracker.get(op).phase is CommitPhase.PHASE_TWO

    def test_index_compaction_keeps_data(self):
        system = CloudOnlySystem.build(
            config=small_config(), num_clients=1, env=local_environment(seed=85)
        )
        client = system.client()
        ops = []
        for block in range(8):
            ops.append(
                (client, client.put_batch([(f"key-{block}-{i}", b"v") for i in range(5)]))
            )
        system.wait_for_all(ops, max_time_s=60)
        assert system.cloud.index.levels_needing_merge() == ()
        get_op = client.get("key-0-0")
        system.wait_for_all([(client, get_op)], max_time_s=30)
        assert client.tracker.get(get_op).details["found"] is True


class TestEdgeBaseline:
    def test_write_commits_only_after_cloud_certification(self):
        system = EdgeBaselineSystem.build(config=small_config(), num_clients=1, seed=86)
        client = system.client()
        op = client.put_batch([(f"k{i}", b"v") for i in range(5)])
        system.wait_for_all([(client, op)], max_time_s=60)
        record = client.operation(op)
        assert record.phase is CommitPhase.PHASE_TWO
        # The acknowledgement had to wait for the wide-area certification.
        assert record.phase_one_latency > 0.030
        # Phase I and Phase II coincide (synchronous certification).
        assert record.phase_two_latency - record.phase_one_latency < 0.050

    def test_reads_are_served_from_the_edge_with_proofs(self):
        system = EdgeBaselineSystem.build(config=small_config(), num_clients=2, seed=87)
        writer, reader = system.clients
        op = writer.put_batch([(f"k{i}", f"v{i}".encode()) for i in range(5)])
        system.wait_for_all([(writer, op)], max_time_s=60)
        get_op = reader.get("k2")
        system.wait_for_all([(reader, get_op)], max_time_s=60)
        assert reader.value_of(get_op) == b"v2"
        assert reader.operation(get_op).phase is CommitPhase.PHASE_TWO

    def test_cloud_stores_certified_digests(self):
        system = EdgeBaselineSystem.build(config=small_config(), num_clients=1, seed=88)
        client = system.client()
        op = client.put_batch([(f"k{i}", b"v") for i in range(5)])
        system.wait_for_all([(client, op)], max_time_s=60)
        edge_id = system.edge().node_id
        assert system.cloud.certified_log_size(edge_id) == 1
        assert system.cloud.stats["certifications"] == 1


class _ProbeEdge:
    """A fake edge that sends full blocks to the edge-baseline cloud."""

    def __init__(self, env):
        self.node_id = edge_id("edge-0")
        self.region = Region.CALIFORNIA
        self.received = []
        self.env = env
        env.attach(self)

    def on_message(self, sender, message):
        self.received.append(message)

    def send_block(self, cloud, payload: bytes) -> None:
        entry = make_entry(
            registry=self.env.registry,
            producer=self.node_id,
            sequence=0,
            payload=payload,
            produced_at=0.0,
        )
        block = build_block(self.node_id, 0, (entry,), 0.0)
        self.env.send(
            self.node_id,
            cloud.node_id,
            FullBlockCertifyRequest(edge=self.node_id, block=block),
        )
        self.env.run()


class TestEdgeBaselineCloudConflictRule:
    """The full-data certifier decides with the cloud's own conflict rule."""

    def _cloud_and_probe(self):
        env = local_environment(seed=89)
        return EdgeBaselineCloudNode(env=env, config=small_config()), _ProbeEdge(env)

    def test_a_second_block_for_one_id_is_refused_and_punished_once(self):
        cloud, probe = self._cloud_and_probe()
        probe.send_block(cloud, b"first")
        probe.send_block(cloud, b"second")
        certified, refused = probe.received
        assert isinstance(certified, CertifiedStateResponse)
        assert isinstance(refused, CertifyRejection)
        assert refused.existing_digest == certified.proof.block_digest
        assert refused.offending_digest != certified.proof.block_digest
        assert cloud.stats["certifications"] == 1
        assert cloud.stats["punishments"] == 1
        assert cloud.ledger.is_punished(probe.node_id)
        assert cloud.certified_digest(probe.node_id, 0) == certified.proof.block_digest

    def test_an_identical_resend_gets_the_same_proof(self):
        cloud, probe = self._cloud_and_probe()
        probe.send_block(cloud, b"same")
        probe.send_block(cloud, b"same")
        first, again = probe.received
        assert isinstance(again, CertifiedStateResponse)
        assert again.proof is first.proof
        assert cloud.stats["certifications"] == 1
        assert cloud.stats["punishments"] == 0


class TestCrossSystemComparisons:
    """The latency orderings that every figure of the paper relies on."""

    def _commit_latency(self, system_cls, seed):
        system = system_cls.build(config=small_config(), num_clients=1, seed=seed)
        client = system.clients[0]
        op = client.put_batch([(f"k{i}", b"v") for i in range(5)])
        if isinstance(system, WedgeChainSystem):
            system.wait_for(client, op, CommitPhase.PHASE_ONE, max_time_s=60)
        else:
            system.wait_for_all([(client, op)], max_time_s=60)
        return client.tracker.get(op).phase_one_latency

    def test_wedgechain_commits_at_edge_latency(self):
        wedge = self._commit_latency(WedgeChainSystem, seed=91)
        cloud_only = self._commit_latency(CloudOnlySystem, seed=92)
        edge_baseline = self._commit_latency(EdgeBaselineSystem, seed=93)
        assert wedge < cloud_only < edge_baseline

    def test_data_free_certification_saves_wan_bytes(self):
        """WedgeChain's WAN traffic per committed block is far smaller than the
        edge-baseline's, which ships every block across the WAN."""

        config = small_config(block_size=50)
        wedge = WedgeChainSystem.build(config=config, num_clients=1, seed=94)
        baseline = EdgeBaselineSystem.build(config=config, num_clients=1, seed=95)
        items = [(f"key-{i}", b"x" * 100) for i in range(50)]

        wedge_client = wedge.client()
        op = wedge_client.put_batch(items)
        wedge.wait_for(wedge_client, op, CommitPhase.PHASE_TWO, max_time_s=60)

        baseline_client = baseline.client()
        op = baseline_client.put_batch(items)
        baseline.wait_for_all([(baseline_client, op)], max_time_s=60)

        assert wedge.env.network.stats.wan_bytes * 5 < baseline.env.network.stats.wan_bytes


class TestStatsOnEveryDeployment:
    """One put batch (one block) and one get, settled: the shared
    ``stats()`` counts blocks where they form — the cloud-only store has no
    edges — and a store that certifies nothing reports zero."""

    @pytest.mark.parametrize(
        "system_cls, certifications, wan_bytes, lan_bytes",
        [
            (WedgeChainSystem, 1, 376, 2614),
            (EdgeBaselineSystem, 1, 1402, 2614),
            (CloudOnlySystem, 0, 774, 0),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_stats_are_pinned(self, system_cls, certifications, wan_bytes, lan_bytes):
        system = system_cls.build(config=small_config(), num_clients=1, seed=96)
        client = system.client()
        op = client.put_batch([(f"k{i}", b"v") for i in range(5)])
        system.wait_for(client, op)
        system.wait_for(client, client.get("k1"))
        system.run()
        assert system.stats() == SystemStats(
            phase_one_commits=0,
            phase_two_commits=2,
            failed_operations=0,
            blocks_formed=1,
            certifications=certifications,
            punishments=0,
            wan_bytes=wan_bytes,
            lan_bytes=lan_bytes,
        )
