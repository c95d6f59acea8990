"""Integration tests: the LSMerkle key-value path end to end.

Covers put/get flows, verified proofs for present and missing keys, version
overwrites, cloud-coordinated merges (including cascades), and read
freshness.
"""

from __future__ import annotations

from repro.common import LoggingConfig, LSMerkleConfig, SecurityConfig, SystemConfig
from repro.core.system import WedgeChainSystem
from repro.log.proofs import CommitPhase
from repro.sim.environment import local_environment
from repro.workloads.generator import format_key


def build_kv_system(num_clients=2, seed=31, freshness=None, block_size=5):
    config = SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=block_size, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
        security=SecurityConfig(freshness_window_s=freshness),
    )
    return WedgeChainSystem.build(
        config=config, num_clients=num_clients, env=local_environment(seed=seed)
    )


def put_keys(system, client, items):
    op = client.put_batch(items)
    assert (
        system.wait_for(client, op, CommitPhase.PHASE_TWO, max_time_s=60)
        is CommitPhase.PHASE_TWO
    )
    return op


class TestPutGet:
    def test_get_returns_written_value_with_proof(self):
        system = build_kv_system()
        writer, reader = system.clients
        put_keys(system, writer, [(f"city-{i}", f"value-{i}".encode()) for i in range(5)])
        op = reader.get("city-3")
        system.wait_for(reader, op, CommitPhase.PHASE_TWO, max_time_s=30)
        assert reader.value_of(op) == b"value-3"
        assert reader.operation(op).details["found"] is True

    def test_get_missing_key_is_verified_not_found(self):
        system = build_kv_system()
        writer, reader = system.clients
        put_keys(system, writer, [(f"city-{i}", b"v") for i in range(5)])
        op = reader.get("never-written")
        system.wait_for(reader, op, CommitPhase.PHASE_TWO, max_time_s=30)
        record = reader.operation(op)
        assert record.phase is CommitPhase.PHASE_TWO
        assert record.details["found"] is False
        assert reader.value_of(op) is None

    def test_later_put_overwrites_value(self):
        system = build_kv_system()
        writer, reader = system.clients
        put_keys(system, writer, [("sensor", b"old")] + [(f"pad-{i}", b"x") for i in range(4)])
        put_keys(system, writer, [("sensor", b"new")] + [(f"pad2-{i}", b"x") for i in range(4)])
        op = reader.get("sensor")
        system.wait_for(reader, op, CommitPhase.PHASE_TWO, max_time_s=30)
        assert reader.value_of(op) == b"new"

    def test_get_before_certification_is_phase_one_then_upgrades(self):
        system = WedgeChainSystem.build(
            config=SystemConfig.paper_default().with_overrides(
                logging=LoggingConfig(block_size=3),
                lsmerkle=LSMerkleConfig(level_thresholds=(4, 4, 8, 16)),
            ),
            num_clients=2,
            seed=12,
        )
        writer, reader = system.clients
        op = writer.put_batch([("a", b"1"), ("b", b"2"), ("c", b"3")])
        system.wait_for(writer, op, CommitPhase.PHASE_ONE, max_time_s=10)
        get_op = reader.get("b")
        system.wait_for(reader, get_op, CommitPhase.PHASE_ONE, max_time_s=10)
        record = reader.operation(get_op)
        assert record.details["found"] is True
        assert reader.value_of(get_op) == b"2"
        system.wait_for(reader, get_op, CommitPhase.PHASE_TWO, max_time_s=60)
        assert record.phase is CommitPhase.PHASE_TWO


class TestMerges:
    def test_level_zero_merge_happens_and_data_survives(self):
        system = build_kv_system(seed=41)
        writer, reader = system.clients
        # 6 blocks with L0 threshold 2 -> several merges, possibly cascading.
        for block in range(6):
            items = [(format_key(block * 5 + i), f"v{block}-{i}".encode()) for i in range(5)]
            put_keys(system, writer, items)
        system.run()
        edge = system.edge()
        assert edge.stats["merges_completed"] >= 1
        assert system.cloud.stats["merges"] == edge.stats["merges_completed"]
        assert edge.signed_root is not None
        # Every key remains readable with a verifiable proof.
        for probe in (0, 7, 14, 29):
            op = reader.get(format_key(probe))
            system.wait_for(reader, op, CommitPhase.PHASE_TWO, max_time_s=30)
            assert reader.operation(op).details["found"] is True

    def test_merge_deduplicates_versions(self):
        system = build_kv_system(seed=43)
        writer, _ = system.clients
        for round_index in range(4):
            items = [(f"hot-{i}", f"round-{round_index}".encode()) for i in range(5)]
            put_keys(system, writer, items)
        system.run()
        edge = system.edge()
        merged_records = sum(
            level.total_records for level in edge.index.tree.levels[1:]
        )
        # Only 5 distinct keys exist below level 0 after dedup.
        assert merged_records <= 5 * 2  # at most one stale generation in flight

    def test_signed_root_version_increases_with_merges(self):
        system = build_kv_system(seed=44)
        writer, _ = system.clients
        versions = []
        for block in range(6):
            put_keys(
                system, writer, [(format_key(block * 5 + i), b"x") for i in range(5)]
            )
            system.run()
            if system.edge().signed_root is not None:
                versions.append(system.edge().signed_root.statement.version)
        assert versions == sorted(versions)
        assert len(set(versions)) >= 2


class TestFreshness:
    def test_reads_accepted_within_freshness_window(self):
        system = build_kv_system(freshness=60.0, seed=51)
        writer, reader = system.clients
        for block in range(3):
            put_keys(system, writer, [(format_key(block * 5 + i), b"x") for i in range(5)])
        system.run()
        op = reader.get(format_key(2))
        system.wait_for(reader, op, CommitPhase.PHASE_TWO, max_time_s=30)
        assert reader.operation(op).phase is CommitPhase.PHASE_TWO

    def test_stale_root_rejected_when_window_expires(self):
        system = build_kv_system(freshness=5.0, seed=52)
        writer, reader = system.clients
        for block in range(3):
            put_keys(system, writer, [(format_key(block * 5 + i), b"x") for i in range(5)])
        system.run()
        # Let a long time pass with no new merges: the root becomes stale.
        system.run_for(30.0)
        op = reader.get(format_key(2))
        system.run_for(5.0)
        record = reader.operation(op)
        assert record.phase is CommitPhase.FAILED
        assert "freshness" in (record.failure_reason or "") or "old" in (
            record.failure_reason or ""
        )

    def test_root_refresh_restores_freshness(self):
        system = build_kv_system(freshness=5.0, seed=53)
        writer, reader = system.clients
        for block in range(3):
            put_keys(system, writer, [(format_key(block * 5 + i), b"x") for i in range(5)])
        system.run()
        system.run_for(30.0)
        # The edge asks the cloud to re-sign the (unchanged) roots.
        edge = system.edge()
        edge.request_root_refresh(edge._default_partition)
        system.run_for(2.0)
        op = reader.get(format_key(2))
        system.wait_for(reader, op, CommitPhase.PHASE_TWO, max_time_s=30)
        assert reader.operation(op).phase is CommitPhase.PHASE_TWO
