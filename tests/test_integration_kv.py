"""Integration tests: the LSMerkle key-value path end to end.

Covers put/get flows, verified proofs for present and missing keys, version
overwrites, cloud-coordinated merges (including cascades), and read
freshness.
"""

from __future__ import annotations

import pytest

from repro.common import (
    LoggingConfig,
    LSMerkleConfig,
    SecurityConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.common.errors import SerializationError
from repro.common.identifiers import OperationId, OperationKind
from repro.core.system import WedgeChainSystem, edge_factory_for
from repro.faults import assert_no_honest_disputes
from repro.log.entry import make_entry
from repro.log.proofs import CommitPhase
from repro.lsmerkle.codec import encode_put
from repro.messages.log_messages import AppendBatchRequest
from repro.nodes.malicious import StaleServingEdgeNode
from repro.sharding import ShardedWedgeSystem
from repro.sim.environment import local_environment
from repro.workloads.generator import format_key


def build_kv_system(num_clients=2, seed=31, freshness=None, block_size=5, edge_class=None):
    config = SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=block_size, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
        security=SecurityConfig(freshness_window_s=freshness),
    )
    return WedgeChainSystem.build(
        config=config,
        num_clients=num_clients,
        env=local_environment(seed=seed),
        edge_factory=edge_factory_for(edge_class) if edge_class is not None else None,
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
        # The adversary the window exists to catch: an edge that keeps
        # serving a snapshot whose signed root is never refreshed.
        system = build_kv_system(freshness=5.0, seed=52, edge_class=StaleServingEdgeNode)
        writer, reader = system.clients
        for block in range(3):
            put_keys(system, writer, [(format_key(block * 5 + i), b"x") for i in range(5)])
        system.run()
        system.edge().freeze()
        # Let a long time pass: the frozen snapshot's root becomes stale.
        system.run_for(30.0)
        op = reader.get(format_key(2))
        system.run_for(5.0)
        record = reader.operation(op)
        assert record.phase is CommitPhase.FAILED
        assert "freshness" in (record.failure_reason or "") or "old" in (
            record.failure_reason or ""
        )

    def test_a_quiet_honest_edge_stays_fresh(self):
        # No put after the first blocks, so no merge re-signs the root: the
        # edge's own refresh timer keeps every get inside the window.
        system = build_kv_system(freshness=5.0, seed=54)
        writer, reader = system.clients
        for block in range(3):
            put_keys(system, writer, [(format_key(block * 5 + i), b"x") for i in range(5)])
        system.run()
        merges = system.edge().stats["merges_completed"]
        for _ in range(12):
            system.run_for(10.0)
            op = reader.get(format_key(2))
            system.wait_for(reader, op, CommitPhase.PHASE_TWO, max_time_s=5)
            assert reader.operation(op).phase is CommitPhase.PHASE_TWO
        edge = system.edge()
        assert edge.stats["merges_completed"] == merges
        assert edge.stats["root_refreshes"] >= 120 / 2.5 - 1
        assert not system.cloud.ledger.is_punished(edge.node_id)
        assert not reader.malicious_events

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


#: A put whose key length runs past its end: no honest client sends one.
MALFORMED_PUT = b"kvput\x00" + (50).to_bytes(4, "big") + b"short"


def send_raw_batch(system, client, payloads):
    """What a buggy client would send: *payloads* signed by *client* as one
    batch, past the admission check ``Client._append`` makes."""

    entries = tuple(
        make_entry(system.env.registry, client.node_id, 10_000 + i, payload, 0.0)
        for i, payload in enumerate(payloads)
    )
    request = AppendBatchRequest(
        requester=client.node_id,
        operation_id=OperationId(client=client.node_id, sequence=10_000),
        kind=OperationKind.PUT,
        entries=entries,
    )
    system.env.send(client.node_id, client.edge, request)


class TestMalformedPut:
    def test_an_honest_client_refuses_to_send_one(self):
        system = WedgeChainSystem.build(config=SystemConfig.paper_default())
        client = system.client(0)
        with pytest.raises(SerializationError):
            client.add_batch([b"log entry", MALFORMED_PUT])
        assert client.stats["writes_issued"] == 0
        assert len(client.tracker) == 0

    def test_a_malformed_put_cannot_wedge_an_honest_edge(self):
        # Paper defaults: 100-entry blocks, so the honest put and the
        # malformed batch would share a block.  Admitted, that block's
        # level-0 page could not be derived and the edge stopped between
        # logging the block and answering anyone.
        system = WedgeChainSystem.build(config=SystemConfig.paper_default(), num_clients=2)
        honest = system.clients[1].put("k-honest", b"v")
        send_raw_batch(system, system.clients[0], [MALFORMED_PUT] * 100)
        system.run()
        assert system.clients[1].phase_of(honest) is CommitPhase.PHASE_TWO
        edge = system.edge()
        assert edge.stats["malformed_puts_refused"] == 100
        assert edge.stats["entries_logged"] == 1
        assert_no_honest_disputes(system)
        assert not system.cloud.ledger.is_punished(edge.node_id)
        get = system.clients[1].get("k-honest")
        system.wait_for(system.clients[1], get, CommitPhase.PHASE_TWO, max_time_s=30)
        assert system.clients[1].value_of(get) == b"v"

    def test_a_sharded_edge_routes_past_a_malformed_put(self):
        system = ShardedWedgeSystem.build(
            config=SystemConfig.paper_default().with_overrides(
                sharding=ShardingConfig(num_shards=4)
            ),
            num_clients=2,
            env=local_environment(seed=57),
        )
        buggy, honest = system.clients
        # Routed by its first well-formed put; the malformed one is refused.
        send_raw_batch(system, buggy, [MALFORMED_PUT, encode_put("k-buggy", b"b")])
        op = honest.put("k-honest", b"v")
        system.run()
        edge = system.edge()
        assert edge.stats["malformed_puts_refused"] == 1
        assert edge.stats["entries_logged"] == 2
        assert honest.phase_of(op) is CommitPhase.PHASE_TWO
        assert honest.stats["disputes_sent"] == 0
        assert not system.cloud.ledger.is_punished(edge.node_id)
