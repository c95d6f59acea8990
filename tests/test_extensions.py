"""Tests for the optional protocol extensions the paper sketches.

* Replay protection (Section IV-E): re-sending an already-appended signed
  entry does not duplicate it in the log; the edge answers idempotently with
  the original block and receipt.
* Client-side session consistency (Section V-D alternative): a client that
  has observed a signed global root of version *v* rejects later responses
  verified against an older root.
"""

from __future__ import annotations

import pytest

from repro.common import LoggingConfig, LSMerkleConfig, SystemConfig
from repro.common.identifiers import OperationId
from repro.core.system import WedgeChainSystem
from repro.log.proofs import CommitPhase
from repro.messages.log_messages import AppendBatchRequest
from repro.sim.environment import local_environment
from repro.workloads.generator import format_key


def small_config(block_size=4):
    return SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=block_size, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )


@pytest.fixture
def system():
    return WedgeChainSystem.build(
        config=small_config(), num_clients=2, env=local_environment(seed=131)
    )


class TestReplayProtection:
    def test_replayed_request_does_not_duplicate_entries(self, system):
        client = system.client(0)
        edge = system.edge()
        op = client.put_batch([(f"k{i}", b"v") for i in range(4)])
        system.wait_for(client, op, CommitPhase.PHASE_TWO, max_time_s=10)
        entries_before = edge.log.total_entries()
        original_record = client.operation(op)

        # A network-level adversary (or a retrying client) replays the exact
        # same signed request under a new operation id.
        replay_op = OperationId(client=client.node_id, sequence=9999)
        client.tracker.register(
            replay_op,
            original_record.kind,
            system.env.now(),
            entry_sequences=original_record.details["entry_sequences"],
        )
        replayed = AppendBatchRequest(
            requester=client.node_id,
            operation_id=replay_op,
            kind=original_record.kind,
            entries=tuple(
                entry
                for entry in edge.log.block(original_record.block_id).entries
                if entry.producer == client.node_id
            ),
        )
        system.env.send(client.node_id, edge.node_id, replayed)
        system.run_for(2.0)

        # No duplicate data was appended ...
        assert edge.log.total_entries() == entries_before
        assert edge.stats.get("replayed_entries", 0) == 4
        # ... and the replayed request is answered idempotently: it reaches
        # the same block and commits.
        replay_record = client.operation(replay_op)
        assert replay_record.block_id == original_record.block_id
        assert replay_record.phase is CommitPhase.PHASE_TWO

    def test_partial_replay_appends_only_fresh_entries(self, system):
        client = system.client(0)
        edge = system.edge()
        op = client.put_batch([(f"k{i}", b"v") for i in range(4)])
        system.wait_for(client, op, CommitPhase.PHASE_TWO, max_time_s=10)
        entries_before = edge.log.total_entries()

        # A new batch: the entries are fresh (new client sequences), so they
        # must be appended even though the keys repeat.
        op2 = client.put_batch([(f"k{i}", b"v2") for i in range(4)])
        system.wait_for(client, op2, CommitPhase.PHASE_TWO, max_time_s=10)
        assert edge.log.total_entries() == entries_before + 4
        assert client.operation(op2).block_id != client.operation(op).block_id


class TestSessionConsistency:
    def test_root_version_is_tracked_across_gets(self, system):
        writer, reader = system.clients
        # Two rounds of writes with a merge in between bump the root version.
        for round_index in range(4):
            op = writer.put_batch(
                [(format_key(round_index * 4 + i), b"x") for i in range(4)]
            )
            system.wait_for(writer, op, CommitPhase.PHASE_TWO, max_time_s=10)
        system.run_for(2.0)
        get_op = reader.get(format_key(1))
        system.wait_for(reader, get_op, CommitPhase.PHASE_TWO, max_time_s=10)
        assert reader._last_root_versions[(reader.edge, None)] >= 1
        assert reader.operation(get_op).details.get("root_version") is not None

    def test_older_root_than_previously_observed_is_rejected(self, system):
        writer, reader = system.clients
        for round_index in range(4):
            op = writer.put_batch(
                [(format_key(round_index * 4 + i), b"x") for i in range(4)]
            )
            system.wait_for(writer, op, CommitPhase.PHASE_TWO, max_time_s=10)
        system.run_for(2.0)
        # Simulate the client having already read from a much newer root
        # (e.g. through another edge replica or an earlier session).
        reader._last_root_versions[(reader.edge, None)] = 10_000
        get_op = reader.get(format_key(1))
        system.run_for(2.0)
        record = reader.operation(get_op)
        assert record.phase is CommitPhase.FAILED
        assert "session consistency" in (record.failure_reason or "")
        assert any(
            event["kind"] == "session-consistency-violation"
            for event in reader.malicious_events
        )

    def test_monotonically_newer_roots_are_accepted(self, system):
        writer, reader = system.clients
        observed_versions = []
        for round_index in range(6):
            op = writer.put_batch(
                [(format_key(round_index * 4 + i), b"x") for i in range(4)]
            )
            system.wait_for(writer, op, CommitPhase.PHASE_TWO, max_time_s=10)
            system.run_for(1.0)
            get_op = reader.get(format_key(round_index * 4))
            system.wait_for(reader, get_op, CommitPhase.PHASE_ONE, max_time_s=10)
            record = reader.operation(get_op)
            assert record.phase is not CommitPhase.FAILED
            version = record.details.get("root_version")
            if version is not None:
                observed_versions.append(version)
        assert observed_versions == sorted(observed_versions)
