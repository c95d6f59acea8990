"""Unit-level tests of the client node's verification and evidence handling."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common import LoggingConfig, LSMerkleConfig, SecurityConfig, SystemConfig
from repro.core.system import WedgeChainSystem, edge_factory_for
from repro.faults.invariants import (
    assert_all_settled,
    assert_no_false_convictions,
    assert_no_honest_disputes,
)
from repro.log.proofs import CommitPhase, issue_block_proof, issue_phase_one_receipt
from repro.messages.kv_messages import GetResponse
from repro.messages.log_messages import (
    AppendBatchResponse,
    BlockProofMessage,
    ReadResponse,
)
from repro.nodes.client import Client
from repro.nodes.edge import EdgeNode
from repro.sim.environment import local_environment


def small_config():
    return SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=3, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
        security=SecurityConfig(dispute_timeout_s=1.0),
    )


@pytest.fixture
def system():
    return WedgeChainSystem.build(
        config=small_config(), num_clients=2, env=local_environment(seed=111)
    )


class TestAppendResponseVerification:
    def test_receipt_signed_by_wrong_party_is_rejected(self, system):
        client = system.client(0)
        edge = system.edge()
        op = client.put_batch([("a", b"1"), ("b", b"2"), ("c", b"3")])
        system.run_for(1.0)
        record = client.operation(op)
        assert record.phase is CommitPhase.PHASE_TWO

        # Forge a response for a new operation with a receipt signed by the
        # *cloud* instead of the client's edge node: the client must refuse it.
        from repro.log.block import build_block
        from repro.log.entry import make_entry
        from repro.lsmerkle.codec import encode_put

        entries = tuple(
            make_entry(system.env.registry, client.node_id, 100 + i, encode_put("x", b"y"), 0.0)
            for i in range(3)
        )
        fake_block = build_block(edge.node_id, 77, entries, 0.0)
        forged_receipt = issue_phase_one_receipt(
            system.env.registry, system.cloud.node_id, fake_block, 0.0
        )
        op2 = client.put_batch([("x", b"y"), ("x2", b"y"), ("x3", b"y")])
        forged = AppendBatchResponse(
            edge=edge.node_id,
            operation_id=op2,
            block_id=77,
            receipt=forged_receipt,
            block=fake_block,
        )
        system.env.send(edge.node_id, client.node_id, forged)
        system.run_for(0.2)
        assert client.operation(op2).phase is CommitPhase.FAILED
        assert any(
            event["kind"] == "invalid-receipt" for event in client.malicious_events
        )

    def test_block_missing_client_entries_is_rejected(self, system):
        client = system.client(0)
        edge = system.edge()
        from repro.log.block import build_block
        from repro.log.entry import make_entry
        from repro.lsmerkle.codec import encode_put

        op = client.put_batch([("a", b"1"), ("b", b"2"), ("c", b"3")])
        # Intercept before the real edge answers: build a block that does NOT
        # contain the client's entries but is correctly signed by the edge.
        other_entries = tuple(
            make_entry(
                system.env.registry, system.client(1).node_id, i, encode_put("z", b"w"), 0.0
            )
            for i in range(3)
        )
        wrong_block = build_block(edge.node_id, 50, other_entries, 0.0)
        receipt = issue_phase_one_receipt(system.env.registry, edge.node_id, wrong_block, 0.0)
        response = AppendBatchResponse(
            edge=edge.node_id,
            operation_id=op,
            block_id=50,
            receipt=receipt,
            block=wrong_block,
        )
        system.env.send(edge.node_id, client.node_id, response)
        system.run_until_condition = None  # unused; silence linters
        system.env.run_until(system.env.now() + 0.001)
        record = client.operation(op)
        assert record.phase is CommitPhase.FAILED
        assert any(event["kind"] == "missing-entries" for event in client.malicious_events)

    def test_unknown_operation_in_response_is_ignored(self, system):
        client = system.client(0)
        from repro.common.identifiers import OperationId

        ghost_op = OperationId(client=client.node_id, sequence=999)
        op = client.put_batch([("a", b"1"), ("b", b"2"), ("c", b"3")])
        system.run_for(1.0)
        record = client.operation(op)
        receipt = record.receipt
        response = AppendBatchResponse(
            edge=system.edge().node_id,
            operation_id=ghost_op,
            block_id=record.block_id,
            receipt=receipt,
            block=None,
        )
        system.env.send(system.edge().node_id, client.node_id, response)
        system.run_for(0.2)
        assert ghost_op not in client.tracker


class TestBlockProofHandling:
    def test_foreign_or_invalid_proofs_are_ignored(self):
        # Use the wide-area topology so certification takes tens of
        # milliseconds and the operation is still Phase I when we inject.
        system = WedgeChainSystem.build(config=small_config(), num_clients=1, seed=117)
        client = system.client(0)
        op = client.put_batch([("a", b"1"), ("b", b"2"), ("c", b"3")])
        system.wait_for(client, op, CommitPhase.PHASE_ONE, max_time_s=10)
        assert client.operation(op).phase is CommitPhase.PHASE_ONE
        from repro.log.proofs import issue_block_proof

        bogus = issue_block_proof(
            system.env.registry,
            system.cloud.node_id,
            system.edge().node_id,
            client.operation(op).block_id or 0,
            "e" * 64,
            1.0,
        )
        # Digest mismatch with the receipt: treated as malicious evidence, the
        # operation must not be marked Phase II by this proof.  Deliver the
        # handler call directly so the genuine proof (still in flight) cannot
        # race with the injected one.
        client.on_message(system.cloud.node_id, BlockProofMessage(proof=bogus))
        assert client.operation(op).phase is not CommitPhase.PHASE_TWO
        assert any(
            event["kind"] == "certified-digest-mismatch"
            for event in client.malicious_events
        )
        assert client.stats["disputes_sent"] >= 1

    def test_early_proof_completes_operation_on_late_response(self, system):
        """If the proof overtakes the append response the client still reaches
        Phase II (ordering robustness)."""

        client = system.client(0)
        op = client.put_batch([("a", b"1"), ("b", b"2"), ("c", b"3")])
        system.run_for(5.0)
        assert client.operation(op).phase is CommitPhase.PHASE_TWO
        assert client._early_proofs  # the proof was cached along the way


def hold_back(client):
    """Park every delivery to *client*; returns the parked (sender, message)s."""

    held = []
    client.on_message = lambda sender, message: held.append((sender, message))
    return held


def deliver(client, held, *message_types):
    """Hand *client* one parked message of each type, in the order given."""

    client.__dict__.pop("on_message", None)
    for message_type in message_types:
        sender, message = next(
            pair for pair in held if isinstance(pair[1], message_type)
        )
        client.on_message(sender, message)


class TestProofOvertakesPhaseOneRead:
    """No link is ordered: a block's certificate may reach the client before
    the Phase I ``GetResponse`` / ``ReadResponse`` that makes it wait for it."""

    READS = {
        "get": (lambda client, block_id: client.get("a"), GetResponse),
        "log-read": (lambda client, block_id: client.read(block_id), ReadResponse),
    }

    def served_at_phase_one(self, kind):
        # Wide-area topology: the block stays uncertified for tens of ms.
        system = WedgeChainSystem.build(config=small_config(), num_clients=2, seed=117)
        writer, reader = system.client(0), system.client(1)
        put = writer.put_batch([("a", b"1"), ("b", b"2"), ("c", b"3")])
        system.wait_for(writer, put, CommitPhase.PHASE_ONE, max_time_s=10)
        block_id = writer.operation(put).block_id
        assert system.edge().log.proof_for(block_id) is None
        held = hold_back(reader)
        issue, response_type = self.READS[kind]
        op = issue(reader, block_id)
        system.run_for(0.5)
        return system, reader, op, block_id, held, response_type

    @pytest.mark.parametrize("kind", sorted(READS))
    def test_genuine_early_proof_commits_without_dispute(self, kind):
        system, reader, op, _block_id, held, response_type = self.served_at_phase_one(kind)
        deliver(reader, held, BlockProofMessage, response_type)
        assert reader.phase_of(op) is CommitPhase.PHASE_TWO
        system.run()  # any armed dispute timer fires in the drain
        assert reader.stats["disputes_sent"] == 0
        assert reader.malicious_events == []
        assert system.cloud.stats["disputes"] == 0

    @pytest.mark.parametrize("kind", sorted(READS))
    def test_mismatching_early_proof_is_disputed_not_committed(self, kind):
        system, reader, op, block_id, held, response_type = self.served_at_phase_one(kind)
        forged = issue_block_proof(
            system.env.registry,
            system.cloud.node_id,
            system.edge().node_id,
            block_id,
            "e" * 64,
            1.0,
        )
        held.insert(0, (system.edge().node_id, BlockProofMessage(proof=forged)))
        deliver(reader, held, BlockProofMessage, response_type)
        assert reader.phase_of(op) is CommitPhase.PHASE_ONE
        assert [event["kind"] for event in reader.malicious_events] == [
            "read-content-mismatch"
        ]
        assert reader.stats["disputes_sent"] == 1

    def test_early_proofs_are_bounded_and_a_raced_proof_still_commits(self, system):
        client = system.client(0)
        blocks = Client.EARLY_PROOF_WINDOW + 10
        for index in range(blocks):
            client.put_batch([(f"k{index}-{i}", b"v") for i in range(3)])
        system.run()
        assert system.edge().stats["blocks_formed"] == blocks
        assert len(client._early_proofs) == Client.EARLY_PROOF_WINDOW

        held = hold_back(client)
        op = client.put_batch([("a", b"1"), ("b", b"2"), ("c", b"3")])
        system.run_for(0.5)
        deliver(client, held, BlockProofMessage, AppendBatchResponse)
        assert client.phase_of(op) is CommitPhase.PHASE_TWO
        assert len(client._early_proofs) == Client.EARLY_PROOF_WINDOW
        system.run()
        assert client.stats["disputes_sent"] == 0


class TestClientApi:
    def test_value_of_and_phase_of(self, system):
        client = system.client(0)
        op = client.put_batch([("k1", b"v1"), ("k2", b"v2"), ("k3", b"v3")])
        system.wait_for(client, op, CommitPhase.PHASE_TWO, max_time_s=10)
        assert client.phase_of(op) is CommitPhase.PHASE_TWO
        get_op = client.get("k2")
        system.wait_for(client, get_op, CommitPhase.PHASE_TWO, max_time_s=10)
        assert client.value_of(get_op) == b"v2"

    def test_single_put_and_add_helpers(self, system):
        client = system.client(0)
        put_op = client.put("solo-key", b"solo-value")
        add_op = client.add(b"solo-log-entry")
        system.run_for(1.0)
        # A single put/add fills only part of a block; the timeout flush
        # completes it.
        assert client.operation(put_op).phase.is_committed
        assert client.operation(add_op).phase.is_committed

    def test_stats_counters(self, system):
        client = system.client(0)
        client.put_batch([("a", b"1"), ("b", b"2"), ("c", b"3")])
        client.get("a")
        client.read(0)
        system.run_for(1.0)
        assert client.stats["writes_issued"] == 1
        assert client.stats["gets_issued"] == 1
        assert client.stats["reads_issued"] == 1
        assert client.stats["entries_sent"] == 3


def assert_honest_run(system):
    """The three honest-fleet invariants every case below ends with."""

    assert_all_settled(system)
    assert_no_honest_disputes(system)
    assert_no_false_convictions(system.cloud, [edge.node_id for edge in system.edges])


def puts(prefix, count):
    return [(f"{prefix}-{index}", b"v") for index in range(count)]


class TestBatchesSpanningBlocks:
    """Any client's batch may share blocks with another's: it commits once
    every entry is acknowledged, however many blocks hold them."""

    def test_two_clients_sharing_a_block_both_commit(self):
        # Paper defaults (100-entry blocks): one client's 80 entries and the
        # other's 30 fill block 0 and leave 10 for the timeout flush.
        system = WedgeChainSystem.build(
            config=SystemConfig.paper_default(), num_clients=2
        )
        first = system.client(0).put_batch(puts("a", 80))
        second = system.client(1).put_batch(puts("b", 30))
        system.run()
        assert system.edge().stats["blocks_formed"] == 2
        assert system.client(0).phase_of(first) is CommitPhase.PHASE_TWO
        assert system.client(1).phase_of(second) is CommitPhase.PHASE_TWO
        assert [c.malicious_events for c in system.clients] == [[], []]
        assert_honest_run(system)

    def test_a_partly_logged_write_fails_at_its_deadline_without_a_dispute(self):
        class HalfLoggingEdge(EdgeNode):
            """Logs only the even-numbered entries of every request."""

            def _handle_append(self, state, sender, request):
                kept = tuple(e for e in request.entries if e.sequence % 2 == 0)
                super()._handle_append(
                    state, sender, dataclasses.replace(request, entries=kept)
                )

        system = WedgeChainSystem.build(
            config=small_config(),
            num_clients=1,
            env=local_environment(seed=111),
            edge_factory=edge_factory_for(HalfLoggingEdge),
        )
        client = system.client(0)
        op = client.put_batch(puts("k", 4))
        system.run()
        record = client.operation(op)
        assert record.phase is CommitPhase.FAILED
        assert record.failure_reason == "entries missing from block"
        timeout = system.config.security.dispute_timeout_s
        assert record.failed_at >= record.issued_at + timeout
        # The one re-send was answered from the edge's replay protection.
        assert system.edge().stats["replayed_entries"] == 2
        assert [event["kind"] for event in client.malicious_events] == [
            "missing-entries"
        ]
        assert client.stats["disputes_sent"] == 0
        assert_honest_run(system)


class TestReadingFromAnotherEdge:
    """A client homed at edge-0 reads from edge-1: that edge's proofs
    settle the read, and its own gossip bounds an omission claim."""

    def two_edges(self, **security):
        config = SystemConfig.paper_default().with_overrides(
            num_edge_nodes=2, security=SecurityConfig(**security)
        )
        return WedgeChainSystem.build(
            config=config, num_clients=2, enable_gossip=bool(security)
        )

    def test_phase_one_read_and_get_from_another_edge_reach_phase_two(self):
        system = self.two_edges()
        reader, writer = system.clients  # homed at edge-0 and edge-1
        other = system.edge(1)
        put = writer.put_batch(puts("k", 100))
        system.wait_for(writer, put, CommitPhase.PHASE_ONE, max_time_s=10)
        assert other.log.proof_for(0) is None
        read = reader.read(0, edge=other.node_id)
        get = reader.get("k-7", edge=other.node_id)
        system.run()
        for op in (read, get):
            record = reader.operation(op)
            assert record.phase is CommitPhase.PHASE_TWO
            assert record.phase_two_at > record.phase_one_at
        assert reader.value_of(get) == b"v"
        assert reader.stats["disputes_sent"] == 0
        assert_honest_run(system)

    def test_a_block_only_the_home_edge_holds_is_no_omission_elsewhere(self):
        system = self.two_edges(gossip_interval_s=0.2)
        reader = system.client(0)
        for block in range(5):
            reader.put_batch(puts(f"b{block}", 100))
        system.run_for(3.0)
        assert system.edge(0).stats["blocks_formed"] == 5
        assert system.cloud.certified_log_size(system.edge(0).node_id) == 5
        read = reader.read(3, edge=system.edge(1).node_id)
        system.run_for(3.0)
        record = reader.operation(read)
        assert record.phase is CommitPhase.FAILED
        assert record.failure_reason == "block not available"
        assert reader.stats["disputes_sent"] == 0
        assert len(system.cloud.ledger) == 0
        assert_honest_run(system)
