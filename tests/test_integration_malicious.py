"""Integration tests: malicious edge nodes are detected and punished.

The paper's central security argument (Sections II-D, IV-B, IV-E) is that a
lying edge node is always caught eventually: the client holds signed evidence
(a Phase I receipt or a signed read/get response), the cloud holds the
certified digests, and disputes reconcile the two.  Each test drives one
adversary and asserts both the client-side detection and the cloud-side
punishment.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common import LoggingConfig, LSMerkleConfig, SecurityConfig, SystemConfig
from repro.core.system import WedgeChainSystem
from repro.log.block import build_block
from repro.log.entry import LogEntry, make_entry
from repro.log.proofs import CommitPhase, issue_block_proof
from repro.lsmerkle.codec import encode_put
from repro.lsmerkle.merge import MergeProposal
from repro.lsmerkle.read_proof import LevelZeroEvidence
from repro.messages.kv_messages import GetResponse, MergeRequest
from repro.messages.log_messages import AppendBatchResponse, DisputeRequest, ReadResponse
from repro.nodes.edge import EdgeNode
from repro.nodes.malicious import (
    BrokenPromiseEdgeNode,
    EquivocatingCertifierEdgeNode,
    NonCertifyingEdgeNode,
    OmittingEdgeNode,
    StaleServingEdgeNode,
    TamperingReadEdgeNode,
)
from repro.sim.environment import local_environment
from repro.workloads.generator import format_key

BLOCK_SIZE = 5


def build_system(edge_class, num_clients=2, seed=61, freshness=None, gossip=True):
    config = SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=BLOCK_SIZE, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
        security=SecurityConfig(
            dispute_timeout_s=1.0,
            gossip_interval_s=0.2,
            freshness_window_s=freshness,
        ),
    )

    def factory(env, cloud, cfg, name, region):
        return edge_class(env=env, cloud=cloud, config=cfg, name=name, region=region)

    return WedgeChainSystem.build(
        config=config,
        num_clients=num_clients,
        env=local_environment(seed=seed),
        edge_factory=factory,
        enable_gossip=gossip,
    )


def write_block(system, client, prefix="k"):
    items = [(f"{prefix}-{i}", b"value") for i in range(BLOCK_SIZE)]
    return client.put_batch(items)


class TestHonestBaselineSanity:
    def test_honest_edge_is_never_punished(self):
        system = build_system(EdgeNode)
        client = system.client(0)
        op = write_block(system, client)
        system.run_for(10.0)
        assert client.operation(op).phase is CommitPhase.PHASE_TWO
        assert system.cloud.stats["punishments"] == 0
        assert not system.cloud.ledger.is_punished(system.edge().node_id)


class TestBrokenPromise:
    def test_detected_and_punished(self):
        system = build_system(BrokenPromiseEdgeNode)
        client = system.client(0)
        op = write_block(system, client)
        system.run_for(15.0)
        record = client.operation(op)
        # The write never legitimately reaches Phase II.
        assert record.phase is not CommitPhase.PHASE_TWO
        assert any(
            event["kind"] in ("certified-digest-mismatch", "proof-timeout")
            for event in client.malicious_events
        )
        assert system.cloud.ledger.is_punished(system.edge().node_id)
        assert any(verdict.edge_punished for verdict in client.verdicts)


class TestNonCertifying:
    def test_dispute_timeout_exposes_silent_edge(self):
        system = build_system(NonCertifyingEdgeNode)
        client = system.client(0)
        op = write_block(system, client)
        system.run_for(15.0)
        assert client.operation(op).phase is CommitPhase.PHASE_ONE
        assert system.cloud.ledger.is_punished(system.edge().node_id)
        punishments = system.cloud.ledger.records_for(system.edge().node_id)
        assert any("never certified" in record.reason for record in punishments)


class TestEquivocatingCertifier:
    def test_cloud_detects_conflicting_digests_directly(self):
        system = build_system(EquivocatingCertifierEdgeNode)
        client = system.client(0)
        write_block(system, client)
        system.run_for(10.0)
        assert system.cloud.stats["certify_conflicts"] >= 1
        assert system.cloud.ledger.is_punished(system.edge().node_id)


class TestOmissionAttack:
    def test_gossip_lets_reader_prove_omission(self):
        system = build_system(OmittingEdgeNode)
        writer, reader = system.clients
        op = write_block(system, writer)
        system.run_for(5.0)  # certification + at least one gossip round
        assert writer.operation(op).phase is CommitPhase.PHASE_TWO
        read_op = reader.read(0)
        system.run_for(10.0)
        assert reader.operation(read_op).phase is CommitPhase.FAILED
        assert any(event["kind"] == "omission" for event in reader.malicious_events)
        assert system.cloud.ledger.is_punished(system.edge().node_id)

    def test_without_gossip_omission_goes_undetected(self):
        """The detection window genuinely depends on gossip (Section IV-E)."""

        system = build_system(OmittingEdgeNode, gossip=False)
        writer, reader = system.clients
        write_block(system, writer)
        system.run_for(5.0)
        read_op = reader.read(0)
        system.run_for(10.0)
        assert reader.operation(read_op).phase is CommitPhase.FAILED
        assert not any(event["kind"] == "omission" for event in reader.malicious_events)
        assert not system.cloud.ledger.is_punished(system.edge().node_id)


class TestTamperingRead:
    def test_reader_detects_content_substitution(self):
        system = build_system(TamperingReadEdgeNode)
        writer, reader = system.clients
        op = write_block(system, writer)
        system.run_for(5.0)
        assert writer.operation(op).phase is CommitPhase.PHASE_TWO
        read_op = reader.read(0)
        system.run_for(15.0)
        record = reader.operation(read_op)
        assert record.phase is not CommitPhase.PHASE_TWO
        assert any(
            event["kind"] in ("read-content-mismatch", "proof-timeout")
            for event in reader.malicious_events
        )
        assert system.cloud.ledger.is_punished(system.edge().node_id)


class TestStaleServing:
    def test_freshness_window_rejects_stale_snapshot(self):
        system = build_system(StaleServingEdgeNode, freshness=5.0, seed=71)
        writer, reader = system.clients
        # Build some merged, certified state.
        for block in range(4):
            op = writer.put_batch(
                [(format_key(block * BLOCK_SIZE + i), b"x") for i in range(BLOCK_SIZE)]
            )
            system.wait_for(writer, op, CommitPhase.PHASE_TWO, max_time_s=30)
        system.run_for(2.0)
        edge = system.edge()
        edge.freeze()
        # Time passes; new writes keep arriving but the frozen snapshot ages.
        system.run_for(30.0)
        op = writer.put_batch([(format_key(100 + i), b"y") for i in range(BLOCK_SIZE)])
        system.wait_for(writer, op, CommitPhase.PHASE_TWO, max_time_s=30)
        read_op = reader.get(format_key(1))
        system.run_for(5.0)
        record = reader.operation(read_op)
        assert record.phase is CommitPhase.FAILED

    def test_without_freshness_window_staleness_is_accepted(self):
        """Matches the paper: plain LSMerkle does not guarantee recency."""

        system = build_system(StaleServingEdgeNode, freshness=None, seed=72)
        writer, reader = system.clients
        for block in range(4):
            op = writer.put_batch(
                [(format_key(block * BLOCK_SIZE + i), b"old") for i in range(BLOCK_SIZE)]
            )
            system.wait_for(writer, op, CommitPhase.PHASE_TWO, max_time_s=30)
        system.run_for(2.0)
        system.edge().freeze()
        op = writer.put_batch([(format_key(0), b"new")] + [
            (format_key(200 + i), b"pad") for i in range(BLOCK_SIZE - 1)
        ])
        system.wait_for(writer, op, CommitPhase.PHASE_TWO, max_time_s=30)
        read_op = reader.get(format_key(0))
        system.run_for(5.0)
        record = reader.operation(read_op)
        # The stale (old) value is served and verifies: staleness is invisible
        # without the freshness extension.
        assert record.phase in (CommitPhase.PHASE_ONE, CommitPhase.PHASE_TWO)
        assert reader.value_of(read_op) == b"old"


class TestPunishedEdgeExclusion:
    def test_punished_edges_are_banned_from_reentry(self):
        system = build_system(NonCertifyingEdgeNode)
        client = system.client(0)
        write_block(system, client)
        system.run_for(15.0)
        ledger = system.cloud.ledger
        edge = system.edge().node_id
        assert ledger.is_punished(edge)
        # Model assumption 2: identities cannot be fabricated, so the ban holds.
        assert ledger.records_for(edge)


# ----------------------------------------------------------------------
# Rejection branches of the trust path: one tampered message per row
# ----------------------------------------------------------------------
def _certified_block(system):
    """The first block the honest edge formed, certified by the cloud."""

    return system.edge().log.try_get(0).block


def _forged_block(block):
    """*block* with its first entry's payload altered (a different digest)."""

    first = block.entries[0]
    altered = LogEntry(
        body=dataclasses.replace(first.body, payload=first.body.payload + b"~"),
        signature=first.signature,
    )
    return build_block(
        block.edge, block.block_id, (altered,) + block.entries[1:], block.created_at
    )


def _restated(message, **changes):
    """*message* with its signed statement altered but the old signature kept."""

    return dataclasses.replace(
        message, statement=dataclasses.replace(message.statement, **changes)
    )


def _signed_by_cloud(system, message):
    """*message* with its statement re-signed by the cloud, not the edge."""

    signature = system.env.registry.sign(system.cloud.node_id, message.statement)
    return dataclasses.replace(message, signature=signature)


def _self_certified_level_zero(system, message):
    """*message* with every level-0 certificate re-issued by the edge itself,
    naming itself as the certifying cloud."""

    edge = system.edge().node_id
    level_zero = tuple(
        LevelZeroEvidence(
            block=item.block,
            proof=issue_block_proof(
                system.env.registry,
                edge,
                edge,
                item.block_id,
                item.block.digest(),
                item.proof.certified_at,
            ),
        )
        for item in message.proof.level_zero
    )
    assert level_zero, "the get must be answered from level 0"
    proof = dataclasses.replace(message.proof, level_zero=level_zero)
    return dataclasses.replace(message, proof=proof)


#: (id, message the edge sends, operation that provokes it, tamper,
#:  suspicion the client records or ``None``, failure reason)
CLIENT_REJECTIONS = [
    (
        "append-block-not-the-one-receipted",
        AppendBatchResponse,
        lambda system, client: write_block(system, client, prefix="t"),
        lambda system, message: dataclasses.replace(
            message, block=_certified_block(system)
        ),
        "receipt-block-mismatch",
        "receipt does not match block",
    ),
    (
        "append-block-withheld",
        AppendBatchResponse,
        lambda system, client: write_block(system, client, prefix="t"),
        lambda system, message: dataclasses.replace(message, block=None),
        "receipt-block-mismatch",
        "receipt does not match block",
    ),
    (
        "read-statement-altered-after-signing",
        ReadResponse,
        lambda system, client: client.read(0),
        lambda system, message: _restated(
            message, issued_at=message.statement.issued_at + 1.0
        ),
        None,
        "bad read signature",
    ),
    (
        "read-signed-by-another-node",
        ReadResponse,
        lambda system, client: client.read(0),
        _signed_by_cloud,
        None,
        "bad read signature",
    ),
    (
        "read-block-differs-from-signed-digest",
        ReadResponse,
        lambda system, client: client.read(0),
        lambda system, message: dataclasses.replace(
            message, block=_forged_block(message.block)
        ),
        "read-digest-mismatch",
        "digest mismatch",
    ),
    (
        "get-statement-altered-after-signing",
        GetResponse,
        lambda system, client: client.get("k-0"),
        lambda system, message: _restated(message, found=not message.statement.found),
        None,
        "bad get signature",
    ),
    (
        "get-signed-by-another-node",
        GetResponse,
        lambda system, client: client.get("k-0"),
        _signed_by_cloud,
        None,
        "bad get signature",
    ),
    (
        "get-level-zero-certified-by-the-edge",
        GetResponse,
        lambda system, client: client.get("k-0"),
        _self_certified_level_zero,
        "get-proof-invalid",
        "block 0 is certified by edge:edge-0, not by cloud:cloud-0",
    ),
    (
        "get-value-disagrees-with-proof",
        GetResponse,
        lambda system, client: client.get("k-0"),
        lambda system, message: dataclasses.replace(message, value=b"forged"),
        "get-value-mismatch",
        "returned value disagrees with proof",
    ),
]


class TestTamperedMessagesAtRealNodes:
    """Each row holds back one honest message, hands a tampered copy to the
    real node that must refuse it, and checks how it refuses."""

    def certified_system(self):
        system = build_system(EdgeNode, gossip=False)
        writer = system.client(0)
        op = write_block(system, writer)
        system.wait_for(writer, op, CommitPhase.PHASE_TWO, max_time_s=30)
        return system

    @pytest.mark.parametrize(
        "message_type, provoke, tamper, suspicion, reason",
        [row[1:] for row in CLIENT_REJECTIONS],
        ids=[row[0] for row in CLIENT_REJECTIONS],
    )
    def test_client_fails_the_operation(
        self, message_type, provoke, tamper, suspicion, reason
    ):
        system = self.certified_system()
        client = system.client(1)
        held = []

        def hold(src, dst, message):
            if isinstance(message, message_type) and dst == client.node_id:
                held.append(message)
                return False
            return True

        system.env.network.add_send_hook("test:hold", hold)
        operation = provoke(system, client)
        system.run_for(0.5)
        system.env.network.remove_send_hook("test:hold")
        (honest,) = held

        client.on_message(system.edge().node_id, tamper(system, honest))

        record = client.operation(operation)
        assert record.phase is CommitPhase.FAILED
        assert record.failure_reason == reason
        kinds = [event["kind"] for event in client.malicious_events]
        assert kinds == ([suspicion] if suspicion else [])

    def test_cloud_convicts_an_invalid_merge_and_the_edge_drops_it(self):
        system = self.certified_system()
        edge, cloud = system.edge(), system.cloud
        proposal = MergeProposal(
            edge=edge.node_id,
            level_index=0,
            source_blocks=(_forged_block(_certified_block(system)),),
        )

        cloud.on_message(edge.node_id, MergeRequest(edge=edge.node_id, proposal=proposal))
        system.run_for(1.0)

        assert cloud.stats["merge_rejections"] == 1
        assert cloud.stats["merges"] == 0
        (conviction,) = cloud.ledger.records_for(edge.node_id)
        assert conviction.reason.startswith("invalid merge proposal")
        assert edge.stats["merges_rejected"] == 1


class MalformedLevelZeroEdgeNode(EdgeNode):
    """Adds to every get proof a Phase I level-0 block holding one put that
    no honest edge admits (*payload*)."""

    payload = b""

    def _level_zero_evidence(self, state):
        entry = make_entry(self.env.registry, self.node_id, 0, self.payload, 0.0)
        forged = build_block(self.node_id, 10_000, [entry], created_at=0.0)
        return [*super()._level_zero_evidence(state), (forged, None)]


class TestMalformedLevelZeroBlock:
    """A verifier refusal, not a crash: the get fails and the client keeps
    the suspicion (it used to raise out of the client's handler, leaving
    the get neither failed nor disputed)."""

    @pytest.mark.parametrize(
        "payload",
        [
            encode_put("", b"")[:6] + (50).to_bytes(4, "big") + b"short",
            encode_put("", b"")[:6] + (1).to_bytes(4, "big") + b"\xff",
        ],
        ids=["truncated", "not-utf8"],
    )
    def test_the_get_fails_with_a_suspicion(self, payload):
        edge_class = type("Forging", (MalformedLevelZeroEdgeNode,), {"payload": payload})
        system = build_system(edge_class, gossip=False)
        writer, reader = system.clients
        system.wait_for(writer, write_block(system, writer), CommitPhase.PHASE_TWO, 10.0)
        op = reader.get("k-1")
        system.run_for(5.0)
        record = reader.operation(op)
        assert record.phase is CommitPhase.FAILED
        assert "malformed put" in record.failure_reason
        assert [event["kind"] for event in reader.malicious_events] == ["get-proof-invalid"]


class TestAccusationsNameOnlyWhatTheEdgeSigned:
    """A dispute accuses the edge and block its signed evidence names: a
    client cannot point an honest receipt or read at another block or
    another edge.  Each dispute below once convicted an honest edge."""

    def committed(self, num_edges=1):
        config = SystemConfig.paper_default().with_overrides(num_edge_nodes=num_edges)
        system = WedgeChainSystem.build(config=config, num_clients=1)
        client = system.client(0)
        op = client.put_batch([(f"k-{i}", b"v") for i in range(100)])
        system.run()
        assert client.operation(op).phase is CommitPhase.PHASE_TWO
        return system, client, client.operation(op)

    def judge(self, system, client, **evidence):
        client.verdicts.clear()
        dispute = DisputeRequest(client=client.node_id, **evidence)
        system.env.send(client.node_id, system.cloud.node_id, dispute)
        system.run()
        (verdict,) = client.verdicts
        assert not verdict.edge_punished, verdict.reason
        assert len(system.cloud.ledger) == 0
        return verdict

    def test_the_request_carries_no_unsigned_accusation(self):
        assert [field.name for field in dataclasses.fields(DisputeRequest)] == [
            "client", "kind", "receipt", "read_statement", "read_signature"
        ]

    def test_an_honest_receipt_is_judged_on_its_own_block(self):
        system, client, record = self.committed()
        verdict = self.judge(system, client, kind="missing-proof", receipt=record.receipt)
        assert (verdict.edge, verdict.block_id) == (system.edge().node_id, 0)

    def test_an_honest_receipt_is_judged_on_its_own_edge(self):
        system, client, record = self.committed(num_edges=2)
        verdict = self.judge(system, client, kind="missing-proof", receipt=record.receipt)
        assert verdict.edge == system.edge(0).node_id
        assert not system.cloud.ledger.is_punished(system.edge(1).node_id)

    def test_an_honest_read_is_judged_on_its_own_block(self):
        system, client, _record = self.committed()
        read = client.operation(client.read(0))
        system.run()
        assert read.phase is CommitPhase.PHASE_TWO
        verdict = self.judge(
            system,
            client,
            kind="read-mismatch",
            read_statement=read.details["read_statement"],
            read_signature=read.details["read_signature"],
        )
        assert verdict.block_id == 0

    def test_a_truthful_denial_is_no_omission(self):
        system, client, _record = self.committed()
        read = client.operation(client.read(5))
        system.run()
        assert read.failure_reason == "block not available"
        verdict = self.judge(
            system,
            client,
            kind="omission",
            read_statement=read.details["read_statement"],
            read_signature=read.details["read_signature"],
        )
        assert verdict.block_id == 5
