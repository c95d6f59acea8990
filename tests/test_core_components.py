"""Unit tests for the core components: commit tracking, lazy certification,
disputes/punishment, and gossip."""

from __future__ import annotations

import pytest

from repro.common import ProtocolError
from repro.common.identifiers import OperationId, OperationKind, client_id, cloud_id, edge_id
from repro.core.certification import LazyCertifier
from repro.core.commit import CommitTracker
from repro.core.dispute import PunishmentLedger, judge_dispute
from repro.core.gossip import GossipView, build_gossip, build_gossip_batch, verify_gossip
from repro.log.proofs import CommitPhase, issue_block_proof, issue_phase_one_receipt
from repro.messages.log_messages import DisputeRequest, ReadResponseStatement

ALICE = client_id("alice")
EDGE = edge_id("edge-0")
CLOUD = cloud_id()


def op(sequence: int) -> OperationId:
    return OperationId(client=ALICE, sequence=sequence)


class TestCommitTracker:
    def test_register_and_phase_progression(self):
        tracker = CommitTracker()
        tracker.register(op(0), OperationKind.PUT, issued_at=1.0)
        record = tracker.mark_phase_one(op(0), at=1.5, block_id=7)
        assert record.phase is CommitPhase.PHASE_ONE
        assert record.phase_one_latency == pytest.approx(0.5)
        record = tracker.mark_phase_two(op(0), at=2.0)
        assert record.phase is CommitPhase.PHASE_TWO
        assert record.phase_two_latency == pytest.approx(1.0)

    def test_duplicate_registration_rejected(self):
        tracker = CommitTracker()
        tracker.register(op(0), OperationKind.ADD, 0.0)
        with pytest.raises(ProtocolError):
            tracker.register(op(0), OperationKind.ADD, 0.0)

    def test_unknown_operation_rejected(self):
        tracker = CommitTracker()
        with pytest.raises(ProtocolError):
            tracker.get(op(9))

    def test_phase_two_implies_phase_one(self):
        tracker = CommitTracker()
        tracker.register(op(0), OperationKind.READ, 0.0)
        record = tracker.mark_phase_two(op(0), at=3.0)
        assert record.phase_one_at == 3.0
        assert record.phase is CommitPhase.PHASE_TWO

    def test_failed_operations_stay_failed(self):
        tracker = CommitTracker()
        tracker.register(op(0), OperationKind.PUT, 0.0)
        tracker.mark_failed(op(0), at=1.0, reason="bad proof")
        record = tracker.mark_phase_one(op(0), at=2.0)
        assert record.phase is CommitPhase.FAILED
        assert record.failure_reason == "bad proof"

    def test_block_watching_and_resolution(self):
        tracker = CommitTracker()
        tracker.register(op(0), OperationKind.GET, 0.0)
        tracker.watch_block(op(0), 3)
        tracker.watch_block(op(0), 4)
        assert not tracker.resolve_block(op(0), 3)
        assert tracker.resolve_block(op(0), 4)

    def test_operations_waiting_on_block_excludes_committed(self):
        tracker = CommitTracker()
        tracker.register(op(0), OperationKind.PUT, 0.0)
        tracker.register(op(1), OperationKind.PUT, 0.0)
        tracker.mark_phase_one(op(0), 1.0, block_id=5)
        tracker.mark_phase_one(op(1), 1.0, block_id=5)
        tracker.mark_phase_two(op(1), 2.0)
        waiting = tracker.operations_waiting_on_block(5)
        assert [record.operation_id for record in waiting] == [op(0)]

    def test_phase_change_hook_invoked(self):
        tracker = CommitTracker()
        seen = []
        tracker.on_phase_change = lambda record, phase: seen.append(phase)
        tracker.register(op(0), OperationKind.PUT, 0.0)
        tracker.mark_phase_one(op(0), 1.0)
        tracker.mark_phase_two(op(0), 2.0)
        assert seen == [CommitPhase.PHASE_ONE, CommitPhase.PHASE_TWO]

    def test_count_in_phase(self):
        tracker = CommitTracker()
        tracker.register(op(0), OperationKind.PUT, 0.0)
        tracker.register(op(1), OperationKind.PUT, 0.0)
        tracker.mark_phase_one(op(1), 1.0)
        assert tracker.count_in_phase(CommitPhase.PENDING) == 1
        assert tracker.count_in_phase(CommitPhase.PHASE_ONE) == 1
        assert len(tracker.pending_operations()) == 1
        assert len(tracker.completed_operations()) == 1


class TestLazyCertifier:
    def _proof(self, registry, block, digest=None):
        return issue_block_proof(
            registry, CLOUD, EDGE, block.block_id, digest or block.digest(), 1.0
        )

    def test_track_subscribe_complete_flow(self, registry, sample_block):
        certifier = LazyCertifier()
        certifier.track(sample_block.block_id, sample_block.digest())
        assert certifier.subscribe(sample_block.block_id, ALICE, op(0)) is None
        subscribers = certifier.complete(self._proof(registry, sample_block))
        assert subscribers == [(ALICE, op(0))]
        assert certifier.certified_count == 1
        # Subscribing after certification returns the proof immediately.
        assert certifier.subscribe(sample_block.block_id, ALICE, op(1)) is not None

    def test_duplicate_tracking_rejected(self, sample_block):
        certifier = LazyCertifier()
        certifier.track(0, sample_block.digest())
        with pytest.raises(ProtocolError):
            certifier.track(0, sample_block.digest())

    def test_subscribe_unknown_block_rejected(self):
        certifier = LazyCertifier()
        with pytest.raises(ProtocolError):
            certifier.subscribe(9, ALICE, op(0))

    def test_complete_with_wrong_digest_rejected(self, registry, sample_block):
        certifier = LazyCertifier()
        certifier.track(sample_block.block_id, sample_block.digest())
        bad_proof = self._proof(registry, sample_block, digest="0" * 64)
        with pytest.raises(ProtocolError):
            certifier.complete(bad_proof)

class TestDisputes:
    def test_missing_proof_dispute_punishes_equivocating_edge(self, registry, sample_block):
        receipt = issue_phase_one_receipt(registry, EDGE, sample_block, 0.0)
        dispute = DisputeRequest(client=ALICE, kind="missing-proof", receipt=receipt)
        judgement = judge_dispute(dispute, certified_digest="f" * 64, registry=registry,
                                  certified_log_size=1)
        assert judgement.edge_punished

    def test_missing_proof_dispute_with_matching_digest_is_rejected(self, registry, sample_block):
        receipt = issue_phase_one_receipt(registry, EDGE, sample_block, 0.0)
        dispute = DisputeRequest(client=ALICE, kind="missing-proof", receipt=receipt)
        judgement = judge_dispute(
            dispute, certified_digest=sample_block.digest(), registry=registry,
            certified_log_size=1,
        )
        assert not judgement.edge_punished

    def test_missing_proof_dispute_when_never_certified(self, registry, sample_block):
        receipt = issue_phase_one_receipt(registry, EDGE, sample_block, 0.0)
        dispute = DisputeRequest(client=ALICE, kind="missing-proof", receipt=receipt)
        judgement = judge_dispute(dispute, None, registry, certified_log_size=0)
        assert judgement.edge_punished

    def test_dispute_without_evidence_rejected(self, registry):
        dispute = DisputeRequest(client=ALICE, kind="missing-proof")
        assert not judge_dispute(dispute, None, registry, 0).edge_punished

    def test_read_mismatch_dispute(self, registry, sample_block):
        statement = ReadResponseStatement(
            edge=EDGE, operation_id=op(0), block_id=0, found=True,
            block_digest="a" * 64, issued_at=1.0,
        )
        signature = registry.sign(EDGE, statement)
        dispute = DisputeRequest(
            client=ALICE, kind="read-mismatch",
            read_statement=statement, read_signature=signature,
        )
        judgement = judge_dispute(dispute, certified_digest=sample_block.digest(),
                                  registry=registry, certified_log_size=1)
        assert judgement.edge_punished

    def test_omission_dispute_with_gossip_evidence(self, registry):
        statement = ReadResponseStatement(
            edge=EDGE, operation_id=op(0), block_id=0, found=False,
            block_digest=None, issued_at=1.0,
        )
        signature = registry.sign(EDGE, statement)
        dispute = DisputeRequest(
            client=ALICE, kind="omission",
            read_statement=statement, read_signature=signature,
        )
        punished = judge_dispute(dispute, certified_digest="b" * 64,
                                 registry=registry, certified_log_size=3)
        assert punished.edge_punished
        truthful = judge_dispute(dispute, certified_digest=None,
                                 registry=registry, certified_log_size=0)
        assert not truthful.edge_punished

    def test_unknown_dispute_kind(self, registry):
        dispute = DisputeRequest(client=ALICE, kind="weird")
        assert not judge_dispute(dispute, None, registry, 0).edge_punished

    def test_punishment_ledger(self):
        ledger = PunishmentLedger()
        assert not ledger.is_punished(EDGE)
        ledger.punish(EDGE, "lied about block 3", recorded_at=1.0, block_id=3)
        ledger.punish(EDGE, "lied again", recorded_at=2.0, block_id=4)
        assert ledger.is_punished(EDGE)
        assert len(ledger) == 2
        assert len(ledger.records_for(EDGE)) == 2
        assert not ledger.is_punished(edge_id("edge-1"))


class TestGossip:
    def test_build_and_verify(self, registry):
        message = build_gossip(registry, CLOUD, EDGE, certified_log_size=5, timestamp=2.0)
        assert verify_gossip(registry, message, cloud=CLOUD)
        assert not verify_gossip(registry, message, cloud=edge_id("edge-0"))

    def test_view_update_and_monotonicity(self, registry):
        view = GossipView(edge=EDGE)
        first = build_gossip(registry, CLOUD, EDGE, 3, timestamp=1.0)
        second = build_gossip(registry, CLOUD, EDGE, 5, timestamp=2.0)
        stale = build_gossip(registry, CLOUD, EDGE, 1, timestamp=0.5)
        assert view.update(first)
        assert view.update(second)
        assert not view.update(stale)
        assert view.certified_log_size == 5
        assert view.block_should_exist(4)
        assert not view.block_should_exist(5)

    def test_view_ignores_other_edges(self, registry):
        view = GossipView(edge=EDGE)
        other = build_gossip(registry, CLOUD, edge_id("edge-9"), 10, timestamp=1.0)
        assert not view.update(other)
        assert view.certified_log_size == 0

    def test_wrong_edge_message_leaves_view_untouched_even_when_newer(self, registry):
        """Pin: a strictly-newer message for a *different* edge is ignored
        entirely — returns ``False`` and advances neither the size nor
        ``as_of`` (the view's clock tracks its own edge only)."""

        view = GossipView(edge=EDGE)
        view.update(build_gossip(registry, CLOUD, EDGE, 3, timestamp=1.0))
        newer_other = build_gossip(registry, CLOUD, edge_id("edge-9"), 99, timestamp=50.0)
        assert not view.update(newer_other)
        assert view.certified_log_size == 3
        assert view.as_of == 1.0
        # The untouched as_of means later gossip for this edge still applies.
        assert view.update(build_gossip(registry, CLOUD, EDGE, 4, timestamp=2.0))

    def test_equal_timestamp_behavior(self, registry):
        """Pin: a message at exactly ``as_of`` is applied, not rejected —
        only strictly-older timestamps are dropped.  Sizes are monotone, so
        an equal-timestamp message can confirm (no advance, ``False``) or
        advance (``True``) the view, never shrink it."""

        view = GossipView(edge=EDGE)
        assert view.update(build_gossip(registry, CLOUD, EDGE, 3, timestamp=1.0))
        # Equal timestamp, same size: accepted but nothing advances.
        assert not view.update(build_gossip(registry, CLOUD, EDGE, 3, timestamp=1.0))
        assert view.certified_log_size == 3 and view.as_of == 1.0
        # Equal timestamp, larger size: advances.
        assert view.update(build_gossip(registry, CLOUD, EDGE, 5, timestamp=1.0))
        assert view.certified_log_size == 5
        # Equal timestamp, smaller size: never shrinks.
        assert not view.update(build_gossip(registry, CLOUD, EDGE, 2, timestamp=1.0))
        assert view.certified_log_size == 5 and view.as_of == 1.0


class TestGossipBatch:
    def test_build_and_verify_batch(self, registry):
        sizes = {EDGE: 5, edge_id("edge-9"): 7}
        message = build_gossip_batch(registry, CLOUD, sizes, timestamp=2.0)
        assert verify_gossip(registry, message, cloud=CLOUD)
        assert not verify_gossip(registry, message, cloud=EDGE)
        assert message.statement.size_for(EDGE) == 5
        assert message.statement.size_for(edge_id("edge-9")) == 7
        assert message.statement.size_for(edge_id("edge-nope")) is None
        # Entries are ordered by edge id, so the signed bytes do not depend
        # on the mapping's iteration order.
        reversed_input = build_gossip_batch(
            registry, CLOUD, dict(reversed(list(sizes.items()))), timestamp=2.0
        )
        assert reversed_input.statement == message.statement

    def test_view_consumes_batched_form(self, registry):
        view = GossipView(edge=EDGE)
        message = build_gossip_batch(
            registry, CLOUD, {EDGE: 4, edge_id("edge-9"): 9}, timestamp=1.0
        )
        assert view.update(message)
        assert view.certified_log_size == 4
        assert view.as_of == 1.0
        assert view.block_should_exist(3)
        assert not view.block_should_exist(4)

    def test_batch_without_own_edge_ignored(self, registry):
        view = GossipView(edge=EDGE)
        view.update(build_gossip(registry, CLOUD, EDGE, 2, timestamp=1.0))
        absent = build_gossip_batch(
            registry, CLOUD, {edge_id("edge-9"): 50}, timestamp=9.0
        )
        assert not view.update(absent)
        assert view.certified_log_size == 2
        assert view.as_of == 1.0

    def test_batch_monotonicity_matches_single_form(self, registry):
        view = GossipView(edge=EDGE)
        assert view.update(build_gossip_batch(registry, CLOUD, {EDGE: 3}, timestamp=2.0))
        stale = build_gossip_batch(registry, CLOUD, {EDGE: 10}, timestamp=1.0)
        assert not view.update(stale)
        assert view.certified_log_size == 3
        equal = build_gossip_batch(registry, CLOUD, {EDGE: 6}, timestamp=2.0)
        assert view.update(equal)
        assert view.certified_log_size == 6

    def test_wire_size_amortizes_signature(self, registry):
        sizes = {edge_id(f"edge-{i}"): i for i in range(8)}
        batch = build_gossip_batch(registry, CLOUD, sizes, timestamp=1.0)
        singles = [
            build_gossip(registry, CLOUD, edge, size, timestamp=1.0)
            for edge, size in sizes.items()
        ]
        assert batch.wire_size < sum(message.wire_size for message in singles)
