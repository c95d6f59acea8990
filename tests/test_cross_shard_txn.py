"""Cross-shard atomic transactions: the client-coordinated 2PC.

Covers the tentpole scenarios of the transaction protocol
(:mod:`repro.sharding.transactions`): an atomic multi-key put spanning
several shards commits on all participants or aborts on all, exercised
against a participant crash before the decision, coordinator abandonment
(edge-side timeout abort), a tampered prepare receipt (provable dispute), a
transaction racing a shard handoff, duplicate decisions (idempotent
absorption), an abort-ignoring participant serving staged state (provable
dispute from the serve), the redirect-cap semantics of the shard-aware
client, and the self-contained transaction dispute judge.
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    ConfigurationError,
    LoggingConfig,
    LSMerkleConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.common.identifiers import OperationId, client_id, edge_id
from repro.crypto.hashing import digest_value
from repro.crypto.signatures import KeyRegistry
from repro.log.proofs import CommitPhase
from repro.messages.log_messages import AppendBatchRequest
from repro.messages.shard_messages import NotOwnerRedirect, NotOwnerStatement
from repro.messages.txn_messages import (
    TXN_ABORT,
    TXN_COMMIT,
    TxnDecisionMessage,
    TxnDecisionStatement,
    TxnDispute,
    TxnId,
    TxnPrepareReceipt,
    TxnPrepareReceiptStatement,
    TxnPrepareRequest,
    TxnPrepareStatement,
    TxnWrite,
)
from repro.sharding import (
    AbortIgnoringEdgeNode,
    ShardedEdgeNode,
    ShardedWedgeSystem,
    TamperingPrepareEdgeNode,
    UnresponsivePrepareEdgeNode,
    decode_txn_decision,
    is_txn_decision_payload,
)
from repro.sharding.judges import judge_txn_dispute
from repro.sim.environment import local_environment


def fleet_config(**logging_overrides) -> SystemConfig:
    logging = dict(block_size=4, block_timeout_s=0.02)
    logging.update(logging_overrides)
    return SystemConfig.paper_default().with_overrides(
        num_edge_nodes=2,
        sharding=ShardingConfig(num_shards=4),
        logging=LoggingConfig(**logging),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )


def build_fleet(seed=23, edge_factory=None, config=None):
    return ShardedWedgeSystem.build(
        config=config if config is not None else fleet_config(),
        num_clients=1,
        env=local_environment(seed=seed),
        edge_factory=edge_factory,
    )


def cross_shard_items(client, num_shards=2):
    """Deterministic keys hitting *num_shards* distinct shards (and, with
    round-robin assignment, distinct owning edges for the first two)."""

    found: dict[int, str] = {}
    index = 0
    while len(found) < num_shards:
        key = f"key{index:012d}"
        shard = client.partitioner.shard_of(key)
        if shard not in found:
            found[shard] = key
        index += 1
    return [(key, f"value-{shard}".encode()) for shard, key in sorted(found.items())]


def decision_records(edge):
    records = []
    for shard in edge.owned_shards():
        state = edge.shard_state(shard)
        for record in state.log:
            for entry in record.block.entries:
                if is_txn_decision_payload(entry.payload):
                    records.append(
                        (shard, record.block.block_id, decode_txn_decision(entry.payload))
                    )
    return records


# ----------------------------------------------------------------------
# The happy path: atomic commit across shards and edges
# ----------------------------------------------------------------------
class TestAtomicCommit:
    def test_multi_shard_put_commits_everywhere(self):
        system = build_fleet()
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=3)
        owners = {client.router.route(key).owner for key, _ in items}
        assert len(owners) == 2  # spans both edges

        txn_id = client.txn_put(items)
        system.run_for(2.0)
        record = client.txns.record(txn_id)
        assert record.state == "committed"
        assert record.all_prepared and record.all_acked
        assert client.stats["txns_committed"] == 1

        # Every key reads back with a verified proof (Phase II).
        gets = [(key, value, client.get(key)) for key, value in items]
        system.run_for(1.0)
        for key, value, operation in gets:
            assert client.value_of(operation) == value
            assert client.phase_of(operation) is CommitPhase.PHASE_TWO

        # Each participant logged a certified commit decision record.
        logged = [rec for edge in system.edges for rec in decision_records(edge)]
        assert len(logged) == 3
        assert all(decoded[0] == TXN_COMMIT for _, _, decoded in logged)
        # The per-participant prepare operations Phase II committed through
        # the ordinary receipt/proof machinery.
        for participant in record.participants.values():
            assert (
                client.phase_of(participant.operation_id) is CommitPhase.PHASE_TWO
            )
            # The commit block landed at or after the receipt's promised
            # Phase I log position.
            assert (
                participant.ack.block_id
                >= participant.receipt.statement.log_position
            )

    def test_single_shard_txn_still_atomic(self):
        system = build_fleet()
        client = system.clients[0]
        key = "key000000000000"
        shard = client.partitioner.shard_of(key)
        txn_id = client.txn_put([(key, b"solo")])
        system.run_for(2.0)
        assert client.txns.state_of(txn_id) == "committed"
        operation = client.get(key)
        system.run_for(1.0)
        assert client.value_of(operation) == b"solo"
        owner = system.edge_by_id(system.shard_owner(shard))
        assert owner.stats["txn_commits_applied"] == 1


# ----------------------------------------------------------------------
# Participant crash before the decision → abort on every participant
# ----------------------------------------------------------------------
class TestParticipantCrash:
    def test_unresponsive_participant_aborts_the_whole_txn(self):
        def factory(env, cloud, config, name, region, partitioner):
            cls = UnresponsivePrepareEdgeNode if name == "edge-1" else ShardedEdgeNode
            return cls(
                env=env, cloud=cloud, config=config, name=name,
                region=region, partitioner=partitioner,
            )

        system = build_fleet(edge_factory=factory)
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)
        assert {client.router.route(key).owner for key, _ in items} == {
            edge.node_id for edge in system.edges
        }

        txn_id = client.txn_put(items)
        system.run_for(3.0)  # past the receipt timeout (1s default)
        record = client.txns.record(txn_id)
        assert record.state == "aborted"
        assert "missing at timeout" in record.reason
        assert client.stats["txns_aborted"] == 1

        # Atomicity: neither shard serves either key — including the one
        # whose (responsive) participant had already staged the writes.
        gets = [(key, client.get(key)) for key, _ in items]
        system.run_for(1.0)
        for _key, operation in gets:
            assert client.value_of(operation) is None
        # The responsive participant discarded its stage and logged the abort.
        responsive = system.edges[0]
        assert responsive.stats.get("txn_aborts_applied", 0) == 1
        aborts = [rec for rec in decision_records(responsive) if rec[2][0] == TXN_ABORT]
        assert len(aborts) == 1
        for edge in system.edges:
            for shard in edge.owned_shards():
                assert not edge.shard_state(shard).staged_txns


# ----------------------------------------------------------------------
# Coordinator abandonment → participant timeout abort
# ----------------------------------------------------------------------
class TestCoordinatorAbandonment:
    def test_orphaned_prepares_expire_and_refuse_a_late_commit(self):
        system = build_fleet()
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)

        # The coordinator's receipts and decisions all vanish: the edges
        # are on their own with staged prepares.
        def drop_txn_control(src, dst, message):
            return not isinstance(message, (TxnPrepareReceipt, TxnDecisionMessage))

        system.env.network.add_send_hook("test:drop-txn-control", drop_txn_control)
        txn_id = client.txn_put(items)
        system.run_for(0.5)
        staged_counts = [
            sum(len(edge.shard_state(s).staged_txns) for s in edge.owned_shards())
            for edge in system.edges
        ]
        assert sum(staged_counts) == 2  # both participants staged

        # Past the signed expires_at horizon every stage presumes abort.
        system.run_for(6.0)
        system.env.network.remove_send_hook("test:drop-txn-control")
        expired = sum(
            edge.stats.get("txn_prepares_expired", 0) for edge in system.edges
        )
        assert expired == 2
        for edge in system.edges:
            for shard in edge.owned_shards():
                assert not edge.shard_state(shard).staged_txns
            aborts = [
                rec for rec in decision_records(edge) if rec[2][0] == TXN_ABORT
            ]
            assert len(aborts) == 1
            assert aborts[0][2][3] == "prepare-expired"

        # Nothing committed anywhere.
        gets = [(key, client.get(key)) for key, _ in items]
        system.run_for(1.0)
        for _key, operation in gets:
            assert client.value_of(operation) is None

        # A late commit (the abandoning coordinator coming back) is refused:
        # the abort tombstone wins, idempotently.
        record = client.txns.record(txn_id)
        statement = TxnDecisionStatement(
            coordinator=client.node_id,
            txn_id=txn_id,
            decision=TXN_COMMIT,
            participant_shards=record.participant_shards,
            decided_at=system.env.now(),
        )
        late_commit = TxnDecisionMessage(
            statement=statement,
            signature=system.env.registry.sign(client.node_id, statement),
        )
        for edge in system.edges:
            edge.on_message(client.node_id, late_commit)
        system.run_for(1.0)
        assert (
            sum(edge.stats.get("txn_duplicate_decisions", 0) for edge in system.edges)
            == 2
        )
        assert (
            sum(edge.stats.get("txn_commits_applied", 0) for edge in system.edges) == 0
        )
        gets = [(key, client.get(key)) for key, _ in items]
        system.run_for(1.0)
        for _key, operation in gets:
            assert client.value_of(operation) is None


# ----------------------------------------------------------------------
# Tampered prepare receipt → provable dispute
# ----------------------------------------------------------------------
class TestTamperedReceipt:
    def test_mismatched_receipt_is_disputed_and_punished(self):
        system = build_fleet(edge_factory=TamperingPrepareEdgeNode)
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)
        txn_id = client.txn_put(items)
        system.run_for(3.0)

        record = client.txns.record(txn_id)
        assert record.state == "aborted"
        assert record.reason == "tampered prepare receipt"
        assert client.stats["txn_receipt_mismatches"] >= 1
        assert client.stats["txn_disputes_sent"] >= 1
        # The cloud convicted the tamperer from the two signed artifacts.
        punished_verdicts = [v for v in client.txn_verdicts if v.punished]
        assert punished_verdicts
        accused = punished_verdicts[0].accused
        assert system.cloud.ledger.is_punished(accused)
        assert "write set differs" in punished_verdicts[0].reason
        # Atomicity held: nothing committed.
        gets = [(key, client.get(key)) for key, _ in items]
        system.run_for(1.0)
        for _key, operation in gets:
            assert client.value_of(operation) is None


# ----------------------------------------------------------------------
# Abort-ignoring participant serving staged state → provable dispute
# ----------------------------------------------------------------------
class TestStagedAbortServe:
    def test_serving_an_aborted_staged_write_convicts_the_edge(self):
        def factory(env, cloud, config, name, region, partitioner):
            cls = AbortIgnoringEdgeNode if name == "edge-0" else ShardedEdgeNode
            return cls(
                env=env, cloud=cloud, config=config, name=name,
                region=region, partitioner=partitioner,
            )

        system = build_fleet(edge_factory=factory)
        client = system.clients[0]
        rogue = system.edges[0]
        honest = system.edges[1]
        items = cross_shard_items(client, num_shards=2)
        by_owner = {client.router.route(key).owner: (key, value) for key, value in items}
        assert rogue.node_id in by_owner and honest.node_id in by_owner

        # Drop the honest edge's receipt so the coordinator aborts; the
        # rogue edge receives the signed abort but commits anyway.
        def drop_honest_receipts(src, dst, message):
            return not (
                isinstance(message, TxnPrepareReceipt) and src == honest.node_id
            )

        system.env.network.add_send_hook("test:drop-honest-receipts", drop_honest_receipts)
        txn_id = client.txn_put(items)
        system.run_for(3.0)
        system.env.network.remove_send_hook("test:drop-honest-receipts")
        assert client.txns.state_of(txn_id) == "aborted"
        assert rogue.stats.get("txn_commits_applied", 0) == 0  # it *claims* abort

        # Reading the rogue's key returns its signed response serving the
        # staged write — the client holds the full conviction triple.
        rogue_key, rogue_value = by_owner[rogue.node_id]
        operation = client.get(rogue_key)
        system.run_for(2.0)
        assert client.stats["staged_serve_detections"] == 1
        # Lazy-trust remedy: the response verified against certified state,
        # so the read completes — and the edge's own signed artifacts
        # convict it at the cloud.
        assert client.value_of(operation) == rogue_value
        punished = [v for v in client.txn_verdicts if v.punished]
        assert punished and punished[0].accused == rogue.node_id
        assert system.cloud.ledger.is_punished(rogue.node_id)
        assert "signed abort" in punished[0].reason
        # The conviction rode the proof-bound path (the judge placed the
        # record itself), which a backdated issued_at cannot evade.
        assert "proof-bound" in punished[0].reason

    def test_in_flight_plain_write_racing_an_abort_is_not_disputed(self):
        """A plain put of the same (key, value) issued just before the
        transaction — still unacknowledged when the prepare is staged, and
        committing after the abort's staging floor — must keep reading back
        cleanly: the coordinator's own-write memory stops the abort from
        registering (or disputing) a pair the client committed itself."""

        def factory(env, cloud, config, name, region, partitioner):
            cls = UnresponsivePrepareEdgeNode if name == "edge-1" else ShardedEdgeNode
            return cls(
                env=env, cloud=cloud, config=config, name=name,
                region=region, partitioner=partitioner,
            )

        system = build_fleet(edge_factory=factory)
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)
        honest_owner = system.edges[0].node_id
        key, value = next(
            (key, value)
            for key, value in items
            if client.router.route(key).owner == honest_owner
        )
        # Plain put and transaction back to back — no sim time in between,
        # so the put is unacknowledged when the prepare is staged.
        client.put(key, value)
        txn_id = client.txn_put(items)
        system.run_for(3.0)  # put commits; transaction aborts at the timer
        assert client.txns.state_of(txn_id) == "aborted"
        assert (
            key,
        ) not in {(k,) for k, _d in client.txns.aborted_writes}  # pair skipped
        operation = client.get(key)
        system.run_for(2.0)
        assert client.value_of(operation) == value
        assert client.phase_of(operation) is CommitPhase.PHASE_TWO
        assert client.stats["staged_serve_detections"] == 0
        assert client.stats["txn_disputes_sent"] == 0
        assert not system.cloud.ledger.is_punished(honest_owner)

    def test_pre_transaction_write_of_same_bytes_is_not_disputed(self):
        """A value committed *before* the transaction that later aborts with
        the same (key, value) must keep reading back cleanly: its proven
        sequence predates the receipt's staged log position."""

        def factory(env, cloud, config, name, region, partitioner):
            cls = UnresponsivePrepareEdgeNode if name == "edge-1" else ShardedEdgeNode
            return cls(
                env=env, cloud=cloud, config=config, name=name,
                region=region, partitioner=partitioner,
            )

        system = build_fleet(edge_factory=factory)
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)
        honest_owner = system.edges[0].node_id
        key, value = next(
            (key, value)
            for key, value in items
            if client.router.route(key).owner == honest_owner
        )
        # Commit the pair normally first.
        client.put(key, value)
        system.run_for(1.0)
        # Then abort a transaction staging the very same pair.
        txn_id = client.txn_put(items)
        system.run_for(3.0)
        assert client.txns.state_of(txn_id) == "aborted"
        # The coordinator's own-write memory excluded the pair outright: it
        # can never be disputed, however the later gets are timed.
        assert not any(k == key for k, _digest in client.txns.aborted_writes)
        operation = client.get(key)
        system.run_for(2.0)
        assert client.value_of(operation) == value
        assert client.phase_of(operation) is CommitPhase.PHASE_TWO
        assert client.stats["staged_serve_detections"] == 0
        assert client.stats["txn_disputes_sent"] == 0
        assert not system.cloud.ledger.is_punished(honest_owner)


# ----------------------------------------------------------------------
# Transaction racing a shard handoff
# ----------------------------------------------------------------------
class TestTxnVsHandoff:
    def test_staged_prepare_holds_the_drain_until_decided(self):
        system = build_fleet()
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)

        # Hold every decision back: the transaction stays staged.
        def drop_decisions(src, dst, message):
            return not isinstance(message, TxnDecisionMessage)

        system.env.network.add_send_hook("test:drop-decisions", drop_decisions)
        txn_id = client.txn_put(items)
        system.run_for(0.5)
        record = client.txns.record(txn_id)
        assert record.state == "committed"  # decision signed, not delivered

        # Order the staged shard away mid-transaction.
        key, value = items[0]
        shard = client.partitioner.shard_of(key)
        source = system.edge_by_id(system.shard_owner(shard))
        dest = next(edge for edge in system.edges if edge is not source)
        assert source.shard_state(shard).staged_txns
        system.rebalance_shard(shard, dest.node_id)
        system.run_for(1.0)
        # The drain waits: staged prepares must resolve before transfer.
        assert source.stats.get("handoff_txn_waits", 0) == 1
        assert system.cloud.stats["shard_handoffs_granted"] == 0
        assert shard in source._migrating

        # Deliver the held commit decision; the stage resolves, the commit
        # block certifies, and the handoff completes.
        system.env.network.remove_send_hook("test:drop-decisions")
        source.on_message(client.node_id, record.decision)
        system.run_for(3.0)
        assert source.stats.get("txn_commits_applied", 0) == 1
        assert system.cloud.stats["shard_handoffs_granted"] == 1
        assert system.shard_owner(shard) == dest.node_id
        assert dest.shard_state(shard) is not None

        # The committed value survives the move, served by the new owner.
        operation = client.get(key)
        system.run_for(1.0)
        assert client.value_of(operation) == value
        assert client.phase_of(operation) is CommitPhase.PHASE_TWO


# ----------------------------------------------------------------------
# Duplicate decisions absorb idempotently
# ----------------------------------------------------------------------
class TestDuplicateDecision:
    def test_replayed_commit_decision_applies_nothing_twice(self):
        system = build_fleet()
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)
        txn_id = client.txn_put(items)
        system.run_for(2.0)
        record = client.txns.record(txn_id)
        assert record.state == "committed"

        blocks_before = {
            edge.node_id: edge.stats["blocks_formed"] for edge in system.edges
        }
        applied_before = {
            edge.node_id: edge.stats.get("txn_commits_applied", 0)
            for edge in system.edges
        }
        for edge in system.edges:
            edge.on_message(client.node_id, record.decision)
        system.run_for(1.0)
        duplicates = sum(
            edge.stats.get("txn_duplicate_decisions", 0) for edge in system.edges
        )
        assert duplicates >= 1
        for edge in system.edges:
            assert edge.stats["blocks_formed"] == blocks_before[edge.node_id]
            assert (
                edge.stats.get("txn_commits_applied", 0)
                == applied_before[edge.node_id]
            )
        # Values unchanged and still verifiable.
        gets = [(key, value, client.get(key)) for key, value in items]
        system.run_for(1.0)
        for _key, value, operation in gets:
            assert client.value_of(operation) == value


# ----------------------------------------------------------------------
# Redirect-aware participant resolution across a shard handoff
# ----------------------------------------------------------------------
class TestPrepareReroute:
    def test_redirected_prepare_commits_at_the_new_owner(self):
        """A prepare sent with a stale map redirects to the shard's new
        owner and the transaction still commits: the re-sent prepare is
        re-derived for the new owner (a fresh edge has a lower log
        position, so replaying the old floor would be refused)."""

        from repro.messages.shard_messages import ShardMapMessage

        system = build_fleet()
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)
        key, _value = items[0]
        shard = client.partitioner.shard_of(key)
        source = system.edge_by_id(system.shard_owner(shard))
        dest = next(edge for edge in system.edges if edge is not source)

        # Seed the watermark: prior traffic raises the observed block ids.
        for index in range(8):
            client.put(key, b"warm-%d" % index)
        system.run_for(1.0)
        assert client._observed_block_ids.get(source.node_id, -1) >= 0

        # Move the shard while keeping the client's map stale.
        def drop_maps_to_client(src, dst, message):
            return not (
                isinstance(message, ShardMapMessage) and dst == client.node_id
            )

        system.env.network.add_send_hook("test:drop-maps-to-client", drop_maps_to_client)
        system.rebalance_shard(shard, dest.node_id)
        system.run_for(2.0)
        assert system.shard_owner(shard) == dest.node_id
        assert client.fleet_view.shard_map.owner_of(shard) == source.node_id

        txn_id = client.txn_put(items)  # prepare goes to the old owner
        system.run_for(2.0)
        system.env.network.remove_send_hook("test:drop-maps-to-client")
        record = client.txns.record(txn_id)
        assert client.stats["txn_prepare_reroutes"] >= 1
        assert record.state == "committed"
        assert record.participants[shard].owner == dest.node_id
        gets = [(key, value, client.get(key)) for key, value in items]
        system.run_for(1.0)
        for _key, value, operation in gets:
            assert client.value_of(operation) == value


# ----------------------------------------------------------------------
# Retrying an aborted write as a plain put must not frame the edge
# ----------------------------------------------------------------------
class TestRetryAfterAbort:
    def test_reissued_write_is_served_without_a_false_dispute(self):
        """The natural retry-after-abort pattern — re-putting the same
        (key, value) as an ordinary put — must read back cleanly: the
        aborted-write index forgets pairs the client legitimately rewrites,
        so no staged-abort-serve dispute fires against the honest edge."""

        def factory(env, cloud, config, name, region, partitioner):
            cls = UnresponsivePrepareEdgeNode if name == "edge-1" else ShardedEdgeNode
            return cls(
                env=env, cloud=cloud, config=config, name=name,
                region=region, partitioner=partitioner,
            )

        system = build_fleet(edge_factory=factory)
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)
        txn_id = client.txn_put(items)
        system.run_for(3.0)
        assert client.txns.state_of(txn_id) == "aborted"
        assert client.txns.aborted_writes  # the index holds the pairs

        # Retry every write as an ordinary put with the *same* values.
        puts = [client.put(key, value) for key, value in items]
        system.run_for(2.0)
        honest_owner = system.edges[0].node_id
        for (key, value), operation in zip(items, puts):
            if client.router.route(key).owner == honest_owner:
                assert client.phase_of(operation) is CommitPhase.PHASE_TWO
        gets = [(key, value, client.get(key)) for key, value in items
                if client.router.route(key).owner == honest_owner]
        system.run_for(2.0)
        for _key, value, operation in gets:
            assert client.value_of(operation) == value
            assert client.phase_of(operation) is CommitPhase.PHASE_TWO
        assert client.stats["staged_serve_detections"] == 0
        assert client.stats["txn_disputes_sent"] == 0
        assert not system.cloud.ledger.is_punished(honest_owner)


# ----------------------------------------------------------------------
# A lost decision is retransmitted until every participant acknowledged
# ----------------------------------------------------------------------
class TestDecisionRetry:
    def test_lost_commit_decision_is_resent_until_acked(self):
        """One participant's commit decision falls on the floor: without
        retransmission it would presume abort at its expiry while the rest
        committed — the retry closes the atomicity hole."""

        system = build_fleet()
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)
        victim = system.edges[1]

        def drop_decisions_to_victim(src, dst, message):
            return not (
                isinstance(message, TxnDecisionMessage) and dst == victim.node_id
            )

        system.env.network.add_send_hook("test:drop-decisions-to-victim", drop_decisions_to_victim)
        txn_id = client.txn_put(items)
        system.run_for(0.5)
        record = client.txns.record(txn_id)
        assert record.state == "committed"
        assert not record.all_acked  # the victim never saw the decision
        assert victim.stats.get("txn_commits_applied", 0) == 0

        # Let the wire heal; the coordinator's bounded retry re-delivers.
        system.env.network.remove_send_hook("test:drop-decisions-to-victim")
        system.run_for(3.0)
        assert client.stats["txn_decision_retries"] >= 1
        assert record.all_acked
        assert victim.stats.get("txn_commits_applied", 0) == 1
        assert victim.stats.get("txn_prepares_expired", 0) == 0
        gets = [(key, value, client.get(key)) for key, value in items]
        system.run_for(1.0)
        for _key, value, operation in gets:
            assert client.value_of(operation) == value


# ----------------------------------------------------------------------
# Redirect cap semantics (satellite regression test)
# ----------------------------------------------------------------------
class TestRedirectCap:
    def build(self, max_redirects):
        config = SystemConfig.paper_default().with_overrides(
            num_edge_nodes=3,
            sharding=ShardingConfig(num_shards=3, max_redirects=max_redirects),
            logging=LoggingConfig(block_size=4, block_timeout_s=0.02),
        )
        return ShardedWedgeSystem.build(
            config=config, num_clients=1, env=local_environment(seed=5)
        )

    def redirect_from(self, system, edge, operation_id, shard_id, owner):
        statement = NotOwnerStatement(
            edge=edge.node_id,
            operation_id=operation_id,
            shard_id=shard_id,
            owner=owner,
            map_version=edge.map_view.version,
            issued_at=system.env.now(),
        )
        return NotOwnerRedirect(
            statement=statement,
            signature=system.env.registry.sign(edge.node_id, statement),
        )

    def drive(self, max_redirects, hops):
        """Feed *hops* signed redirects to one pending put; return the client."""

        system = self.build(max_redirects)
        client = system.clients[0]
        # Keep the operation pending forever: the appends never arrive.
        system.env.network.add_send_hook(
            "test:drop-appends-and-prepares",
            lambda src, dst, message: not isinstance(
                message, (AppendBatchRequest, TxnPrepareRequest)
            ),
        )
        key = "key000000000000"
        shard_id = client.partitioner.shard_of(key)
        operation_id = client.put(key, b"v")
        system.run_for(0.1)
        # Bounce the operation between the two non-serving edges: each hop
        # is a signed redirect from the edge the client last contacted.
        record = client.tracker.get(operation_id)
        for _hop in range(hops):
            current = system.edge_by_id(record.details["edge"])
            target = next(
                edge for edge in system.edges if edge.node_id != current.node_id
            )
            redirect = self.redirect_from(
                system, current, operation_id, shard_id, target.node_id
            )
            client.on_message(current.node_id, redirect)
        return client, operation_id

    def test_exactly_max_redirect_hops_are_followed(self):
        client, operation_id = self.drive(max_redirects=2, hops=2)
        assert client.stats["redirects_followed"] == 2
        assert client.stats["redirect_failures"] == 0
        assert client.tracker.get(operation_id).phase is CommitPhase.PENDING

    def test_one_hop_past_the_cap_fails_the_operation(self):
        client, operation_id = self.drive(max_redirects=2, hops=3)
        assert client.stats["redirects_followed"] == 2
        assert client.stats["redirect_failures"] == 1
        record = client.tracker.get(operation_id)
        assert record.phase is CommitPhase.FAILED
        assert record.failure_reason == "redirect limit exceeded"

    def test_unsharded_fallback_uses_the_field_default(self):
        """No duplicated literal: with ``config.sharding is None`` the cap
        comes from ShardingConfig's field default."""

        from repro.nodes.cloud import CloudNode
        from repro.sharding import ShardedClient
        from repro.sharding.partitioner import HashRingPartitioner

        env = local_environment(seed=3)
        config = SystemConfig.paper_default()  # sharding is None
        assert config.sharding is None
        cloud = CloudNode(env=env, config=config)
        client = ShardedClient(
            env=env,
            edges=[edge_id("edge-solo")],
            cloud=cloud.node_id,
            partitioner=HashRingPartitioner(4),
            config=config,
        )
        field_default = ShardingConfig.__dataclass_fields__["max_redirects"].default
        assert client._max_redirects == field_default
        assert client._max_redirects == ShardingConfig().max_redirects


# ----------------------------------------------------------------------
# The transaction dispute judge (signed artifacts only)
# ----------------------------------------------------------------------
class TestTxnDisputeJudge:
    def setup_method(self):
        self.registry = KeyRegistry("hmac")
        self.coordinator = client_id("coord")
        self.edge = edge_id("participant")
        self.registry.register(self.coordinator)
        self.registry.register(self.edge)
        self.txn_id = TxnId(coordinator=self.coordinator, sequence=1)
        self.writes = (TxnWrite(key="k", value_digest=digest_value(b"v")),)

    def decision(self, decision, at=5.0):
        statement = TxnDecisionStatement(
            coordinator=self.coordinator,
            txn_id=self.txn_id,
            decision=decision,
            participant_shards=(0,),
            decided_at=at,
        )
        return TxnDecisionMessage(
            statement=statement,
            signature=self.registry.sign(self.coordinator, statement),
        )

    def prepare(self, writes=None):
        return TxnPrepareStatement(
            coordinator=self.coordinator,
            txn_id=self.txn_id,
            shard_id=0,
            writes=writes if writes is not None else self.writes,
            participant_shards=(0,),
            staged_floor=0,
            issued_at=1.0,
        )

    def receipt(self, writes=None, answers=None):
        statement = TxnPrepareReceiptStatement(
            edge=self.edge,
            txn_id=self.txn_id,
            shard_id=0,
            log_position=0,
            writes=writes if writes is not None else self.writes,
            prepare_digest=digest_value(
                answers if answers is not None else self.prepare()
            ),
            prepared_at=1.0,
            expires_at=10.0,
        )
        return TxnPrepareReceipt(
            statement=statement, signature=self.registry.sign(self.edge, statement)
        )

    def test_coordinator_equivocation_convicts_the_coordinator(self):
        dispute = TxnDispute(
            reporter=self.edge,
            accused=self.coordinator,
            txn_id=self.txn_id,
            kind="coordinator-equivocation",
            decision=self.decision(TXN_COMMIT),
            second_decision=self.decision(TXN_ABORT),
        )
        judgement = judge_txn_dispute(dispute, self.registry)
        assert judgement.punished
        assert "contradictory" in judgement.reason

    def test_agreeing_decisions_acquit(self):
        dispute = TxnDispute(
            reporter=self.edge,
            accused=self.coordinator,
            txn_id=self.txn_id,
            kind="coordinator-equivocation",
            decision=self.decision(TXN_ABORT),
            second_decision=self.decision(TXN_ABORT, at=6.0),
        )
        assert not judge_txn_dispute(dispute, self.registry).punished

    def test_matching_receipt_acquits_the_edge(self):
        statement = self.prepare()
        dispute = TxnDispute(
            reporter=self.coordinator,
            accused=self.edge,
            txn_id=self.txn_id,
            kind="prepare-receipt-mismatch",
            prepare_statement=statement,
            prepare_signature=self.registry.sign(self.coordinator, statement),
            receipt=self.receipt(),
        )
        assert not judge_txn_dispute(dispute, self.registry).punished

    def test_misquoting_receipt_convicts_the_edge(self):
        statement = self.prepare()
        lied = (TxnWrite(key="k", value_digest="0" * 64),)
        dispute = TxnDispute(
            reporter=self.coordinator,
            accused=self.edge,
            txn_id=self.txn_id,
            kind="prepare-receipt-mismatch",
            prepare_statement=statement,
            prepare_signature=self.registry.sign(self.coordinator, statement),
            receipt=self.receipt(writes=lied),  # digest-bound to `statement`
        )
        judgement = judge_txn_dispute(dispute, self.registry)
        assert judgement.punished
        assert "write set differs" in judgement.reason

    def test_minted_second_prepare_cannot_frame_an_honest_edge(self):
        """A coordinator presenting a *different* self-signed prepare than
        the one the receipt answered convicts nobody: the receipt's
        prepare_digest does not match."""

        honest_receipt = self.receipt()  # answers self.prepare()
        minted = self.prepare(
            writes=(TxnWrite(key="k", value_digest=digest_value(b"other")),)
        )
        dispute = TxnDispute(
            reporter=self.coordinator,
            accused=self.edge,
            txn_id=self.txn_id,
            kind="prepare-receipt-mismatch",
            prepare_statement=minted,
            prepare_signature=self.registry.sign(self.coordinator, minted),
            receipt=honest_receipt,
        )
        judgement = judge_txn_dispute(dispute, self.registry)
        assert not judgement.punished
        assert "does not answer" in judgement.reason

    def test_staged_serve_without_proof_is_unverifiable(self):
        """No serve proof → no conviction: the edge-claimed ``issued_at``
        is never evidence, so neither a backdating edge nor a proof-less
        framing dispute can move the verdict."""

        from repro.messages.kv_messages import GetResponseStatement

        serve = GetResponseStatement(
            edge=self.edge,
            operation_id=OperationId(client=self.coordinator, sequence=9),
            key="k",
            found=True,
            value_digest=digest_value(b"v"),
            issued_at=9.0,  # after decided_at=5.0 — still not enough
        )
        dispute = TxnDispute(
            reporter=self.coordinator,
            accused=self.edge,
            txn_id=self.txn_id,
            kind="staged-abort-serve",
            prepare_statement=self.prepare(),
            prepare_signature=self.registry.sign(self.coordinator, self.prepare()),
            receipt=self.receipt(),
            decision=self.decision(TXN_ABORT),
            serve_statement=serve,
            serve_signature=self.registry.sign(self.edge, serve),
        )
        judgement = judge_txn_dispute(dispute, self.registry)
        assert not judgement.punished
        assert "unverifiable" in judgement.reason

    def test_unknown_kind_acquits(self):
        dispute = TxnDispute(
            reporter=self.edge,
            accused=self.edge,
            txn_id=self.txn_id,
            kind="nonsense",
        )
        assert not judge_txn_dispute(dispute, self.registry).punished


# ----------------------------------------------------------------------
# An equivocating coordinator is counter-convicted by its own victim
# ----------------------------------------------------------------------
class TestCoordinatorEquivocation:
    def test_framed_edge_counter_disputes_the_forked_coordinator(self):
        """A coordinator that commits a transaction and then presents a
        freshly signed *abort* as dispute evidence gets an honest edge
        convicted — but the cloud forwards the convicting abort to the
        accused, which holds the contradictory signed commit and convicts
        the coordinator right back."""

        from repro.messages.kv_messages import GetResponse

        system = build_fleet()
        client = system.clients[0]
        items = cross_shard_items(client, num_shards=2)
        txn_id = client.txn_put(items)
        system.run_for(2.0)
        record = client.txns.record(txn_id)
        assert record.state == "committed"

        # Capture a signed, proven serve of one committed key.
        key, _value = next(
            (key, value)
            for key, value in items
            if client.router.route(key).owner == system.edges[0].node_id
        )
        captured = []

        def capture(src, dst, message):
            if isinstance(message, GetResponse):
                captured.append(message)
            return True

        system.env.network.add_send_hook("test:capture", capture)
        client.get(key)
        system.run_for(1.0)
        system.env.network.remove_send_hook("test:capture")
        response = captured[0]

        # The coordinator now signs a contradictory ABORT and frames the
        # serving edge with otherwise-genuine artifacts.
        shard = client.partitioner.shard_of(key)
        participant = record.participants[shard]
        abort_statement = TxnDecisionStatement(
            coordinator=client.node_id,
            txn_id=txn_id,
            decision=TXN_ABORT,
            participant_shards=record.participant_shards,
            decided_at=system.env.now(),
        )
        forged_abort = TxnDecisionMessage(
            statement=abort_statement,
            signature=system.env.registry.sign(client.node_id, abort_statement),
        )
        accused = participant.owner
        dispute = TxnDispute(
            reporter=client.node_id,
            accused=accused,
            txn_id=txn_id,
            kind="staged-abort-serve",
            prepare_statement=participant.statement,
            prepare_signature=participant.signature,
            receipt=participant.receipt,
            decision=forged_abort,
            serve_statement=response.statement,
            serve_signature=response.signature,
            serve_proof=response.proof,
        )
        system.env.send(client.node_id, system.cloud.node_id, dispute)
        system.run_for(2.0)

        # The frame lands (the artifacts are individually genuine) — but
        # the victim's counter-dispute convicts the forked coordinator.
        edge = system.edge_by_id(accused)
        assert system.cloud.ledger.is_punished(accused)
        assert edge.stats.get("txn_equivocation_disputes", 0) == 1
        assert system.cloud.ledger.is_punished(client.node_id)
        reasons = [
            rec.reason for rec in system.cloud.ledger.records_for(client.node_id)
        ]
        assert any("contradictory decisions" in reason for reason in reasons)


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestTxnConfig:
    def test_prepare_timeout_must_exceed_receipt_timeout(self):
        with pytest.raises(ConfigurationError):
            ShardingConfig(txn_receipt_timeout_s=2.0, txn_prepare_timeout_s=1.0)
        with pytest.raises(ConfigurationError):
            ShardingConfig(txn_receipt_timeout_s=0.0)
