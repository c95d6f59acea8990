"""The fleet judges acquit whatever does not convict.

Aim 3 has two halves: every lie is convictable from signed artifacts, and no
honest node is ever convicted.  Each judge in :mod:`repro.sharding.judges`
gets one convicting evidence bundle here.  Every row mutates one field of
that bundle and asserts the verdict flips to an acquittal, with the reason
of the branch it reaches.  Where the mutated field is signed, the row signs
it again (with the key that would really have signed it), so the judge gets
past the signature checks to the branch under test.

A bundle is the keyword arguments of one judge call; the dispute rides
under ``"dispute"`` and the judge's context (ownership history, the
countersigned handoff digest, the cloud id) beside it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import LoggingConfig, LSMerkleConfig, ShardingConfig, SystemConfig
from repro.common.identifiers import OperationId, client_id, cloud_id, edge_id
from repro.crypto.hashing import digest_value
from repro.crypto.signatures import KeyRegistry
from repro.messages.kv_messages import GetResponse, GetResponseStatement
from repro.messages.shard_messages import (
    ReplicaLease,
    ReplicaLeaseStatement,
    ShardDispute,
    ShardTransferStatement,
)
from repro.messages.txn_messages import (
    TXN_ABORT,
    TXN_COMMIT,
    TxnDecisionMessage,
    TxnDecisionStatement,
    TxnDispute,
    TxnId,
    TxnPrepareReceipt,
    TxnPrepareReceiptStatement,
    TxnPrepareStatement,
    TxnWrite,
)
from repro.sharding import ShardedWedgeSystem
from repro.sharding.judges import (
    judge_shard_dispute,
    judge_stale_replica_dispute,
    judge_txn_dispute,
)
from repro.sim.environment import local_environment

CLOUD = cloud_id("cloud-0")
ACCUSED = edge_id("edge-accused")
OTHER = edge_id("edge-other")
COORDINATOR = client_id("coordinator")
SHARD = 2
ISSUED_AT = 10.0


@pytest.fixture(scope="module")
def registry():
    registry = KeyRegistry("hmac")
    for node in (CLOUD, ACCUSED, OTHER, COORDINATOR):
        registry.register(node)
    return registry


def _replace(bundle, **changes):
    """*bundle* with some judge arguments replaced."""

    return {**bundle, **changes}


def _dispute(bundle, **changes):
    """*bundle* with some fields of its dispute replaced."""

    return _replace(bundle, dispute=dataclasses.replace(bundle["dispute"], **changes))


def _run(judge, bundle, registry):
    return judge(registry=registry, **bundle)


# ----------------------------------------------------------------------
# judge_shard_dispute: handoff-digest-mismatch
# ----------------------------------------------------------------------
def _transfer(registry, signer=ACCUSED, **changes):
    statement = ShardTransferStatement(
        source=ACCUSED,
        dest=OTHER,
        shard_id=SHARD,
        map_version=3,
        blocks=((0, "block-digest"),),
        state_digest="shipped-state",
    )
    statement = dataclasses.replace(statement, **changes)
    return statement, registry.sign(signer, statement)


def _handoff_bundle(registry):
    statement, signature = _transfer(registry)
    return {
        "dispute": ShardDispute(
            reporter=OTHER,
            accused=ACCUSED,
            shard_id=SHARD,
            kind="handoff-digest-mismatch",
            transfer_statement=statement,
            transfer_signature=signature,
        ),
        "owner_at": lambda shard, at: OTHER,
        "granted_state_digest": "countersigned-state",
        "shard_of": lambda key: SHARD,
    }


def _resigned_transfer(registry, bundle, **changes):
    statement, signature = _transfer(registry, **changes)
    return _dispute(bundle, transfer_statement=statement, transfer_signature=signature)


HANDOFF_ACQUITTALS = [
    (
        "no-signature",
        lambda r, b: _dispute(b, transfer_signature=None),
        "handoff dispute without evidence",
    ),
    (
        "signed-by-the-destination",
        lambda r, b: _dispute(
            b, transfer_signature=_transfer(r, signer=OTHER)[1]
        ),
        "transfer statement signature invalid",
    ),
    (
        "statement-altered-after-signing",
        lambda r, b: _dispute(
            b,
            transfer_statement=dataclasses.replace(
                b["dispute"].transfer_statement, state_digest="other"
            ),
        ),
        "transfer statement signature invalid",
    ),
    (
        "another-source",
        lambda r, b: _resigned_transfer(r, b, source=OTHER),
        "transfer statement does not concern the accused shard",
    ),
    (
        "another-shard",
        lambda r, b: _dispute(b, shard_id=SHARD + 1),
        "transfer statement does not concern the accused shard",
    ),
    (
        "no-countersigned-handoff",
        lambda r, b: _replace(b, granted_state_digest=None),
        "no countersigned handoff on record for this shard",
    ),
    (
        "shipped-what-was-countersigned",
        lambda r, b: _resigned_transfer(r, b, state_digest="countersigned-state"),
        "signed transfer matches the certified state digest",
    ),
]


# ----------------------------------------------------------------------
# judge_shard_dispute: stale-owner-serve / judge_stale_replica_dispute
# ----------------------------------------------------------------------
def _serve(registry, signer=ACCUSED, **changes):
    statement = GetResponseStatement(
        edge=ACCUSED,
        operation_id=OperationId(client=COORDINATOR, sequence=1),
        key="k",
        found=True,
        value_digest=digest_value(b"v"),
        issued_at=ISSUED_AT,
    )
    statement = dataclasses.replace(statement, **changes)
    return statement, registry.sign(signer, statement)


def _resigned_serve(registry, bundle, **changes):
    statement, signature = _serve(registry, **changes)
    return _dispute(bundle, serve_statement=statement, serve_signature=signature)


def _lease(registry, signer=CLOUD, **changes):
    statement = ReplicaLeaseStatement(
        cloud=CLOUD,
        replica=ACCUSED,
        shard_id=SHARD,
        map_version=3,
        issued_at=0.0,
        expires_at=ISSUED_AT - 5.0,
    )
    statement = dataclasses.replace(statement, **changes)
    return ReplicaLease(statement=statement, signature=registry.sign(signer, statement))


def _stale_owner_bundle(registry):
    statement, signature = _serve(registry)
    return {
        "dispute": ShardDispute(
            reporter=COORDINATOR,
            accused=ACCUSED,
            shard_id=SHARD,
            kind="stale-owner-serve",
            serve_statement=statement,
            serve_signature=signature,
        ),
        # The certified handoff had moved the shard to OTHER.
        "owner_at": lambda shard, at: OTHER,
        "granted_state_digest": None,
        "shard_of": lambda key: SHARD,
    }


def _stale_replica_bundle(registry):
    statement, signature = _serve(registry)
    return {
        "dispute": ShardDispute(
            reporter=COORDINATOR,
            accused=ACCUSED,
            shard_id=SHARD,
            kind="stale-replica-serve",
            serve_statement=statement,
            serve_signature=signature,
            lease=_lease(registry),  # expired before the response
        ),
        "owner_at": lambda shard, at: OTHER,
        "cloud": CLOUD,
        "shard_of": lambda key: SHARD,
    }


#: Rows both serve judges share: the signed serve statement is checked
#: the same way by each.
SERVE_ACQUITTALS = [
    (
        "signed-by-another-edge",
        lambda r, b: _dispute(b, serve_signature=_serve(r, signer=OTHER)[1]),
        "serve statement signature invalid",
    ),
    (
        "statement-altered-after-signing",
        lambda r, b: _dispute(
            b,
            serve_statement=dataclasses.replace(
                b["dispute"].serve_statement, issued_at=ISSUED_AT + 1
            ),
        ),
        "serve statement signature invalid",
    ),
    (
        "statement-names-another-edge",
        lambda r, b: _resigned_serve(r, b, edge=OTHER),
        "serve statement names a different edge",
    ),
    (
        "key-of-another-shard",
        lambda r, b: _replace(b, shard_of=lambda key: SHARD + 1),
        "served key does not belong to the disputed shard",
    ),
]

STALE_OWNER_ACQUITTALS = SERVE_ACQUITTALS + [
    (
        "no-signature",
        lambda r, b: _dispute(b, serve_signature=None),
        "stale-owner dispute without evidence",
    ),
    (
        "shard-never-owned",
        lambda r, b: _replace(b, owner_at=lambda shard, at: None),
        "shard has no recorded owner",
    ),
    (
        "unknown-kind",
        lambda r, b: _dispute(b, kind="nonsense"),
        "unknown shard dispute kind 'nonsense'",
    ),
]

STALE_REPLICA_ACQUITTALS = SERVE_ACQUITTALS + [
    (
        "another-kind",
        lambda r, b: _dispute(b, kind="stale-owner-serve"),
        "not a stale-replica dispute: 'stale-owner-serve'",
    ),
    (
        "no-signature",
        lambda r, b: _dispute(b, serve_signature=None),
        "stale-replica dispute without evidence",
    ),
    (
        "accused-was-the-writer",
        lambda r, b: _replace(b, owner_at=lambda shard, at: ACCUSED),
        "accused was the shard's writer when it served; not a replica",
    ),
    (
        "lease-covers-the-response",
        lambda r, b: _dispute(b, lease=_lease(r, expires_at=ISSUED_AT)),
        "attached lease covers the response; no misbehaviour",
    ),
]

#: A covering lease acquits only when it is the cloud's lease for this
#: replica on this shard: each of these still convicts.
FORGED_COVERING_LEASES = [
    ("signed-by-the-replica", dict(signer=ACCUSED)),
    ("for-another-replica", dict(replica=OTHER)),
    ("for-another-shard", dict(shard_id=SHARD + 1)),
    ("from-another-cloud", dict(signer=OTHER, cloud=OTHER)),
]


# ----------------------------------------------------------------------
# judge_txn_dispute: prepare-receipt-mismatch / coordinator-equivocation
# ----------------------------------------------------------------------
TXN = TxnId(coordinator=COORDINATOR, sequence=1)
WRITES = (TxnWrite(key="k", value_digest=digest_value(b"v")),)


def _prepare(registry, signer=COORDINATOR, **changes):
    statement = TxnPrepareStatement(
        coordinator=COORDINATOR,
        txn_id=TXN,
        shard_id=0,
        writes=WRITES,
        participant_shards=(0,),
        staged_floor=0,
        issued_at=1.0,
    )
    statement = dataclasses.replace(statement, **changes)
    return statement, registry.sign(signer, statement)


def _receipt(registry, answers, signer=ACCUSED, **changes):
    statement = TxnPrepareReceiptStatement(
        edge=ACCUSED,
        txn_id=TXN,
        shard_id=0,
        log_position=0,
        writes=WRITES,
        prepare_digest=digest_value(answers),
        prepared_at=1.0,
        expires_at=10.0,
    )
    statement = dataclasses.replace(statement, **changes)
    return TxnPrepareReceipt(statement=statement, signature=registry.sign(signer, statement))


def _decision(registry, decision, signer=COORDINATOR, **changes):
    statement = TxnDecisionStatement(
        coordinator=COORDINATOR,
        txn_id=TXN,
        decision=decision,
        participant_shards=(0,),
        decided_at=5.0,
    )
    statement = dataclasses.replace(statement, **changes)
    return TxnDecisionMessage(statement=statement, signature=registry.sign(signer, statement))


def _receipt_mismatch_bundle(registry):
    prepare, signature = _prepare(registry)
    lied = (TxnWrite(key="k", value_digest="0" * 64),)
    return {
        "dispute": TxnDispute(
            reporter=COORDINATOR,
            accused=ACCUSED,
            txn_id=TXN,
            kind="prepare-receipt-mismatch",
            prepare_statement=prepare,
            prepare_signature=signature,
            receipt=_receipt(registry, prepare, writes=lied),
        )
    }


def _receipt_for(registry, bundle, **changes):
    prepare = bundle["dispute"].prepare_statement
    lied = bundle["dispute"].receipt.statement.writes
    return _dispute(bundle, receipt=_receipt(registry, prepare, writes=lied, **changes))


RECEIPT_MISMATCH_ACQUITTALS = [
    (
        "no-receipt",
        lambda r, b: _dispute(b, receipt=None),
        "receipt dispute without evidence",
    ),
    (
        "prepare-signed-by-the-edge",
        lambda r, b: _dispute(b, prepare_signature=_prepare(r, signer=ACCUSED)[1]),
        "prepare statement signature invalid",
    ),
    (
        "another-transaction",
        lambda r, b: _dispute(b, txn_id=TxnId(coordinator=COORDINATOR, sequence=2)),
        "evidence concerns a different transaction",
    ),
    (
        "receipt-signed-by-another-edge",
        lambda r, b: _receipt_for(r, b, signer=OTHER),
        "prepare receipt signature invalid",
    ),
    (
        "accused-did-not-sign-the-receipt",
        lambda r, b: _dispute(b, accused=OTHER),
        "prepare receipt signature invalid",
    ),
    (
        "receipt-for-another-shard",
        lambda r, b: _receipt_for(r, b, shard_id=1),
        "receipt concerns a different shard",
    ),
]


def _equivocation_bundle(registry):
    return {
        "dispute": TxnDispute(
            reporter=ACCUSED,
            accused=COORDINATOR,
            txn_id=TXN,
            kind="coordinator-equivocation",
            decision=_decision(registry, TXN_COMMIT),
            second_decision=_decision(registry, TXN_ABORT),
        )
    }


EQUIVOCATION_ACQUITTALS = [
    (
        "one-decision",
        lambda r, b: _dispute(b, second_decision=None),
        "equivocation dispute without evidence",
    ),
    (
        "accused-is-a-participant",
        lambda r, b: _dispute(b, accused=ACCUSED),
        "accused is not the transaction's coordinator",
    ),
    (
        "decision-of-another-transaction",
        lambda r, b: _dispute(
            b,
            second_decision=_decision(
                r, TXN_ABORT, txn_id=TxnId(coordinator=COORDINATOR, sequence=2)
            ),
        ),
        "evidence concerns a different transaction",
    ),
    (
        "decision-signed-by-an-edge",
        lambda r, b: _dispute(
            b, second_decision=_decision(r, TXN_ABORT, signer=ACCUSED)
        ),
        "decision signature invalid",
    ),
]


CASES = [
    (judge_shard_dispute, _handoff_bundle, HANDOFF_ACQUITTALS),
    (judge_shard_dispute, _stale_owner_bundle, STALE_OWNER_ACQUITTALS),
    (judge_stale_replica_dispute, _stale_replica_bundle, STALE_REPLICA_ACQUITTALS),
    (judge_txn_dispute, _receipt_mismatch_bundle, RECEIPT_MISMATCH_ACQUITTALS),
    (judge_txn_dispute, _equivocation_bundle, EQUIVOCATION_ACQUITTALS),
]


@pytest.mark.parametrize(
    "judge, bundle", [case[:2] for case in CASES], ids=[case[1].__name__ for case in CASES]
)
def test_the_unmutated_bundle_convicts(registry, judge, bundle):
    assert _run(judge, bundle(registry), registry).punished


ACQUITTALS = [
    (f"{bundle.__name__}:{name}", judge, bundle, mutate, reason)
    for judge, bundle, rows in CASES
    for name, mutate, reason in rows
]


@pytest.mark.parametrize(
    "judge, bundle, mutate, reason",
    [row[1:] for row in ACQUITTALS],
    ids=[row[0] for row in ACQUITTALS],
)
def test_one_mutated_field_acquits(registry, judge, bundle, mutate, reason):
    judgement = _run(judge, mutate(registry, bundle(registry)), registry)
    assert judgement.punished is False
    assert judgement.reason == reason


@pytest.mark.parametrize(
    "changes",
    [row[1] for row in FORGED_COVERING_LEASES],
    ids=[row[0] for row in FORGED_COVERING_LEASES],
)
def test_a_forged_covering_lease_still_convicts(registry, changes):
    bundle = _stale_replica_bundle(registry)
    lease = _lease(registry, expires_at=ISSUED_AT + 5.0, **changes)
    assert _run(judge_stale_replica_dispute, _dispute(bundle, lease=lease), registry).punished


# ----------------------------------------------------------------------
# judge_txn_dispute: staged-abort-serve (needs a real proof, so a real fleet)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def staged_abort_serve():
    """A convicting staged-abort-serve bundle from a real 2-edge fleet.

    The transaction commits; the coordinator then signs an abort for it and
    presents the participant's own receipt, prepare and a proven serve of
    the committed key.  The artifacts are individually genuine, so the bundle
    convicts (the fleet answers such a frame with a coordinator-equivocation
    counter-dispute, pinned in ``tests/test_cross_shard_txn.py``).
    """

    config = SystemConfig.paper_default().with_overrides(
        num_edge_nodes=2,
        sharding=ShardingConfig(num_shards=4),
        logging=LoggingConfig(block_size=4, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )
    system = ShardedWedgeSystem.build(
        config=config, num_clients=1, env=local_environment(seed=23)
    )
    client = system.clients[0]
    by_shard = {}
    index = 0
    while len(by_shard) < 2:
        key = f"key{index:012d}"
        by_shard.setdefault(client.partitioner.shard_of(key), key)
        index += 1
    items = [(key, f"value-{shard}".encode()) for shard, key in sorted(by_shard.items())]
    txn_id = client.txn_put(items)
    system.run_for(2.0)
    record = client.txns.record(txn_id)
    assert record.state == "committed"

    key = items[0][0]
    served = []

    def capture(src, dst, message):
        if isinstance(message, GetResponse):
            served.append(message)
        return True

    system.env.network.add_send_hook("test:capture", capture)
    client.get(key)
    system.run_for(1.0)
    system.env.network.remove_send_hook("test:capture")
    (response,) = served

    participant = record.participants[client.partitioner.shard_of(key)]
    abort = TxnDecisionStatement(
        coordinator=client.node_id,
        txn_id=txn_id,
        decision=TXN_ABORT,
        participant_shards=record.participant_shards,
        decided_at=system.env.now(),
    )
    bundle = {
        "dispute": TxnDispute(
            reporter=client.node_id,
            accused=participant.owner,
            txn_id=txn_id,
            kind="staged-abort-serve",
            prepare_statement=participant.statement,
            prepare_signature=participant.signature,
            receipt=participant.receipt,
            decision=TxnDecisionMessage(
                statement=abort,
                signature=system.env.registry.sign(client.node_id, abort),
            ),
            serve_statement=response.statement,
            serve_signature=response.signature,
            serve_proof=response.proof,
        ),
        "cloud": system.cloud.node_id,
    }
    return system.env.registry, bundle


def _resigned(registry, signer, message, **changes):
    """*message* (statement + signature) with its statement changed and signed again."""

    statement = dataclasses.replace(message.statement, **changes)
    return dataclasses.replace(
        message, statement=statement, signature=registry.sign(signer, statement)
    )


def _bystander(bundle):
    """The fleet edge that is not the accused."""

    accused = bundle["dispute"].accused
    return next(edge_id(name) for name in ("edge-0", "edge-1") if edge_id(name) != accused)


def _reserved(registry, bundle, signer=None, **changes):
    """*bundle* with its serve statement changed and signed again."""

    dispute = bundle["dispute"]
    statement = dataclasses.replace(dispute.serve_statement, **changes)
    signer = signer if signer is not None else dispute.accused
    return _dispute(
        bundle, serve_statement=statement, serve_signature=registry.sign(signer, statement)
    )


def _reprepared(registry, bundle, answered=False, **changes):
    """*bundle* with its prepare changed and signed again by the coordinator;
    with *answered*, the accused's receipt is signed again to answer it."""

    dispute = bundle["dispute"]
    prepare = dataclasses.replace(dispute.prepare_statement, **changes)
    receipt = dispute.receipt
    if answered:
        receipt = _resigned(
            registry, dispute.accused, receipt, prepare_digest=digest_value(prepare)
        )
    return _dispute(
        bundle,
        prepare_statement=prepare,
        prepare_signature=registry.sign(dispute.txn_id.coordinator, prepare),
        receipt=receipt,
    )


def _redecided(registry, bundle, signer=None, **changes):
    """*bundle* with its abort changed and signed again (by the coordinator)."""

    dispute = bundle["dispute"]
    signer = signer if signer is not None else dispute.txn_id.coordinator
    return _dispute(bundle, decision=_resigned(registry, signer, dispute.decision, **changes))


STAGED_SERVE_ACQUITTALS = [
    (
        "no-decision",
        lambda r, b: _dispute(b, decision=None),
        "staged-serve dispute without evidence",
    ),
    (
        "receipt-altered-after-signing",
        lambda r, b: _dispute(
            b,
            receipt=dataclasses.replace(
                b["dispute"].receipt,
                statement=dataclasses.replace(
                    b["dispute"].receipt.statement, log_position=99
                ),
            ),
        ),
        "prepare receipt signature invalid",
    ),
    (
        "abort-of-another-transaction",
        lambda r, b: _redecided(
            r, b, txn_id=dataclasses.replace(b["dispute"].txn_id, sequence=99)
        ),
        "evidence concerns a different transaction",
    ),
    (
        "abort-signed-by-an-edge",
        lambda r, b: _redecided(r, b, signer=b["dispute"].accused),
        "decision signature invalid",
    ),
    (
        "decision-is-a-commit",
        lambda r, b: _redecided(r, b, decision=TXN_COMMIT),
        "decision is not an abort; staged writes were committed",
    ),
    (
        "serve-signed-by-another-edge",
        lambda r, b: _reserved(r, b, signer=_bystander(b)),
        "serve statement signature invalid",
    ),
    (
        "serve-names-another-edge",
        lambda r, b: _reserved(r, b, edge=_bystander(b)),
        "serve statement names a different edge",
    ),
    (
        "serve-returned-no-value",
        lambda r, b: _reserved(r, b, found=False, value_digest=None),
        "serve statement returned no value",
    ),
    (
        "served-value-was-not-staged",
        lambda r, b: _reserved(r, b, value_digest=digest_value(b"never staged")),
        "served value is not one of the transaction's staged writes",
    ),
    (
        "prepare-signed-by-the-edge",
        lambda r, b: _dispute(
            b,
            prepare_signature=r.sign(b["dispute"].accused, b["dispute"].prepare_statement),
        ),
        "prepare statement signature invalid",
    ),
    (
        "prepare-the-receipt-does-not-answer",
        lambda r, b: _reprepared(r, b, issued_at=-1.0),
        "receipt does not answer the presented prepare statement",
    ),
    (
        "proof-judged-for-another-cloud",
        lambda r, b: _replace(b, cloud=_bystander(b)),
        "serve proof failed verification",
    ),
    (
        "proof-predates-the-staged-prepare",
        lambda r, b: _reprepared(r, b, answered=True, staged_floor=10_000),
        "proven record predates the staged prepare; an earlier write of "
        "the same bytes, not the staged state",
    ),
]


def test_the_staged_abort_serve_bundle_convicts(staged_abort_serve):
    registry, bundle = staged_abort_serve
    assert _run(judge_txn_dispute, bundle, registry).punished


@pytest.mark.parametrize(
    "mutate, reason",
    [row[1:] for row in STAGED_SERVE_ACQUITTALS],
    ids=[row[0] for row in STAGED_SERVE_ACQUITTALS],
)
def test_one_mutated_staged_serve_field_acquits(staged_abort_serve, mutate, reason):
    registry, bundle = staged_abort_serve
    judgement = _run(judge_txn_dispute, mutate(registry, bundle), registry)
    assert judgement.punished is False
    assert judgement.reason == reason
