"""Tests for the batched certification and gossip subsystem.

Covers the crypto batch helpers (one signature over a Merkle root of item
digests), the batch-anchored block proofs, the LazyCertifier dispatch queue
and the retry chains it ends, the cloud's batch-certify handler (including the
duplicate / out-of-order / conflicting cases), the edge's malicious-cloud
rejection path, and end-to-end equivalence between the batched and the
per-block protocol.
"""

from __future__ import annotations

import pytest

from repro.common import ProtocolError
from repro.common.config import LoggingConfig, LSMerkleConfig, SecurityConfig, SystemConfig
from repro.common.errors import ProofVerificationError, SignatureError
from repro.common.identifiers import client_id, cloud_id, edge_id
from repro.core.certification import LazyCertifier
from repro.core.system import WedgeChainSystem
from repro.crypto.signatures import (
    KeyRegistry,
    batch_item_leaf,
    sign_batch_root,
    verify_batch_root,
)
from repro.log.block import build_block
from repro.log.entry import make_entry
from repro.log.proofs import (
    BatchedBlockProof,
    CommitPhase,
    build_certify_batch_tree,
    certify_batch_leaf,
    derive_batched_proofs,
    issue_batch_certificate,
    issue_block_proof,
)
from repro.messages.log_messages import (
    BatchCertificateMessage,
    BlockCertifyRequest,
    CertifyBatchRequest,
    CertifyBatchStatement,
    CertifyRejection,
    CertifyStatement,
)
from repro.nodes.cloud import CloudNode
from repro.nodes.edge import EdgeNode
from repro.sim.environment import local_environment

CLOUD = cloud_id("cloud-0")
EDGE = edge_id("edge-0")
ALICE = client_id("alice")


@pytest.fixture
def registry():
    registry = KeyRegistry()
    registry.register(CLOUD)
    registry.register(EDGE)
    registry.register(ALICE)
    return registry


def digests(count):
    return [(block_id, f"{block_id:064x}") for block_id in range(count)]


# ----------------------------------------------------------------------
# Crypto batch helpers
# ----------------------------------------------------------------------
class TestBatchRootSigning:
    def test_sign_and_verify_roundtrip(self, registry):
        statement, signature = sign_batch_root(
            registry, CLOUD, "certify-batch", "ab" * 32, 4, 1.0, about=EDGE
        )
        assert verify_batch_root(registry, statement, signature)
        assert verify_batch_root(
            registry, statement, signature, expected_signer=CLOUD
        )
        assert verify_batch_root(
            registry, statement, signature, expected_context="certify-batch"
        )

    def test_wrong_signer_or_context_rejected(self, registry):
        statement, signature = sign_batch_root(
            registry, CLOUD, "certify-batch", "ab" * 32, 4, 1.0
        )
        assert not verify_batch_root(
            registry, statement, signature, expected_signer=EDGE
        )
        assert not verify_batch_root(
            registry, statement, signature, expected_context="gossip"
        )

    def test_empty_batch_rejected(self, registry):
        with pytest.raises(SignatureError):
            sign_batch_root(registry, CLOUD, "certify-batch", "ab" * 32, 0, 1.0)

    def test_forged_signature_rejected(self, registry):
        statement, _ = sign_batch_root(
            registry, CLOUD, "certify-batch", "ab" * 32, 4, 1.0
        )
        _, forged = sign_batch_root(
            registry, CLOUD, "certify-batch", "cd" * 32, 4, 1.0
        )
        assert not verify_batch_root(registry, statement, forged)

    def test_memo_cannot_be_poisoned_across_signatures(self, registry):
        """The verdict memo is keyed by (statement, signature): a forged
        signature over a value-equal statement must not inherit a genuine
        verdict, and a garbage signature seen first must not poison the
        cache against the genuine one."""

        from dataclasses import replace

        statement, genuine = sign_batch_root(
            registry, CLOUD, "certify-batch", "ab" * 32, 4, 1.0, about=EDGE
        )
        forged = replace(genuine, value=b"\x00" * 32)
        # Genuine first: the forged copy must still be rejected.
        assert verify_batch_root(registry, statement, genuine)
        assert not verify_batch_root(registry, statement, forged)
        # Garbage first on a fresh registry: the genuine one must still pass.
        fresh = KeyRegistry()
        fresh._keys = registry._keys  # same key material, empty memo
        assert not verify_batch_root(fresh, statement, forged)
        assert verify_batch_root(fresh, statement, genuine)

    def test_item_leaf_is_deterministic_and_distinct(self):
        assert batch_item_leaf((1, "ab")) == batch_item_leaf((1, "ab"))
        assert batch_item_leaf((1, "ab")) != batch_item_leaf((2, "ab"))
        assert batch_item_leaf((1, "ab")) != batch_item_leaf((1, "ba"))


# ----------------------------------------------------------------------
# Batch certificates and batch-anchored proofs
# ----------------------------------------------------------------------
class TestBatchedBlockProof:
    def make_certificate(self, registry, blocks):
        tree = build_certify_batch_tree(blocks)
        return issue_batch_certificate(
            registry=registry,
            cloud=CLOUD,
            edge=EDGE,
            batch_root=tree.root,
            num_blocks=len(blocks),
            certified_at=2.0,
        )

    def test_derived_proofs_verify(self, registry):
        blocks = digests(5)
        certificate = self.make_certificate(registry, blocks)
        proofs = derive_batched_proofs(certificate, blocks)
        assert len(proofs) == 5
        for proof, (block_id, digest) in zip(proofs, blocks):
            assert proof.block_id == block_id
            assert proof.block_digest == digest
            assert proof.edge == EDGE
            assert proof.cloud == CLOUD
            assert proof.certified_at == 2.0
            assert proof.verify(registry)
            assert proof.verify_cached(registry)

    def test_single_block_batch_degenerates(self, registry):
        blocks = digests(1)
        certificate = self.make_certificate(registry, blocks)
        (proof,) = derive_batched_proofs(certificate, blocks)
        assert proof.membership.steps == ()
        assert proof.verify(registry)

    def test_wrong_block_list_rejected(self, registry):
        blocks = digests(4)
        certificate = self.make_certificate(registry, blocks)
        with pytest.raises(ProofVerificationError):
            derive_batched_proofs(certificate, blocks[:3])
        reordered = [blocks[1], blocks[0]] + blocks[2:]
        with pytest.raises(ProofVerificationError):
            derive_batched_proofs(certificate, reordered)

    def test_tampered_proof_fields_rejected(self, registry):
        blocks = digests(4)
        certificate = self.make_certificate(registry, blocks)
        proofs = derive_batched_proofs(certificate, blocks)
        # Claiming another digest under the same membership path fails the
        # leaf binding.
        tampered = BatchedBlockProof(
            certificate=certificate,
            block_id=proofs[0].block_id,
            block_digest="f" * 64,
            membership=proofs[0].membership,
        )
        assert not tampered.verify(registry)
        # Reusing block 1's path for block 0's (id, digest) fails too.
        crossed = BatchedBlockProof(
            certificate=certificate,
            block_id=proofs[0].block_id,
            block_digest=proofs[0].block_digest,
            membership=proofs[1].membership,
        )
        assert not crossed.verify(registry)

    def test_certificate_from_unregistered_cloud_rejected(self, registry):
        blocks = digests(2)
        certificate = self.make_certificate(registry, blocks)
        verifier = KeyRegistry()
        verifier.register(CLOUD)  # fresh keys: signature cannot verify
        verifier.register(EDGE)
        proofs = derive_batched_proofs(certificate, blocks)
        assert not proofs[0].verify(verifier)

    def test_certifies_binds_block_content(self, registry):
        entries = [
            make_entry(registry, ALICE, sequence=i, payload=b"x", produced_at=0.0)
            for i in range(3)
        ]
        block = build_block(EDGE, 0, entries, created_at=1.0)
        blocks = [(0, block.digest())]
        certificate = self.make_certificate(registry, blocks)
        (proof,) = derive_batched_proofs(certificate, blocks)
        assert proof.certifies(block)
        other = build_block(EDGE, 0, entries[:2], created_at=1.0)
        assert not proof.certifies(other)

    def test_leaf_binds_id_digest_pair(self):
        assert certify_batch_leaf(1, "ab") == batch_item_leaf((1, "ab"))


# ----------------------------------------------------------------------
# LazyCertifier: dispatch queue, retry chains
# ----------------------------------------------------------------------
class TestCertifierDispatchQueue:
    def test_enqueue_and_drain_in_order(self):
        certifier = LazyCertifier()
        for block_id in range(3):
            certifier.track(block_id, f"{block_id:064x}")
            certifier.enqueue_for_dispatch(block_id)
        assert certifier.pending_dispatch_count == 3
        drained = certifier.drain_dispatch_queue()
        assert [task.block_id for task in drained] == [0, 1, 2]
        assert certifier.pending_dispatch_count == 0
        assert certifier.drain_dispatch_queue() == ()

    def test_enqueue_untracked_rejected(self):
        certifier = LazyCertifier()
        with pytest.raises(ProtocolError):
            certifier.enqueue_for_dispatch(0)

    def test_enqueue_is_idempotent(self):
        certifier = LazyCertifier()
        certifier.track(0, "a" * 64)
        assert certifier.enqueue_for_dispatch(0) == 1
        assert certifier.enqueue_for_dispatch(0) == 1

    def test_drain_respects_max_items(self):
        certifier = LazyCertifier()
        for block_id in range(4):
            certifier.track(block_id, f"{block_id:064x}")
            certifier.enqueue_for_dispatch(block_id)
        first = certifier.drain_dispatch_queue(max_items=3)
        assert [task.block_id for task in first] == [0, 1, 2]
        assert certifier.pending_dispatch_count == 1

    def test_drain_skips_already_certified(self, registry):
        certifier = LazyCertifier()
        for block_id in range(2):
            certifier.track(block_id, f"{block_id:064x}")
            certifier.enqueue_for_dispatch(block_id)
        proof = issue_block_proof(registry, CLOUD, EDGE, 0, f"{0:064x}", 2.0)
        certifier.complete(proof)
        drained = certifier.drain_dispatch_queue()
        assert [task.block_id for task in drained] == [1]


class _Chain:
    """Stands in for a :class:`~repro.faults.retry.Retransmission`."""

    cancelled = False

    def cancel(self):
        self.cancelled = True


class TestCertifierRetryChains:
    """A record's retry chain ends exactly when the record retires."""

    def test_certificate_ends_the_single_block_chain(self, registry):
        certifier = LazyCertifier()
        task = certifier.track(0, "a" * 64)
        task.retry = chain = _Chain()
        certifier.complete(issue_block_proof(registry, CLOUD, EDGE, 0, "a" * 64, 2.0))
        assert chain.cancelled and task.retry is None

    def test_refusal_ends_the_single_block_chain(self):
        certifier = LazyCertifier()
        task = certifier.track(0, "a" * 64)
        task.retry = chain = _Chain()
        certifier.abandon_in_flight(0)
        assert chain.cancelled and task.retry is None

    def test_batch_chain_ends_with_its_last_member(self, registry):
        certifier = LazyCertifier()
        for block_id in range(2):
            certifier.track(block_id, f"{block_id:064x}")
        batch = certifier.begin_batch([0, 1])
        batch.retry = chain = _Chain()
        certifier.complete(issue_block_proof(registry, CLOUD, EDGE, 0, f"{0:064x}", 2.0))
        assert not chain.cancelled
        assert [task.block_id for task in certifier.awaiting(batch)] == [1]
        certifier.abandon_in_flight(1)
        assert chain.cancelled and certifier.in_flight_count == 0

    def test_crash_ends_every_chain(self):
        certifier = LazyCertifier()
        for block_id in range(3):
            certifier.track(block_id, f"{block_id:064x}")
        batch = certifier.begin_batch([0, 1])
        batch.retry = batch_chain = _Chain()
        certifier.task(2).retry = task_chain = _Chain()
        assert certifier.reset_window() == (0, 1)
        assert batch_chain.cancelled and task_chain.cancelled
        assert certifier.task(2).retry is None


# ----------------------------------------------------------------------
# Cloud batch handling (driven through a probe edge endpoint)
# ----------------------------------------------------------------------
def batch_config(batch_size=4, pipeline_depth=1):
    return SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(
            block_size=4,
            block_timeout_s=0.02,
            certify_batch_size=batch_size,
            certify_flush_timeout_s=0.02,
            certify_pipeline_depth=pipeline_depth,
        ),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
    )


class _ProbeEdge:
    """A fake edge endpoint used to talk to the cloud node directly."""

    def __init__(self, env, name="edge-0"):
        from repro.common.regions import Region

        self.node_id = edge_id(name)
        self.region = Region.CALIFORNIA
        self.received = []
        self.env = env
        env.attach(self)

    def on_message(self, sender, message):
        self.received.append(message)

    def item(self, block_id, digest, edge=None):
        return CertifyStatement(
            edge=edge if edge is not None else self.node_id,
            block_id=block_id,
            block_digest=digest,
            num_entries=4,
        )

    def batch_request(self, items, signer=None):
        statement = CertifyBatchStatement(edge=self.node_id, items=tuple(items))
        signature = self.env.registry.sign(
            signer if signer is not None else self.node_id, statement
        )
        return CertifyBatchRequest(statement=statement, signature=signature)


@pytest.fixture
def cloud_env():
    env = local_environment(seed=11)
    cloud = CloudNode(env=env, config=batch_config())
    return env, cloud


class TestCloudBatchCertification:
    def test_batch_certifies_every_block_under_one_certificate(self, cloud_env):
        env, cloud = cloud_env
        probe = _ProbeEdge(env)
        items = [probe.item(i, f"{i:064x}") for i in range(4)]
        env.send(probe.node_id, cloud.node_id, probe.batch_request(items))
        env.run()

        assert cloud.stats["certifications"] == 4
        assert cloud.stats["certify_batches"] == 1
        (message,) = probe.received
        assert isinstance(message, BatchCertificateMessage)
        assert message.blocks == tuple((i, f"{i:064x}") for i in range(4))
        assert message.certificate.verify(env.registry)
        # The cloud keeps per-block proofs for the dispute path.
        for block_id in range(4):
            proof = cloud.proof_for(probe.node_id, block_id)
            assert proof is not None and proof.verify(env.registry)

    def test_duplicate_items_are_idempotent(self, cloud_env):
        env, cloud = cloud_env
        probe = _ProbeEdge(env)
        items = [probe.item(0, "a" * 64), probe.item(0, "a" * 64)]
        env.send(probe.node_id, cloud.node_id, probe.batch_request(items))
        env.run()
        assert cloud.stats["certifications"] == 1
        (message,) = probe.received
        # Both occurrences are answered (second one as an idempotent retry).
        assert message.blocks == ((0, "a" * 64), (0, "a" * 64))
        assert cloud.stats["punishments"] == 0

    def test_out_of_order_block_ids_accepted(self, cloud_env):
        env, cloud = cloud_env
        probe = _ProbeEdge(env)
        items = [probe.item(i, f"{i:064x}") for i in (3, 0, 2, 1)]
        env.send(probe.node_id, cloud.node_id, probe.batch_request(items))
        env.run()
        assert cloud.stats["certifications"] == 4
        (message,) = probe.received
        assert message.blocks == tuple((i, f"{i:064x}") for i in (3, 0, 2, 1))
        assert derive_batched_proofs(message.certificate, message.blocks)

    def test_conflicting_item_rejected_rest_of_batch_survives(self, cloud_env):
        env, cloud = cloud_env
        probe = _ProbeEdge(env)
        env.send(
            probe.node_id,
            cloud.node_id,
            probe.batch_request([probe.item(0, "a" * 64)]),
        )
        env.run()
        probe.received.clear()

        items = [probe.item(0, "b" * 64), probe.item(1, "c" * 64)]
        env.send(probe.node_id, cloud.node_id, probe.batch_request(items))
        env.run()

        assert cloud.stats["certify_conflicts"] == 1
        assert cloud.stats["punishments"] == 1
        rejections = [m for m in probe.received if isinstance(m, CertifyRejection)]
        certificates = [
            m for m in probe.received if isinstance(m, BatchCertificateMessage)
        ]
        assert len(rejections) == 1 and rejections[0].block_id == 0
        assert rejections[0].existing_digest == "a" * 64
        (certificate_message,) = certificates
        assert certificate_message.blocks == ((1, "c" * 64),)
        # The certified digest for block 0 is unchanged.
        assert cloud.certified_digest(probe.node_id, 0) == "a" * 64

    def test_item_for_another_edge_dropped(self, cloud_env):
        env, cloud = cloud_env
        probe = _ProbeEdge(env)
        other = edge_id("edge-other")
        env.registry.register(other)
        items = [probe.item(0, "a" * 64), probe.item(1, "b" * 64, edge=other)]
        env.send(probe.node_id, cloud.node_id, probe.batch_request(items))
        env.run()
        (message,) = probe.received
        assert message.blocks == ((0, "a" * 64),)
        assert cloud.certified_digest(other, 1) is None

    def test_misattributed_batch_dropped(self, cloud_env):
        env, cloud = cloud_env
        probe = _ProbeEdge(env)
        mallory = _ProbeEdge(env, name="edge-mallory")
        # Mallory signs a batch naming probe as the edge.
        statement = CertifyBatchStatement(
            edge=probe.node_id, items=(probe.item(0, "a" * 64),)
        )
        request = CertifyBatchRequest(
            statement=statement,
            signature=env.registry.sign(mallory.node_id, statement),
        )
        env.send(mallory.node_id, cloud.node_id, request)
        env.run()
        assert cloud.stats["certifications"] == 0
        assert probe.received == [] and mallory.received == []


# ----------------------------------------------------------------------
# Edge handling of batch certificates (including a malicious cloud)
# ----------------------------------------------------------------------
def make_edge_with_blocks(num_blocks, batch_size=8, pipeline_depth=1):
    """An edge with ``num_blocks`` formed blocks queued for batch dispatch."""

    env = local_environment(seed=13)
    config = batch_config(batch_size, pipeline_depth)
    cloud = CloudNode(env=env, config=config)
    edge = EdgeNode(env=env, cloud=cloud.node_id, config=config)
    env.registry.register(ALICE)
    for index in range(num_blocks):
        entries = [
            make_entry(
                env.registry,
                ALICE,
                sequence=index * 4 + offset,
                payload=b"payload-%d" % (index * 4 + offset),
                produced_at=0.0,
            )
            for offset in range(4)
        ]
        block = build_block(edge.node_id, index, entries, created_at=0.0)
        edge.log.append(block)
        edge.certifier.track(index, block.digest())
    return env, cloud, edge


class TestEdgeBatchCertificateHandling:
    def certificate_for(self, env, edge, blocks, cloud_node):
        tree = build_certify_batch_tree(blocks)
        return issue_batch_certificate(
            registry=env.registry,
            cloud=cloud_node.node_id,
            edge=edge.node_id,
            batch_root=tree.root,
            num_blocks=len(blocks),
            certified_at=1.0,
        )

    def test_accepts_matching_certificate(self):
        env, cloud, edge = make_edge_with_blocks(3)
        blocks = tuple(
            (i, edge.certifier.task(i).block_digest) for i in range(3)
        )
        certificate = self.certificate_for(env, edge, blocks, cloud)
        edge.on_message(
            cloud.node_id,
            BatchCertificateMessage(certificate=certificate, blocks=blocks),
        )
        assert edge.stats["proofs_received"] == 3
        assert edge.stats["batch_cert_mismatches"] == 0
        for block_id in range(3):
            proof = edge.log.proof_for(block_id)
            assert proof is not None and proof.verify(env.registry)

    def test_digest_mismatch_rejected_item_by_item(self):
        env, cloud, edge = make_edge_with_blocks(3)
        # The "cloud" certifies a digest the edge never sent for block 1.
        blocks = (
            (0, edge.certifier.task(0).block_digest),
            (1, "f" * 64),
            (2, edge.certifier.task(2).block_digest),
        )
        certificate = self.certificate_for(env, edge, blocks, cloud)
        edge.on_message(
            cloud.node_id,
            BatchCertificateMessage(certificate=certificate, blocks=blocks),
        )
        assert edge.stats["proofs_received"] == 2
        assert edge.stats["batch_cert_mismatches"] == 1
        assert edge.log.proof_for(0) is not None
        assert edge.log.proof_for(1) is None
        assert edge.log.proof_for(2) is not None

    def test_root_mismatch_rejects_whole_message(self):
        env, cloud, edge = make_edge_with_blocks(2)
        blocks = tuple((i, edge.certifier.task(i).block_digest) for i in range(2))
        certificate = self.certificate_for(env, edge, blocks, cloud)
        # The item list shipped alongside does not match the signed root.
        tampered = (blocks[0], (1, "e" * 64))
        edge.on_message(
            cloud.node_id,
            BatchCertificateMessage(certificate=certificate, blocks=tampered),
        )
        assert edge.stats["proofs_received"] == 0
        assert edge.stats["batch_cert_mismatches"] == 1
        assert edge.log.proof_for(0) is None

    def test_self_issued_certificate_from_non_cloud_rejected(self):
        """A malicious edge (or any registered non-cloud node) signing a
        batch root naming itself as the issuer is not Phase II evidence:
        receivers pin the issuer to their actual cloud node."""

        env, cloud, edge = make_edge_with_blocks(2)
        impostor = edge_id("edge-impostor")
        env.registry.register(impostor)
        blocks = tuple((i, edge.certifier.task(i).block_digest) for i in range(2))
        tree = build_certify_batch_tree(blocks)
        certificate = issue_batch_certificate(
            registry=env.registry,
            cloud=impostor,  # self-consistent signature, wrong issuer
            edge=edge.node_id,
            batch_root=tree.root,
            num_blocks=2,
            certified_at=1.0,
        )
        assert certificate.verify(env.registry)  # signature itself is fine
        edge.on_message(
            impostor,
            BatchCertificateMessage(certificate=certificate, blocks=blocks),
        )
        assert edge.stats["proofs_received"] == 0
        assert edge.log.proof_for(0) is None

    def test_certificate_for_other_edge_ignored(self):
        env, cloud, edge = make_edge_with_blocks(1)
        other = edge_id("edge-other")
        env.registry.register(other)
        blocks = ((0, edge.certifier.task(0).block_digest),)
        tree = build_certify_batch_tree(blocks)
        certificate = issue_batch_certificate(
            registry=env.registry,
            cloud=cloud.node_id,
            edge=other,
            batch_root=tree.root,
            num_blocks=1,
            certified_at=1.0,
        )
        edge.on_message(
            cloud.node_id,
            BatchCertificateMessage(certificate=certificate, blocks=blocks),
        )
        assert edge.stats["proofs_received"] == 0


# ----------------------------------------------------------------------
# Edge retransmission of certify requests
# ----------------------------------------------------------------------
def lose_first(env, message_type):
    """Lose the first *message_type* the network is asked to carry."""

    lost = []

    def hook(src, dst, message):
        if isinstance(message, message_type) and not lost:
            lost.append(message)
            return False
        return True

    env.network.add_send_hook("test:lose-first", hook)
    return lost


class TestEdgeRetry:
    """Every certify request that leaves the edge arms its own chain: the
    first retry at ``dispute_timeout_s / 2``, ended by the certificate."""

    def test_retry_resends_and_completes(self):
        env, cloud, edge = make_edge_with_blocks(1, batch_size=1)
        lost = lose_first(env, BlockCertifyRequest)
        block = edge.log.block(0)
        edge._send_certify_request(edge._default_partition, block)
        env.run()
        assert len(lost) == 1
        assert edge.stats["certify_retries"] == 1
        assert edge.certifier.certified_count == 1
        assert edge.log.proof_for(0) is not None
        first_retry = edge.config.security.dispute_timeout_s / 2
        assert first_retry < env.now() < first_retry + 0.5

    def test_retry_skips_recent_and_certified(self):
        env, cloud, edge = make_edge_with_blocks(1, batch_size=1)
        block = edge.log.block(0)
        edge._send_certify_request(edge._default_partition, block)
        env.run()
        # Answered before the first retry step: the certificate ended the
        # chain, so the queue drained without a re-send.
        assert edge.certifier.certified_count == 1
        assert edge.stats["certify_retries"] == 0
        assert env.now() < edge.config.security.dispute_timeout_s / 2

    def test_retry_skips_blocks_still_queued_for_dispatch(self):
        """A digest waiting for its batch to ship was never requested, so
        it has no chain; neither has a tracked block nobody asked for."""

        env, cloud, edge = make_edge_with_blocks(2, batch_size=8)
        edge.certifier.enqueue_for_dispatch(0)
        env.run()
        assert edge.certifier.pending_dispatch_count == 1
        assert edge.stats["certify_requests"] == 0
        block = edge.log.block(0)
        edge._send_certify_request(edge._default_partition, block)  # arms the flush
        env.run()
        assert edge.stats["certify_requests"] == 1
        assert edge.stats["certify_retries"] == 0
        assert edge.log.proof_for(0) is not None
        assert edge.log.proof_for(1) is None

    def test_retry_batches_are_idempotent_for_certified_blocks(self):
        """A batch retry that races the original answer is absorbed by the
        cloud's idempotent batch handling (re-certified, not punished)."""

        env, cloud, edge = make_edge_with_blocks(3, batch_size=3)
        for block_id in range(3):
            edge.certifier.enqueue_for_dispatch(block_id)
        edge._pump_certify_pipeline(edge._default_partition)
        (batch,) = edge.certifier.in_flight_batches()
        # The retry fires while the original answer is still on the wire.
        assert edge._resend_batch(edge._default_partition, batch)
        env.run()
        assert edge.certifier.certified_count == 3
        assert edge.stats["certify_retries"] == 3
        assert cloud.stats["certify_conflicts"] == 0
        assert cloud.ledger.is_punished(edge.node_id) is False


# ----------------------------------------------------------------------
# End-to-end: batched protocol behaves like the per-block protocol
# ----------------------------------------------------------------------
class TestEndToEndBatching:
    def run_workload(self, batch_size, num_puts=12):
        config = batch_config(batch_size)
        system = WedgeChainSystem.build(config=config, num_clients=1, seed=21)
        client = system.client(0)
        operations = []
        for index in range(num_puts):
            items = [(f"key-{index}-{j}", b"v%d" % j) for j in range(4)]
            operations.append((client, client.put_batch(items)))
        assert system.wait_for_all(operations, CommitPhase.PHASE_TWO)
        system.run_for(1.0)
        return system, client, operations

    def test_batched_run_reaches_same_final_state(self):
        unbatched_system, _, _ = self.run_workload(batch_size=1)
        batched_system, _, _ = self.run_workload(batch_size=4)

        unbatched_edge = unbatched_system.edge()
        batched_edge = batched_system.edge()
        # Same logical blocks (batching shifts simulated timestamps, so
        # compare the logged entries, not the timestamped digests), and all
        # of them certified, in both runs.
        assert len(unbatched_edge.log) == len(batched_edge.log)
        for record_a, record_b in zip(unbatched_edge.log, batched_edge.log):
            entries_a = [(e.producer, e.sequence, e.payload) for e in record_a.block.entries]
            entries_b = [(e.producer, e.sequence, e.payload) for e in record_b.block.entries]
            assert entries_a == entries_b
            assert record_a.proof is not None and record_b.proof is not None
        assert (
            unbatched_system.cloud.certified_log_size(unbatched_edge.node_id)
            == batched_system.cloud.certified_log_size(batched_edge.node_id)
        )
        # The batched run needed far fewer certify messages.
        assert (
            batched_edge.stats["certify_requests"]
            < unbatched_edge.stats["certify_requests"]
        )
        assert batched_edge.stats["certify_batches"] > 0
        assert unbatched_edge.stats["certify_batches"] == 0

    def test_batch_size_one_preserves_per_block_wire_format(self):
        config = batch_config(batch_size=1)
        env = local_environment(seed=31)
        cloud = CloudNode(env=env, config=config)

        sent = []
        original_send = env.send

        def recording_send(src, dst, message):
            sent.append(message)
            return original_send(src, dst, message)

        env.send = recording_send
        edge = EdgeNode(env=env, cloud=cloud.node_id, config=config)

        class _ProbeClient:
            node_id = ALICE
            region = edge.region

            def on_message(self, sender, message):
                pass

        env.attach(_ProbeClient())
        from repro.messages.log_messages import AppendBatchRequest
        from repro.common.identifiers import OperationId, OperationKind

        entries = tuple(
            make_entry(env.registry, ALICE, sequence=i, payload=b"x", produced_at=0.0)
            for i in range(4)
        )
        request = AppendBatchRequest(
            requester=ALICE,
            operation_id=OperationId(client=ALICE, sequence=0),
            kind=OperationKind.ADD,
            entries=entries,
        )
        edge.on_message(ALICE, request)
        env.run()
        certify_messages = [
            m for m in sent if isinstance(m, (BlockCertifyRequest, CertifyBatchRequest))
        ]
        assert len(certify_messages) == 1
        assert isinstance(certify_messages[0], BlockCertifyRequest)

    def test_size_flush_cancels_stale_timer(self):
        """A size-triggered flush cancels the pending timeout timer: the
        next digest to arrive gets a fresh full window instead of being
        shipped early (and undersized) by the previous queue's deadline.

        Pipeline depth 2 gives the second (partial) batch a free window
        slot: this test is about timer freshness, not window flow control —
        the certify round trip in this environment (~61 ms WAN) outlasts
        both timer deadlines, so at depth 1 the partial batch would
        correctly park behind the first batch instead of shipping on time.
        """

        env, cloud, edge = make_edge_with_blocks(4, batch_size=3, pipeline_depth=2)
        blocks = [edge.log.block(i) for i in range(4)]
        start = env.now()
        timeout = edge.config.logging.certify_flush_timeout_s

        # Blocks 0-1 arm the timer; block 2 fills the batch and flushes.
        for block in blocks[:3]:
            edge._send_certify_request(edge._default_partition, block)
        assert edge.stats["certify_batches"] == 1
        assert edge._default_partition.certify_flush_timer is None

        # Block 3 arrives late in what would have been the stale window.
        env.scheduler.run_until(start + timeout * 0.8)
        edge._send_certify_request(edge._default_partition, blocks[3])
        # Past the stale deadline: the old timer must not have fired.
        env.scheduler.run_until(start + timeout * 1.2)
        assert edge.stats["certify_batches"] == 1
        assert edge.certifier.pending_dispatch_count == 1
        # The fresh window expires: now the partial batch ships.
        env.scheduler.run_until(start + timeout * 2.1)
        assert edge.stats["certify_batches"] == 2

    def test_partial_batch_flushed_by_timeout(self):
        config = batch_config(batch_size=10)  # never fills from 3 blocks
        system = WedgeChainSystem.build(config=config, num_clients=1, seed=23)
        client = system.client(0)
        operations = [
            (client, client.put_batch([(f"k{i}-{j}", b"v") for j in range(4)]))
            for i in range(3)
        ]
        assert system.wait_for_all(operations, CommitPhase.PHASE_TWO, max_time_s=30.0)
        edge = system.edge()
        assert edge.stats["certify_batches"] >= 1
        assert edge.certifier.certified_count == edge.stats["blocks_formed"]

    def test_batched_reads_get_batch_anchored_proofs(self):
        config = batch_config(batch_size=4)
        system = WedgeChainSystem.build(config=config, num_clients=1, seed=25)
        client = system.client(0)
        operations = [
            (client, client.add_batch([b"e%d%d" % (i, j) for j in range(4)]))
            for i in range(4)
        ]
        assert system.wait_for_all(operations, CommitPhase.PHASE_TWO)
        read_op = client.read(0)
        system.wait_for(client, read_op, CommitPhase.PHASE_TWO)
        record = client.operation(read_op)
        assert record.phase is CommitPhase.PHASE_TWO
