"""Unit tests for LSMerkle read proofs (their freshness window included) and
the cloud merge mirror."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common import (
    MergeProtocolError,
    ProofVerificationError,
)
from repro.common.config import LSMerkleConfig
from repro.common.identifiers import client_id, cloud_id, edge_id
from repro.log.block import build_block
from repro.log.entry import make_entry
from repro.log.proofs import CommitPhase, issue_block_proof
from repro.lsmerkle.codec import encode_put, page_from_block
from repro.lsmerkle.merge import CloudIndexMirror, MergeProposal
from repro.lsmerkle.mlsm import MerkleizedLSM
from repro.lsmerkle.read_proof import build_get_proof, verify_get_proof

ALICE = client_id("alice")
EDGE = edge_id("edge-0")
CLOUD = cloud_id()
CONFIG = LSMerkleConfig(level_thresholds=(2, 2, 4))


def put_block(registry, block_id: int, items):
    entries = [
        make_entry(registry, ALICE, index, encode_put(key, value), 1.0)
        for index, (key, value) in enumerate(items)
    ]
    return build_block(EDGE, block_id, entries, created_at=float(block_id))


class _Fixture:
    """A small certified LSMerkle state shared by the proof tests."""

    def __init__(self, registry):
        self.registry = registry
        self.index = MerkleizedLSM(config=CONFIG, page_capacity=2)
        self.mirror = CloudIndexMirror(edge=EDGE, config=CONFIG, page_capacity=2)
        self.certified: dict[int, str] = {}
        self.blocks = {}
        self.proofs = {}
        self.signed_root = None

    def ingest_block(self, block_id, items, certify=True):
        block = put_block(self.registry, block_id, items)
        self.blocks[block_id] = block
        page = page_from_block(block)
        self.index.add_level_zero_page(page)
        if certify:
            digest = block.digest()
            self.certified[block_id] = digest
            self.proofs[block_id] = issue_block_proof(
                self.registry, CLOUD, EDGE, block_id, digest, certified_at=float(block_id)
            )
        return block

    def merge_level_zero(self, now=10.0):
        proposal = MergeProposal(
            edge=EDGE,
            level_index=0,
            source_blocks=tuple(
                self.blocks[block_id] for block_id in sorted(self.certified)
            ),
            target_pages=tuple(self.index.tree.levels[1].pages),
        )
        outcome = self.mirror.execute_merge(
            proposal, self.certified, self.registry, CLOUD, now=now
        )
        self.index.install_merge(0, outcome.merged_pages, remaining_source_pages=[])
        self.signed_root = outcome.signed_root
        return outcome

    def level_zero_evidence(self):
        return [
            (self.blocks[block_id], self.proofs.get(block_id))
            for block_id in sorted(self.blocks)
            if any(
                page.source_block_id == block_id
                for page in self.index.tree.levels[0].pages
            )
        ]

    def get_proof(self, key):
        result = self.index.get(key)
        return build_get_proof(
            key=key,
            index=self.index,
            level_zero_blocks=self.level_zero_evidence(),
            signed_root=self.signed_root,
            found_level=result.level_index,
        ), result


class TestGetProofVerification:
    def test_key_found_in_level_zero(self, registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1"), ("beta", b"2")])
        proof, result = fx.get_proof("alpha")
        verified = verify_get_proof(registry, CLOUD, EDGE, "alpha", proof)
        assert verified.found and verified.record.value == b"1"
        assert verified.phase is CommitPhase.PHASE_TWO

    def test_uncertified_level_zero_is_phase_one(self, registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1")], certify=False)
        proof, _ = fx.get_proof("alpha")
        verified = verify_get_proof(registry, CLOUD, EDGE, "alpha", proof)
        assert verified.phase is CommitPhase.PHASE_ONE
        assert verified.uncertified_block_ids == (0,)

    def test_key_found_in_merged_level(self, registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1"), ("beta", b"2")])
        fx.ingest_block(1, [("gamma", b"3"), ("delta", b"4")])
        fx.merge_level_zero()
        proof, result = fx.get_proof("gamma")
        assert result.level_index == 1
        verified = verify_get_proof(registry, CLOUD, EDGE, "gamma", proof)
        assert verified.found and verified.record.value == b"3"
        assert verified.phase is CommitPhase.PHASE_TWO

    def test_missing_key_requires_full_coverage(self, registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1"), ("beta", b"2")])
        fx.merge_level_zero()
        proof, result = fx.get_proof("nothing-here")
        verified = verify_get_proof(registry, CLOUD, EDGE, "nothing-here", proof)
        assert not verified.found

    def test_wrong_key_in_proof_rejected(self, registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1")])
        proof, _ = fx.get_proof("alpha")
        with pytest.raises(ProofVerificationError):
            verify_get_proof(registry, CLOUD, EDGE, "beta", proof)

    def test_omitted_level_evidence_detected(self, registry):
        """An edge hiding the level that holds the key is caught by coverage."""

        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1"), ("beta", b"2")])
        fx.merge_level_zero()
        proof, _ = fx.get_proof("alpha")
        stripped = replace(proof, level_pages=())
        with pytest.raises(ProofVerificationError):
            verify_get_proof(registry, CLOUD, EDGE, "alpha", stripped)

    def test_tampered_level_page_detected(self, registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1"), ("beta", b"2")])
        fx.merge_level_zero()
        proof, _ = fx.get_proof("alpha")
        evidence = proof.level_pages[0]
        tampered_page = page_from_block(put_block(registry, 9, [("alpha", b"evil")]))
        tampered_evidence = replace(evidence, page=tampered_page)
        tampered = replace(proof, level_pages=(tampered_evidence,))
        with pytest.raises(ProofVerificationError):
            verify_get_proof(registry, CLOUD, EDGE, "alpha", tampered)

    def test_foreign_block_in_level_zero_rejected(self, registry):
        from repro.lsmerkle.read_proof import LevelZeroEvidence

        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1")])
        proof, _ = fx.get_proof("alpha")
        foreign_entries = [
            make_entry(registry, ALICE, 0, encode_put("alpha", b"fake"), 1.0)
        ]
        foreign_block = build_block(edge_id("edge-1"), 0, foreign_entries, 0.0)
        tampered = replace(
            proof, level_zero=(LevelZeroEvidence(block=foreign_block, proof=None),)
        )
        with pytest.raises(ProofVerificationError):
            verify_get_proof(registry, CLOUD, EDGE, "alpha", tampered)

    def test_freshness_window_enforced(self, registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1"), ("beta", b"2")])
        fx.merge_level_zero(now=10.0)
        proof, _ = fx.get_proof("alpha")
        # Fresh enough:
        verify_get_proof(
            registry, CLOUD, EDGE, "alpha", proof, now=12.0, freshness_window_s=5.0
        )
        # Too old:
        with pytest.raises(ProofVerificationError):
            verify_get_proof(
                registry, CLOUD, EDGE, "alpha", proof, now=100.0, freshness_window_s=5.0
            )

    # One forged GetProof per verifier guard, each refused.  Every forgery
    # starts from a genuine proof over the ``_Fixture`` state and changes
    # one field with ``dataclasses.replace``.
    @staticmethod
    def _refused(registry, proof, key="alpha", **kwargs):
        with pytest.raises(ProofVerificationError):
            verify_get_proof(registry, CLOUD, EDGE, key, proof, **kwargs)

    @staticmethod
    def _level_zero_proof(registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1"), ("beta", b"2")])
        proof, _ = fx.get_proof("alpha")
        return fx, proof

    @staticmethod
    def _merged_proof(registry, key="alpha"):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1"), ("beta", b"2")])
        fx.ingest_block(1, [("gamma", b"3"), ("delta", b"4")])
        fx.merge_level_zero()
        proof, _ = fx.get_proof(key)
        return fx, proof

    def _with_block_proof(self, proof, block_proof, block=None):
        (evidence,) = proof.level_zero
        forged = replace(
            evidence,
            proof=block_proof,
            block=evidence.block if block is None else block,
        )
        return replace(proof, level_zero=(forged,))

    def test_genuine_block_proof_over_a_different_block(self, registry):
        fx, proof = self._level_zero_proof(registry)
        # The edge equivocates on block 0 and presents the certified proof
        # of the honest block over its other version.
        other = put_block(registry, 0, [("alpha", b"evil"), ("beta", b"2")])
        self._refused(registry, self._with_block_proof(proof, fx.proofs[0], other))

    @pytest.mark.parametrize("named", ["edge", "block_id"])
    def test_block_proof_naming_another_edge_or_block(self, registry, named):
        fx, proof = self._level_zero_proof(registry)
        block = fx.blocks[0]
        edge, block_id = EDGE, 0
        if named == "edge":
            edge = edge_id("edge-1")
        else:
            block_id = 7
        misnamed = issue_block_proof(
            registry, CLOUD, edge, block_id, block.digest(), certified_at=0.0
        )
        self._refused(registry, self._with_block_proof(proof, misnamed))

    def test_block_proof_certified_by_the_edge_itself(self, registry):
        fx, proof = self._level_zero_proof(registry)
        self_certified = issue_block_proof(
            registry, EDGE, EDGE, 0, fx.blocks[0].digest(), certified_at=0.0
        )
        self._refused(registry, self._with_block_proof(proof, self_certified))

    def test_block_proof_signed_by_the_edge_key(self, registry):
        fx, proof = self._level_zero_proof(registry)
        genuine = fx.proofs[0]
        forged = replace(
            genuine, signature=registry.sign(EDGE, genuine.statement)
        )
        self._refused(registry, self._with_block_proof(proof, forged))

    def test_signed_root_with_bad_signature(self, registry):
        _, proof = self._merged_proof(registry)
        root = proof.signed_root
        forged = replace(root, signature=registry.sign(EDGE, root.statement))
        self._refused(registry, replace(proof, signed_root=forged))

    def test_level_evidence_without_a_root(self, registry):
        _, proof = self._merged_proof(registry)
        assert proof.level_pages
        self._refused(registry, replace(proof, signed_root=None))

    def test_level_index_outside_the_root(self, registry):
        _, proof = self._merged_proof(registry)
        evidence = proof.level_pages[0]
        beyond = len(proof.signed_root.statement.level_roots) + 1
        forged = replace(evidence, level_index=beyond)
        self._refused(registry, replace(proof, level_pages=(forged,)))

    def test_inclusion_path_for_a_substituted_page(self, registry):
        _, proof = self._merged_proof(registry)
        evidence = proof.level_pages[0]
        page = page_from_block(put_block(registry, 9, [("alpha", b"evil")]))
        # The leaf names the substituted page, so only the path back to the
        # signed level root can expose it.
        inclusion = replace(evidence.inclusion, leaf_digest=page.digest())
        forged = replace(evidence, page=page, inclusion=inclusion)
        self._refused(registry, replace(proof, level_pages=(forged,)))

    def test_page_that_cannot_hold_the_key(self, registry):
        fx, proof = self._merged_proof(registry)
        (evidence,) = proof.level_pages
        other = next(
            page
            for page in fx.index.tree.levels[1].pages
            if not page.could_contain("alpha")
        )
        forged = replace(
            evidence, page=other, inclusion=fx.index.prove_page(1, other)
        )
        self._refused(registry, replace(proof, level_pages=(forged,)))

    @pytest.mark.parametrize(
        "payload",
        [
            encode_put("alpha", b"1")[:8],  # the key length field cut short
            encode_put("", b"")[:6] + (50).to_bytes(4, "big") + b"short",
            encode_put("", b"")[:6] + (1).to_bytes(4, "big") + b"\xff",  # not UTF-8
        ],
    )
    def test_a_malformed_put_in_level_zero(self, registry, payload):
        _, proof = self._level_zero_proof(registry)
        (evidence,) = proof.level_zero
        entry = make_entry(registry, ALICE, 9, payload, 1.0)
        block = build_block(EDGE, evidence.block_id, (*evidence.block.entries, entry), 0.0)
        self._refused(registry, replace(proof, level_zero=(replace(evidence, block=block, proof=None),)))

    def test_freshness_window_without_a_root(self, registry):
        _, proof = self._level_zero_proof(registry)
        assert proof.signed_root is None
        self._refused(registry, proof, now=1.0, freshness_window_s=5.0)

    def test_freshness_window_without_the_current_time(self, registry):
        _, proof = self._merged_proof(registry)
        self._refused(registry, proof, now=None, freshness_window_s=5.0)


class TestCloudIndexMirror:
    def test_rejects_uncertified_source_block(self, registry):
        fx = _Fixture(registry)
        block = fx.ingest_block(0, [("alpha", b"1")], certify=False)
        proposal = MergeProposal(edge=EDGE, level_index=0, source_blocks=(block,))
        with pytest.raises(MergeProtocolError):
            fx.mirror.execute_merge(proposal, fx.certified, registry, CLOUD, now=1.0)

    def test_rejects_tampered_source_block(self, registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1")])
        tampered = put_block(registry, 0, [("alpha", b"evil")])
        proposal = MergeProposal(edge=EDGE, level_index=0, source_blocks=(tampered,))
        with pytest.raises(MergeProtocolError):
            fx.mirror.execute_merge(proposal, fx.certified, registry, CLOUD, now=1.0)

    def test_rejects_replayed_merge(self, registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1"), ("beta", b"2")])
        fx.merge_level_zero()
        proposal = MergeProposal(
            edge=EDGE,
            level_index=0,
            source_blocks=(fx.blocks[0],),
            target_pages=tuple(fx.index.tree.levels[1].pages),
        )
        with pytest.raises(MergeProtocolError):
            fx.mirror.execute_merge(proposal, fx.certified, registry, CLOUD, now=2.0)

    def test_rejects_target_pages_not_matching_mirror(self, registry):
        fx = _Fixture(registry)
        block = fx.ingest_block(0, [("alpha", b"1")])
        bogus_target = page_from_block(put_block(registry, 7, [("zzz", b"9")]))
        proposal = MergeProposal(
            edge=EDGE, level_index=0, source_blocks=(block,), target_pages=(bogus_target,)
        )
        with pytest.raises(MergeProtocolError):
            fx.mirror.execute_merge(proposal, fx.certified, registry, CLOUD, now=1.0)

    def test_rejects_out_of_range_level(self, registry):
        fx = _Fixture(registry)
        proposal = MergeProposal(edge=EDGE, level_index=5)
        with pytest.raises(MergeProtocolError):
            fx.mirror.execute_merge(proposal, fx.certified, registry, CLOUD, now=1.0)

    def test_successful_merge_updates_version_and_roots(self, registry):
        fx = _Fixture(registry)
        fx.ingest_block(0, [("alpha", b"1"), ("beta", b"2")])
        outcome = fx.merge_level_zero()
        assert outcome.signed_root.statement.version == 1
        assert fx.mirror.version == 1
        assert outcome.records_out == 2
        second = fx.mirror.sign_current_root(registry, CLOUD, now=20.0)
        assert second.statement.version == 2
        assert second.statement.timestamp == 20.0

