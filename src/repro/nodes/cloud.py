"""The trusted cloud node.

The cloud node never sits in the execution path of client requests.  Its
jobs are (Section III & IV):

* certify block digests (at most one digest per ``(edge, block id)``) —
  flagging edge nodes that try to certify two different digests;
* execute and certify LSMerkle merges, signing the new per-level Merkle
  roots and global root;
* judge disputes raised by clients and punish proven misbehaviour;
* periodically gossip the certified log size of each edge so clients can
  detect omission attacks.

``CloudNode.HANDLERS`` is the class-level
:class:`~repro.nodes.dispatch.DispatchTable` of those four exchanges and the
inherited ``on_message`` is the only dispatcher.  The shard-map authority of
a sharded fleet (handoff countersigning, leases, failover, shard and 2PC
disputes) is :class:`repro.sharding.cloud.ShardedCloudNode`, which extends
the table with its own rows; this module knows nothing of it beyond one
hook, :meth:`CloudNode._owns_shard`, the ownership pin merges and root
refreshes are checked against.

Retention: certification is data-free, so the tables it keeps hold
digests and signed statements, never blocks.  Merges already ship pages
both ways (Section V-B); the one table of records, ``held``, only keeps
what the cloud itself answered with.

* ``_certified`` (edge → block id → digest): the conflict rule and the
  dispute judge need every digest ever certified, and gossip publishes its
  length.  Kept for the edge's lifetime: one digest per block.
* ``_proofs`` ((edge, block id) → proof): a certify retry is answered with
  the proof already issued, and a verdict attaches it.  Kept for the
  edge's lifetime: one signed statement per block certified alone or
  disputed.
* ``_batch_proof_sources`` ((edge, block id) → batch certificate and its
  block list): a dispute may come at any time, so its proof stays
  derivable.  Kept for the edge's lifetime; one certificate per batch.
* ``_merge_responses`` (digest of a merge proposal's content fingerprint →
  the :class:`SignedGlobalRoot` its execution signed): a re-delivered
  proposal must be answered, not re-executed against the advanced mirror —
  that would punish an honest edge for a network artifact.  The answer is
  rebuilt from the duplicate's own pages
  (:meth:`~repro.lsmerkle.merge.CloudIndexMirror.replay_merge`); the
  fingerprint binds every block and page digest, so those are the original
  pages.  A duplicate of any age gets the same answer, so the table keeps
  one entry per executed merge, forever: ≈1.2 KB (the root, its memos and
  its key), against the ≈2 MB of pages a merge returns.
* ``held`` (:class:`~repro.storage.codec.HeldSet`, one hold per mirror
  key ``(edge, shard)``): the records of the merged pages the cloud last
  answered for each level above the bottom, levels 1 … ``num_levels − 2``
  (``_answered`` lists them per level).  A partition's next merge re-sends
  those pages as its source or target, so the decoder hands back the
  cloud's own records instead of building them again.  Bound: one copy of
  each partition's upper levels, never the bottom level, which is never a
  merge source.  An executed merge of level L replaces level L+1's records
  and empties level L; a duplicate or a rejection changes nothing; the
  hold goes with its mirror (:meth:`CloudNode._drop_mirror`, a sharded
  handoff or failover).  References only, and on the simulator the very
  records the edge's pages hold.
"""

from __future__ import annotations

from typing import Any, Optional

from ..common.config import SystemConfig
from ..common.identifiers import BlockId, NodeId, ShardId, cloud_id
from ..common.regions import Region
from ..crypto.hashing import digest_value
from ..lsm.records import KVRecord
from ..lsmerkle.merge import CloudIndexMirror, MergeOutcome
from ..lsmerkle.mlsm import SignedGlobalRoot
from ..messages.kv_messages import (
    MergeRejection,
    MergeRequest,
    MergeResponse,
    RootRefreshRequest,
    RootRefreshResponse,
)
from ..messages.log_messages import (
    BatchCertificateMessage,
    BlockCertifyRequest,
    BlockProofMessage,
    CertifyBatchRequest,
    CertifyRejection,
    CertifyWindowRequest,
    DisputeRequest,
    DisputeVerdict,
)
from ..common.errors import MergeProtocolError
from ..core.dispute import PunishmentLedger, disputed_block, judge_dispute
from ..core.gossip import build_gossip, build_gossip_batch
from ..log.proofs import (
    AnyBlockProof,
    build_certify_batch_tree,
    derive_batched_proofs,
    issue_batch_certificate,
    issue_block_proof,
)
from ..sim.environment import Environment
from ..storage.codec import HeldSet
from .dispatch import DispatchTable, TableDispatchNode


class CloudNode(TableDispatchNode):
    """Trusted certifier, merger, judge, and gossip source."""

    HANDLERS = DispatchTable(
        {
            BlockCertifyRequest: "_handle_certify",
            CertifyBatchRequest: "_handle_certify_batch",
            CertifyWindowRequest: "_handle_certify_batch",
            MergeRequest: "_handle_merge",
            RootRefreshRequest: "_handle_root_refresh",
            DisputeRequest: "_handle_dispute",
        }
    )

    def __init__(
        self,
        env: Environment,
        config: Optional[SystemConfig] = None,
        name: str = "cloud-0",
        region: Optional[Region] = None,
    ) -> None:
        self.env = env
        self.config = config if config is not None else SystemConfig.paper_default()
        self.node_id = cloud_id(name)
        self.region = region if region is not None else self.config.placement.cloud_region
        self._attach_observability()
        self.ledger = PunishmentLedger()

        #: Certified digests: edge -> block id -> digest.
        self._certified: dict[NodeId, dict[BlockId, str]] = {}
        #: Issued proofs: (edge, block id) -> proof (per-block or batched).
        self._proofs: dict[tuple[NodeId, BlockId], AnyBlockProof] = {}
        #: Lazily derivable dispute proofs: (edge, block id) -> the batch
        #: certificate and ordered block list that can produce the proof on
        #: demand.  The batch-certify hot path stores this instead of
        #: deriving every per-block membership proof eagerly — disputes are
        #: rare, certifications are not.
        self._batch_proof_sources: dict[
            tuple[NodeId, BlockId], tuple[Any, tuple[tuple[BlockId, str], ...]]
        ] = {}
        #: Digest-level index mirrors used to validate merges, one per
        #: (edge, shard) — the shard key is ``None`` for the paper's
        #: single-partition deployment.
        self._mirrors: dict[tuple[NodeId, Optional[ShardId]], CloudIndexMirror] = {}
        #: The records of the merged pages last answered per mirror key and
        #: level above the bottom, held for the decoder (module docstring).
        self._answered: dict[
            tuple[NodeId, Optional[ShardId]], dict[int, tuple[tuple[KVRecord, ...], ...]]
        ] = {}
        self.held = HeldSet()
        #: Clients that receive gossip.
        self._gossip_targets: list[NodeId] = []
        self._gossip_stopper = None

        #: The signed root of every executed merge, keyed by the digest of
        #: the proposal's content fingerprint (see the retention rules in
        #: the module docstring).
        self._merge_responses: dict[str, SignedGlobalRoot] = {}

        stats_init = {
            "certifications": 0,
            "certify_conflicts": 0,
            "certify_batches": 0,
            "merges": 0,
            "merge_rejections": 0,
            "disputes": 0,
            "punishments": 0,
            "gossip_messages": 0,
            "gossip_batches": 0,
            "root_refreshes": 0,
            "shard_maps_published": 0,
            "shard_handoffs_ordered": 0,
            "shard_handoffs_granted": 0,
            "shard_handoffs_rejected": 0,
            "shard_installs": 0,
            "shard_disputes": 0,
            "replica_leases_issued": 0,
            "shard_failovers_started": 0,
            "replica_promotions": 0,
            "promotion_offers_rejected": 0,
            "shard_quarantine_notices": 0,
        }
        self.stats = self._make_stats(stats_init)
        env.attach(self)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def certified_digest(self, edge: NodeId, block_id: BlockId) -> Optional[str]:
        return self._certified.get(edge, {}).get(block_id)

    def certified_log_size(self, edge: NodeId) -> int:
        return len(self._certified.get(edge, {}))

    def proof_for(self, edge: NodeId, block_id: BlockId) -> Optional[AnyBlockProof]:
        proof = self._proofs.get((edge, block_id))
        if proof is not None:
            return proof
        source = self._batch_proof_sources.get((edge, block_id))
        if source is None:
            return None
        # Dispute path: derive the batch-anchored proof on first demand and
        # memoize it (the hot certify path only recorded the certificate).
        certificate, blocks = source
        for derived in derive_batched_proofs(certificate, blocks):
            key = (edge, derived.block_id)
            if key not in self._proofs:
                self._proofs[key] = derived
        return self._proofs.get((edge, block_id))

    def mirror_for(
        self, edge: NodeId, shard_id: Optional[ShardId] = None
    ) -> CloudIndexMirror:
        key = (edge, shard_id)
        if key not in self._mirrors:
            self._mirrors[key] = CloudIndexMirror(
                edge=edge,
                config=self.config.lsmerkle,
                page_capacity=self.config.logging.block_size,
            )
        return self._mirrors[key]

    def _drop_mirror(self, edge: NodeId, shard_id: Optional[ShardId]) -> None:
        """Forget *edge*'s mirror of *shard_id* and the records held for it."""

        key = (edge, shard_id)
        self._mirrors.pop(key, None)
        self._answered.pop(key, None)
        self.held.release(("merge", *key))

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def register_gossip_target(self, client: NodeId) -> None:
        if client not in self._gossip_targets:
            self._gossip_targets.append(client)

    def start_gossip(self) -> None:
        """Begin periodic gossip to registered clients."""

        if self._gossip_stopper is not None:
            return
        interval = self.config.security.gossip_interval_s
        self._gossip_stopper = self.env.schedule_periodic(
            interval, self._emit_gossip, "cloud-gossip"
        )

    def stop_gossip(self) -> None:
        if self._gossip_stopper is not None:
            self._gossip_stopper()
            self._gossip_stopper = None

    def _emit_gossip(self) -> None:
        now = self.env.now()
        if self.config.security.gossip_batch:
            if not self._certified:
                return
            # One signature covers every edge's certified log size; each
            # client receives a single message per interval.
            message = build_gossip_batch(
                self.env.registry,
                self.node_id,
                {edge: len(blocks) for edge, blocks in self._certified.items()},
                now,
            )
            self.stats["gossip_batches"] += 1
            for client in self._gossip_targets:
                self.env.send(self.node_id, client, message)
                self.stats["gossip_messages"] += 1
            return
        for edge, blocks in self._certified.items():
            message = build_gossip(
                self.env.registry, self.node_id, edge, len(blocks), now
            )
            for client in self._gossip_targets:
                self.env.send(self.node_id, client, message)
                self.stats["gossip_messages"] += 1

    # -------------------------------------------------------- certification
    # Lazy certification is data-free: the cloud sees digests only.  Every
    # wire format — one block, one batch, a window of batches under one
    # envelope signature — verifies its single request signature, runs each
    # digest through :meth:`_order_digest` in arrival order, and signs what
    # stood.  The edge's pump (``EdgeNode._pump_certify_pipeline``) is the
    # only driver of the windowed formats.
    def _order_digest(
        self, edge: NodeId, block_id: BlockId, block_digest: str
    ) -> Optional[CertifyRejection]:
        """The conflict rule, decided in arrival order.

        The first digest an edge submits for a block id wins; the same
        digest again is an idempotent retry; a different digest is the
        paper's equivocation — punished, and refused with the returned
        :class:`CertifyRejection`.  ``None`` means the digest stands.
        """

        edge_digests = self._certified.setdefault(edge, {})
        existing = edge_digests.get(block_id)
        if existing is None:
            edge_digests[block_id] = block_digest
            self.stats["certifications"] += 1
            return None
        if existing == block_digest:
            return None
        self.stats["certify_conflicts"] += 1
        self._punish(
            edge,
            reason=f"attempted to certify two different digests for block {block_id}",
            block_id=block_id,
        )
        return CertifyRejection(
            cloud=self.node_id,
            edge=edge,
            block_id=block_id,
            existing_digest=existing,
            offending_digest=block_digest,
            reason="conflicting digest for an already certified block id",
        )

    def _handle_certify(self, sender: NodeId, request: BlockCertifyRequest) -> None:
        # Parent is the edge's certify.dispatch span (delivery sidecar).
        with self._span("certify.cloud", blocks=1):
            params = self.env.params
            cost = params.certification_cost()
            self.env.charge(cost)
            self.stats["certify_cpu_seconds"] = (
                self.stats.get("certify_cpu_seconds", 0.0) + cost
            )

            statement = request.statement
            if statement.edge != sender or not self.env.registry.verify(
                request.signature, statement
            ):
                # Unsigned or mis-attributed requests are dropped.
                return

            rejection = self._order_digest(
                statement.edge, statement.block_id, statement.block_digest
            )
            if rejection is not None:
                self.env.send(self.node_id, sender, rejection)
                return
            proof = self._proof_of(
                statement.edge, statement.block_id, statement.block_digest
            )
            self.env.send(self.node_id, sender, BlockProofMessage(proof=proof))

    def _proof_of(
        self, edge: NodeId, block_id: BlockId, block_digest: str
    ) -> AnyBlockProof:
        """The proof of a digest that stood: an idempotent retry gets the
        proof already issued, a first certification a new one."""

        key = (edge, block_id)
        proof = self._proofs.get(key)
        if proof is None:
            proof = self._proofs[key] = issue_block_proof(
                registry=self.env.registry,
                cloud=self.node_id,
                edge=edge,
                block_id=block_id,
                block_digest=block_digest,
                certified_at=self.env.now(),
            )
        return proof

    def _handle_certify_batch(
        self, sender: NodeId, request: "CertifyBatchRequest | CertifyWindowRequest"
    ) -> None:
        """Certify one batch, or a window of batches under one signature.

        Digests are ordered batch by batch in the order the edge listed
        them — a conflict decision depends on what was accepted before it.
        A conflicting item is refused individually without sinking its
        batch; items smuggled in for another edge are dropped (the signature
        only attests the sending edge's own blocks).  Refusals leave first,
        then one :class:`BatchCertificate` per accepted batch — window slots
        retire independently at the edge.
        """

        params = self.env.params
        statement = request.statement
        if isinstance(request, CertifyWindowRequest):
            # One envelope signature to verify, but one certificate to sign
            # per inner batch: charge every signature the window costs.
            batches = statement.batches
            num_blocks = request.num_blocks
            cost = params.window_certification_cost(len(batches), num_blocks)
        else:
            batches = (statement,)
            num_blocks = len(statement.items)
            cost = params.batch_certification_cost(num_blocks)
        with self._span("certify.cloud", blocks=num_blocks):
            self.env.charge(cost)
            self.stats["certify_cpu_seconds"] = (
                self.stats.get("certify_cpu_seconds", 0.0) + cost
            )
            if (
                statement.edge != sender
                or request.signature.signer != statement.edge
                or not self.env.registry.verify(request.signature, statement)
            ):
                # Unsigned or mis-attributed requests are dropped — the
                # signer pin also rejects a valid signature from the *wrong*
                # node riding an honestly-named statement.
                return

            accepted_batches: list[tuple[tuple[BlockId, str], ...]] = []
            for batch in batches:
                if batch.edge != statement.edge:
                    continue
                accepted: list[tuple[BlockId, str]] = []
                for item in batch.items:
                    if item.edge != statement.edge:
                        continue
                    rejection = self._order_digest(
                        item.edge, item.block_id, item.block_digest
                    )
                    if rejection is None:
                        accepted.append((item.block_id, item.block_digest))
                    else:
                        self.env.send(self.node_id, sender, rejection)
                if accepted:
                    accepted_batches.append(tuple(accepted))

            now = self.env.now()
            for blocks in accepted_batches:
                certificate = issue_batch_certificate(
                    registry=self.env.registry,
                    cloud=self.node_id,
                    edge=statement.edge,
                    batch_root=build_certify_batch_tree(blocks).root,
                    num_blocks=len(blocks),
                    certified_at=now,
                )
                # Record the certificate as the lazily derivable dispute
                # evidence for every covered block (proof_for derives per-block
                # membership proofs on demand); the requesting edge rebuilds its
                # own tree from the returned list.
                for block_id, _digest in blocks:
                    self._batch_proof_sources[(statement.edge, block_id)] = (
                        certificate,
                        blocks,
                    )
                self.stats["certify_batches"] += 1
                self.env.send(
                    self.node_id,
                    sender,
                    BatchCertificateMessage(certificate=certificate, blocks=blocks),
                )

    # ---------------------------------------------------------------- merges
    def _owns_shard(self, edge: NodeId, shard_id: Optional[ShardId]) -> bool:
        """Whether *edge* may merge into and refresh roots of *shard_id*.

        Always true here: the paper's cloud knows no shard map.  The sharded
        fleet's cloud pins both to the shard's current owner.
        """

        return True

    def _handle_merge(self, sender: NodeId, request: MergeRequest) -> None:
        # Parent is the edge's merge.propose span (delivery sidecar).
        with self._span("merge.cloud", level=request.proposal.level_index):
            params = self.env.params
            proposal = request.proposal
            records_in = sum(block.num_entries for block in proposal.source_blocks)
            records_in += sum(page.num_records for page in proposal.source_pages)
            records_in += sum(page.num_records for page in proposal.target_pages)
            self.env.charge(
                params.request_overhead_seconds
                + params.verify_seconds
                + params.merge_seconds_per_entry * records_in
                + params.sign_seconds
            )

            if proposal.edge != sender:
                return
            if not self._owns_shard(proposal.edge, proposal.shard_id):
                self.stats["merge_rejections"] += 1
                self.env.send(
                    self.node_id,
                    sender,
                    MergeRejection(
                        cloud=self.node_id,
                        edge=proposal.edge,
                        level_index=proposal.level_index,
                        reason="edge does not own the proposed shard",
                        shard_id=proposal.shard_id,
                    ),
                )
                return
            fingerprint = digest_value(
                (
                    proposal.edge,
                    proposal.shard_id,
                    proposal.level_index,
                    tuple(
                        (block.block_id, block.digest())
                        for block in proposal.source_blocks
                    ),
                    tuple(page.digest() for page in proposal.source_pages),
                    tuple(page.digest() for page in proposal.target_pages),
                )
            )
            mirror = self.mirror_for(proposal.edge, proposal.shard_id)
            signed_root = self._merge_responses.get(fingerprint)
            if signed_root is not None:
                self.stats.setdefault("merge_duplicate_requests", 0)
                self.stats["merge_duplicate_requests"] += 1
                self.env.send(
                    self.node_id,
                    sender,
                    MergeResponse(
                        cloud=self.node_id,
                        outcome=mirror.replay_merge(proposal, signed_root),
                    ),
                )
                return
            certified = self._certified.get(proposal.edge, {})
            try:
                outcome = mirror.execute_merge(
                    proposal=proposal,
                    certified_digests=certified,
                    registry=self.env.registry,
                    cloud=self.node_id,
                    now=self.env.now(),
                )
            except MergeProtocolError as exc:
                self.stats["merge_rejections"] += 1
                self._punish(
                    proposal.edge,
                    reason=f"invalid merge proposal: {exc}",
                    block_id=None,
                )
                self.env.send(
                    self.node_id,
                    sender,
                    MergeRejection(
                        cloud=self.node_id,
                        edge=proposal.edge,
                        level_index=proposal.level_index,
                        reason=str(exc),
                        shard_id=proposal.shard_id,
                    ),
                )
                return
            self.stats["merges"] += 1
            self._merge_responses[fingerprint] = outcome.signed_root
            self._hold_answer((proposal.edge, proposal.shard_id), outcome)
            self.env.send(
                self.node_id, sender, MergeResponse(cloud=self.node_id, outcome=outcome)
            )

    def _hold_answer(
        self, key: tuple[NodeId, Optional[ShardId]], outcome: MergeOutcome
    ) -> None:
        """Hold the records of *outcome*'s merged pages for the partition's
        next merges, which re-send them: level L+1 becomes the outcome's
        pages unless it is the bottom level, and level L empties."""

        levels = self._answered.setdefault(key, {})
        levels.pop(outcome.level_index, None)
        target = outcome.level_index + 1
        if target < self.config.lsmerkle.num_levels - 1:
            levels[target] = tuple(page.records for page in outcome.merged_pages)
        self.held.hold(
            ("merge", *key), *(group for pages in levels.values() for group in pages)
        )

    def _handle_root_refresh(self, sender: NodeId, request: RootRefreshRequest) -> None:
        if request.edge != sender:
            return
        if not self._owns_shard(request.edge, request.shard_id):
            # Same ownership pin as merges: a former owner must not obtain
            # fresh-timestamped (empty-mirror) roots it could use to serve
            # verifiable absence proofs for a shard it handed off.
            return
        self.env.charge(self.env.params.sign_seconds)
        mirror = self.mirror_for(request.edge, request.shard_id)
        signed_root = mirror.sign_current_root(
            self.env.registry, self.node_id, self.env.now()
        )
        self.stats["root_refreshes"] += 1
        self.env.send(
            self.node_id,
            sender,
            RootRefreshResponse(
                cloud=self.node_id,
                edge=request.edge,
                signed_root=signed_root,
                shard_id=request.shard_id,
            ),
        )

    # -------------------------------------------------------------- disputes
    def _handle_dispute(self, sender: NodeId, dispute: DisputeRequest) -> None:
        params = self.env.params
        self.env.charge(params.request_overhead_seconds + 2 * params.verify_seconds)
        self.stats["disputes"] += 1

        # Unknown edges and blocks have no certified state: a dispute
        # without evidence is judged on none.
        edge, block_id = disputed_block(dispute) or (None, None)
        judgement = judge_dispute(
            dispute=dispute,
            certified_digest=self.certified_digest(edge, block_id),
            registry=self.env.registry,
            certified_log_size=self.certified_log_size(edge),
        )
        if judgement.edge_punished:
            self._punish(
                edge,
                reason=judgement.reason,
                block_id=block_id,
                reported_by=dispute.client,
            )
        verdict = DisputeVerdict(
            cloud=self.node_id,
            client=dispute.client,
            edge=edge,
            block_id=block_id,
            edge_punished=judgement.edge_punished,
            reason=judgement.reason,
            certified_digest=judgement.certified_digest,
            proof=self.proof_for(edge, block_id),
        )
        self.env.send(self.node_id, sender, verdict)

    # ------------------------------------------------------------------
    # Punishment
    # ------------------------------------------------------------------
    def _punish(
        self,
        edge: NodeId,
        reason: str,
        block_id: Optional[BlockId],
        reported_by: Optional[NodeId] = None,
    ) -> None:
        self.ledger.punish(
            edge=edge,
            reason=reason,
            recorded_at=self.env.now(),
            block_id=block_id,
            reported_by=reported_by,
        )
        self.stats["punishments"] += 1
