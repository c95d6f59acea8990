"""The sharded fleet's cloud: the paper's cloud node plus shard-map authority.

:class:`ShardedCloudNode` is to :class:`~repro.nodes.cloud.CloudNode` what
``ShardedEdgeNode`` is to ``EdgeNode``: it inherits the certifier / merger /
judge / gossip source unchanged and registers the fleet's own message types
in its dispatch table —

* **certified handoff**: ordering a shard off its owner, verifying the
  data-free offer against certified digests and the shard's index mirror,
  countersigning it, republishing the map, counting install acks;
* **replica groups**: cloud-signed serving leases, liveness (any message is
  a heartbeat), quarantine notices, and certified failover promoting the
  freshest replica;
* **disputes** over shard ownership, replica leases and 2PC, judged from
  signed artifacts alone.

It touches the parent in three places only: the ownership pin on merges and
root refreshes (:meth:`_owns_shard`), the shard-map snapshot riding every
gossip tick (:meth:`_emit_gossip`), and the liveness stamp taken before
dispatch (:meth:`on_message`).  The map is installed at construction, so the
authority never runs without one.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from ..common.config import SystemConfig
from ..common.errors import ConfigurationError
from ..common.identifiers import NodeId, ShardId
from ..lsmerkle.merge import CloudIndexMirror
from ..lsmerkle.mlsm import sign_global_root
from ..messages.shard_messages import (
    HandoffGrantStatement,
    ReplicaLease,
    ReplicaLeaseStatement,
    ReplicaPromotionGrant,
    ReplicaPromotionOffer,
    ReplicaPromotionOrder,
    ReplicaShipmentAck,
    ShardDispute,
    ShardDisputeVerdict,
    ShardHandoffCertificate,
    ShardHandoffGrant,
    ShardHandoffOrder,
    ShardHandoffRejection,
    ShardHandoffRequest,
    ShardHandoffStatement,
    ShardInstallAck,
    ShardMapMessage,
    ShardQuarantineNotice,
    WriterHeartbeat,
)
from ..messages.txn_messages import TxnDispute, TxnDisputeVerdict
from ..nodes.cloud import CloudNode
from ..sim.environment import Environment
from .handoff import shard_state_digest
from .judges import (
    judge_shard_dispute,
    judge_stale_replica_dispute,
    judge_txn_dispute,
)
from .partitioner import KeyPartitioner
from .shard_map import ShardRegistry


class ShardedCloudNode(CloudNode):
    """The trusted cloud of a sharded fleet: also the shard-map authority."""

    HANDLERS = CloudNode.HANDLERS.extended(
        {
            ShardHandoffRequest: "_handle_shard_handoff_request",
            ShardInstallAck: "_handle_shard_install_ack",
            ReplicaPromotionOffer: "_handle_promotion_offer",
            ReplicaShipmentAck: "_handle_replica_ack",
            # Liveness was recorded before dispatch; the heartbeat exists so
            # an idle (not-certifying) writer still counts as alive.
            WriterHeartbeat: None,
            ShardQuarantineNotice: "_handle_quarantine_notice",
            ShardDispute: "_handle_shard_dispute",
            TxnDispute: "_handle_txn_dispute",
        }
    )

    def __init__(
        self,
        env: Environment,
        config: SystemConfig,
        partitioner: KeyPartitioner,
        assignments: dict[ShardId, NodeId],
        replicas: Optional[dict[ShardId, tuple[NodeId, ...]]] = None,
        name: str = "cloud-0",
    ) -> None:
        """Become the shard-map authority of a fleet.

        *assignments* is the version-1 ownership; later changes go through
        the certified handoff protocol, which bumps the map version and
        republishes.  *replicas* names each shard's read replicas
        (``replication_factor > 1`` fleets); any replicated shard starts the
        lease/failover tick.
        """

        super().__init__(env=env, config=config, name=name)
        #: Authoritative shard map.
        self.shard_registry = ShardRegistry(
            num_shards=partitioner.num_shards,
            partitioner=partitioner.name,
            assignments=assignments,
            now=env.now(),
            replicas=replicas,
        )
        #: Key → shard mapping shared with the fleet.
        self._partitioner = partitioner
        #: Countersigned handoffs: (shard id, map version) -> certificate.
        self._handoff_certificates: dict[
            tuple[ShardId, int], ShardHandoffCertificate
        ] = {}
        #: Handoffs this cloud has ordered and not yet granted: shard -> dest.
        #: An offer is only countersigned against a matching outstanding
        #: order — an owning edge cannot unilaterally dump its shard onto an
        #: arbitrary (or nonexistent) destination.
        self._ordered_handoffs: dict[ShardId, NodeId] = {}
        #: Grants already issued, keyed by the exact offer they answered
        #: ``(shard id, source, dest, state digest)``.  A retransmitted
        #: offer (its grant was lost on the WAN) is answered with the stored
        #: grant instead of tripping the ownership check — ownership already
        #: moved when the first grant was cut.
        self._granted_offers: dict[
            tuple[ShardId, NodeId, NodeId, str], ShardHandoffGrant
        ] = {}
        #: Install acks already counted: (dest, shard id, state digest).
        #: Duplicate deliveries must not inflate ``shard_installs``.
        self._install_acks_seen: set[tuple[NodeId, ShardId, str]] = set()
        #: Replica groups: when any shard is replicated the cloud tracks
        #: liveness (last message time per node), per-replica shipping
        #: watermarks (the freshness record promotion picks by), the expiry
        #: of every serving lease it issued, quarantine notices, and which
        #: promotions are in flight (shard -> ordered destination replica).
        self._last_seen: dict[NodeId, float] = {}
        self._replica_acks: dict[tuple[ShardId, NodeId], int] = {}
        self._issued_lease_expiry: dict[tuple[ShardId, NodeId], float] = {}
        self._quarantined_shards: set[ShardId] = set()
        self._promotions_inflight: dict[ShardId, NodeId] = {}
        #: Promotion grants already countersigned, keyed by the exact offer
        #: they answered (shard id, replica, state digest) — duplicate
        #: offers are answered with the stored grant, like handoff regrants.
        self._promotion_grants: dict[
            tuple[ShardId, NodeId, str], ReplicaPromotionGrant
        ] = {}
        self._replication_stopper = None
        self.stats["shard_maps_published"] += 1
        self._start_replication()

    # ------------------------------------------------------------------
    # The three touch points with the paper's cloud
    # ------------------------------------------------------------------
    def on_message(self, sender: NodeId, message: Any) -> None:
        # Liveness for failover detection: *any* message from a node counts
        # as a heartbeat (appending writers certify constantly; the explicit
        # WriterHeartbeat covers idle ones).
        self._last_seen[sender] = self.env.now()
        super().on_message(sender, message)

    def _owns_shard(self, edge: NodeId, shard_id: Optional[ShardId]) -> bool:
        return shard_id is None or self.shard_registry.owner_of(shard_id) == edge

    def _emit_gossip(self) -> None:
        if self._gossip_targets:
            # Shard-membership gossip rides the same interval: one signed
            # map snapshot per tick keeps every client's ownership view at
            # most one gossip interval stale.
            self._gossip_shard_map(self._publish_shard_map())
        super()._emit_gossip()

    # ------------------------------------------------------------------
    # Shard map and certified handoff
    # ------------------------------------------------------------------
    def current_shard_map(self) -> ShardMapMessage:
        """The current map as a cloud-signed snapshot."""

        return self.shard_registry.sign(
            self.env.registry, self.node_id, self.env.now()
        )

    def _publish_shard_map(self) -> ShardMapMessage:
        """Sign the current map as one more published version of it."""

        self.stats["shard_maps_published"] += 1
        return self.current_shard_map()

    def _gossip_shard_map(self, map_message: ShardMapMessage) -> None:
        """Push a signed map to every gossip target (the fleet's clients)."""

        for client in self._gossip_targets:
            self.env.send(self.node_id, client, map_message)
            self.stats["gossip_messages"] += 1

    def request_shard_handoff(self, shard_id: ShardId, dest: NodeId) -> None:
        """Order the current owner to migrate *shard_id* to *dest*."""

        source = self.shard_registry.owner_of(shard_id)
        if source is None:
            raise ConfigurationError(f"shard {shard_id} has no owner")
        if source == dest:
            return
        self._ordered_handoffs[shard_id] = dest
        self.stats["shard_handoffs_ordered"] += 1
        self.env.send(
            self.node_id,
            source,
            ShardHandoffOrder(
                cloud=self.node_id, shard_id=shard_id, source=source, dest=dest
            ),
        )

    def _reject_offer(
        self,
        stat: str,
        sender: NodeId,
        offer: "ShardHandoffRequest | ReplicaPromotionOffer",
        reason: str,
    ) -> None:
        """Refuse to countersign *offer*, counting the refusal under *stat*."""

        self.stats[stat] += 1
        self.env.send(
            self.node_id,
            sender,
            ShardHandoffRejection(
                cloud=self.node_id,
                edge=offer.edge,
                shard_id=offer.shard_id,
                reason=reason,
            ),
        )

    def _countersign(
        self,
        source: NodeId,
        dest: NodeId,
        statement: ShardHandoffStatement,
        new_version: int,
        now: float,
    ) -> ShardHandoffCertificate:
        """Countersign *statement*'s state as moved from *source* to *dest*
        under map version *new_version*, and keep the certificate on record
        for the disputes that may cite it."""

        grant_statement = HandoffGrantStatement(
            cloud=self.node_id,
            source=source,
            dest=dest,
            shard_id=statement.shard_id,
            map_version=new_version,
            state_digest=statement.state_digest,
            num_blocks=len(statement.blocks),
            issued_at=now,
        )
        certificate = ShardHandoffCertificate(
            statement=grant_statement,
            signature=self.env.registry.sign(self.node_id, grant_statement),
        )
        self._handoff_certificates[(statement.shard_id, new_version)] = certificate
        return certificate

    def _handle_shard_handoff_request(
        self, sender: NodeId, request: ShardHandoffRequest
    ) -> None:
        """Verify a handoff offer against certified state and countersign it.

        The offer is data-free (digests only): each listed block must match
        the digest this cloud certified for the source edge, and the state
        digest must match what the cloud recomputes from its own digest
        mirror of the shard's index.  The cloud cannot verify *completeness*
        of the listed prefix (it does not know which certified blocks carry
        which shard's keys) — an omitted block surfaces later exactly like
        any other omission, through gossip-backed client disputes.
        """

        params = self.env.params
        statement = request.statement
        self.env.charge(params.handoff_countersign_cost(len(statement.blocks)))
        if statement.edge != sender or not self.env.registry.verify(
            request.signature, statement
        ):
            return
        shard_id = statement.shard_id
        granted = self._granted_offers.get(
            (shard_id, statement.edge, statement.dest, statement.state_digest)
        )
        if granted is not None:
            # The offer was already countersigned and the grant (or its
            # delivery) was lost: ownership has moved, so falling through
            # to the ownership check would misread this retransmission as a
            # stale owner's offer.  Re-send the stored grant verbatim — the
            # source absorbs duplicate grants idempotently.
            self.stats.setdefault("shard_handoff_regrants", 0)
            self.stats["shard_handoff_regrants"] += 1
            self.env.send(self.node_id, sender, granted)
            return
        reject = partial(
            self._reject_offer, "shard_handoffs_rejected", sender, request
        )
        if self.shard_registry.owner_of(shard_id) != statement.edge:
            return reject("offering edge does not own the shard")
        if self._ordered_handoffs.get(shard_id) != statement.dest:
            return reject(
                "no outstanding handoff order for this shard and destination"
            )

        certified = self._certified.get(statement.edge, {})
        for block_id, digest in statement.blocks:
            existing = certified.get(block_id)
            if existing is None:
                return reject(f"block {block_id} was never certified")
            if existing != digest:
                # The source signed a digest that contradicts what it had
                # certified: a provable lie, punished directly.
                self._punish(
                    statement.edge,
                    reason="handoff offer lists a digest that differs from the "
                    f"certified one for block {block_id}",
                    block_id=block_id,
                )
                return reject("digest mismatch in offer")

        mirror = self.mirror_for(statement.edge, shard_id)
        expected_digest = shard_state_digest(
            shard_id, mirror.level_roots(), statement.blocks
        )
        if expected_digest != statement.state_digest:
            self._punish(
                statement.edge,
                reason="handoff offer's state digest differs from the cloud's "
                f"mirror of shard {shard_id}",
                block_id=None,
            )
            return reject("state digest mismatch")

        # Reassign ownership and move the mirror to the destination edge.
        now = self.env.now()
        dest = statement.dest
        new_version = self.shard_registry.reassign(shard_id, dest, now)
        # The destination's mirror adopts the page digests but NOT the
        # source's merged_block_ids: block ids are per-edge, so the source's
        # consumed ids would collide with the destination's own future
        # blocks and permanently reject its level-0 merges.  Replay of the
        # source's blocks into a destination merge is impossible anyway —
        # they are certified under the source's name, not the destination's.
        dest_mirror = CloudIndexMirror(
            edge=dest,
            config=self.config.lsmerkle,
            page_capacity=self.config.logging.block_size,
            level_page_digests=[list(level) for level in mirror.level_page_digests],
            version=mirror.version,
        )
        self._mirrors[(dest, shard_id)] = dest_mirror
        self._drop_mirror(statement.edge, shard_id)
        signed_root = dest_mirror.sign_current_root(
            self.env.registry, self.node_id, now
        )
        certificate = self._countersign(
            statement.edge, dest, statement, new_version, now
        )

        self._ordered_handoffs.pop(shard_id, None)
        self.stats["shard_handoffs_granted"] += 1
        grant = ShardHandoffGrant(
            certificate=certificate,
            shard_map=self._publish_shard_map(),
            signed_root=signed_root,
        )
        self._granted_offers[
            (shard_id, statement.edge, dest, statement.state_digest)
        ] = grant
        self.env.send(self.node_id, sender, grant)
        # Mid-interval membership change: push the new map immediately to
        # the destination and to every gossip target instead of waiting for
        # the next gossip tick.
        self.env.send(self.node_id, dest, grant.shard_map)
        self._gossip_shard_map(grant.shard_map)

    def _handle_shard_install_ack(self, sender: NodeId, ack: ShardInstallAck) -> None:
        if ack.dest != sender:
            return
        key = (sender, ack.shard_id, ack.state_digest)
        if key in self._install_acks_seen:
            # Duplicate delivery (the destination re-acks retransmitted
            # transfers): counting it again would inflate the install stat.
            self.stats.setdefault("shard_install_ack_duplicates", 0)
            self.stats["shard_install_ack_duplicates"] += 1
            return
        self._install_acks_seen.add(key)
        self.stats["shard_installs"] += 1

    # ------------------------------------------------------------------
    # Replica groups: leases, liveness, and certified failover
    # ------------------------------------------------------------------
    def _start_replication(self) -> None:
        """Start the lease/failover tick once any shard is replicated.

        Idempotent, and a no-op for ``replication_factor=1`` fleets: the
        unreplicated deployment runs byte-identically to the historical
        one.  The tick runs at the gossip interval but never slower than
        half the lease duration, so honest leases are renewed before they
        lapse; an immediate first tick issues the fleet's initial leases.
        """

        if self._replication_stopper is not None:
            return
        if not self.shard_registry.replicated_shards():
            return
        interval = min(
            self.config.security.gossip_interval_s,
            self.config.sharding_or_default().replica_lease_s / 2.0,
        )
        self._replication_stopper = self.env.schedule_periodic(
            interval, self._replication_tick, "cloud-replication"
        )
        self.env.schedule(0.0, self._replication_tick, "cloud-replication-start")

    def _replication_tick(self) -> None:
        """Renew serving leases and detect lost writers.

        A writer is *suspect* when its shard was quarantined by durable
        recovery or when it has been silent past ``failover_timeout_s``.
        Suspicion withholds the writer's lease renewal; promotion of the
        freshest replica starts only once the writer's last issued lease
        has expired (immediately for quarantine — a quarantined partition
        refuses all service, so no two-writers window is possible).
        """

        registry = self.shard_registry
        now = self.env.now()
        cfg = self.config.sharding_or_default()
        for shard_id in registry.replicated_shards():
            writer = registry.owner_of(shard_id)
            replicas = registry.replicas_of(shard_id)
            if writer is None or not replicas:
                continue
            inflight = self._promotions_inflight.get(shard_id)
            quarantined = shard_id in self._quarantined_shards
            last = self._last_seen.setdefault(writer, now)
            suspect = (
                inflight is not None
                or quarantined
                or now - last > cfg.failover_timeout_s
            )
            for node in (writer, *replicas):
                if node == writer and suspect:
                    continue
                self._issue_lease(shard_id, node, now, cfg.replica_lease_s)
            if inflight is not None:
                # The order (or the offer/grant behind it) may have been
                # lost: re-order every tick.  Offers are idempotent and a
                # duplicate offer is answered with the stored grant.
                self._send_promotion_order(shard_id, writer, inflight)
                continue
            if not suspect:
                continue
            if not quarantined and now < self._issued_lease_expiry.get(
                (shard_id, writer), 0.0
            ):
                continue
            dest = min(
                replicas,
                key=lambda replica: (
                    -self._replica_acks.get((shard_id, replica), -1),
                    str(replica),
                ),
            )
            self._promotions_inflight[shard_id] = dest
            self.stats["shard_failovers_started"] += 1
            with self._span(
                "failover.detect", shard=str(shard_id), writer=str(writer)
            ):
                self._send_promotion_order(shard_id, writer, dest)

    def _issue_lease(
        self, shard_id: ShardId, node: NodeId, now: float, lease_s: float
    ) -> None:
        self.env.charge(self.env.params.sign_seconds)
        statement = ReplicaLeaseStatement(
            cloud=self.node_id,
            replica=node,
            shard_id=shard_id,
            map_version=self.shard_registry.version,
            issued_at=now,
            expires_at=now + lease_s,
        )
        lease = ReplicaLease(
            statement=statement,
            signature=self.env.registry.sign(self.node_id, statement),
        )
        self._issued_lease_expiry[(shard_id, node)] = statement.expires_at
        self.stats["replica_leases_issued"] += 1
        self.env.send(self.node_id, node, lease)

    def _send_promotion_order(
        self, shard_id: ShardId, source: NodeId, dest: NodeId
    ) -> None:
        self.env.charge(self.env.params.request_overhead_seconds)
        self.env.send(
            self.node_id,
            dest,
            ReplicaPromotionOrder(
                cloud=self.node_id, shard_id=shard_id, source=source, dest=dest
            ),
        )

    def _handle_replica_ack(self, sender: NodeId, ack: ReplicaShipmentAck) -> None:
        if ack.replica != sender:
            return
        if sender not in self.shard_registry.replicas_of(ack.shard_id):
            return
        # Last ack wins (not max): a restarted mirror reports ``-1`` until
        # the full certified prefix is re-shipped.
        self._replica_acks[(ack.shard_id, sender)] = ack.watermark

    def _handle_quarantine_notice(
        self, sender: NodeId, notice: ShardQuarantineNotice
    ) -> None:
        if notice.edge != sender:
            return
        if self.shard_registry.owner_of(notice.shard_id) != sender:
            return
        if not self.shard_registry.replicas_of(notice.shard_id):
            return  # unreplicated quarantine stays the PR 7 dead-end
        self._quarantined_shards.add(notice.shard_id)
        self.stats["shard_quarantine_notices"] += 1

    def _handle_promotion_offer(
        self, sender: NodeId, offer: ReplicaPromotionOffer
    ) -> None:
        """Verify a promotion offer against certified state and countersign.

        Like a handoff offer the promotion offer is data-free: every listed
        block must match a digest this cloud certified for the deposed
        writer (or a provenance writer before it), and the level pages must
        hash to the level roots of a root this cloud itself signed.  The
        promoted state is therefore never newer than what certification
        already vouches for — the only possible loss is the deposed
        writer's uncertified backlog, which it could repudiate anyway.
        """

        with self._span("failover.grant", shard=str(offer.shard_id)):
            statement = offer.statement
            self.env.charge(
                self.env.params.handoff_countersign_cost(len(statement.blocks))
            )
            if statement.edge != sender or statement.dest != sender:
                return
            if not self.env.registry.verify(offer.signature, statement):
                return
            shard_id = statement.shard_id
            stored = self._promotion_grants.get(
                (shard_id, sender, statement.state_digest)
            )
            if stored is not None:
                self.stats.setdefault("replica_promotion_regrants", 0)
                self.stats["replica_promotion_regrants"] += 1
                self.env.send(self.node_id, sender, stored)
                return
            reject = partial(
                self._reject_offer, "promotion_offers_rejected", sender, offer
            )
            if self._promotions_inflight.get(shard_id) != sender:
                return reject("no outstanding promotion order for this replica")
            source = self.shard_registry.owner_of(shard_id)
            allowed = {source, *self.shard_registry.provenance_of(shard_id)}
            for block_id, digest in statement.blocks:
                if not any(
                    self._certified.get(writer, {}).get(block_id) == digest
                    for writer in allowed
                ):
                    # An honest replica only installs blocks that carry this
                    # cloud's certificates, so a non-certified digest in its
                    # signed offer is a provable lie.
                    self._punish(
                        sender,
                        reason="promotion offer lists a digest that was never "
                        f"certified for block {block_id} of shard {shard_id}",
                        block_id=block_id,
                    )
                    return reject("uncertified block in offer")

            rebuilt = CloudIndexMirror(
                edge=sender,
                config=self.config.lsmerkle,
                page_capacity=self.config.logging.block_size,
            )
            for level_index, digests in offer.level_page_digests:
                if not 1 <= level_index < len(rebuilt.level_page_digests):
                    return reject("level index out of range")
                rebuilt.level_page_digests[level_index] = list(digests)
            signed_root = offer.signed_root
            if signed_root is None:
                if offer.level_page_digests:
                    return reject("level pages presented without a signed root")
                base_version = 0
            else:
                if not signed_root.verify(
                    self.env.registry, self.node_id
                ) or signed_root.statement.edge not in allowed:
                    return reject("signed root invalid")
                if tuple(signed_root.statement.level_roots) != rebuilt.level_roots():
                    return reject("level pages do not match the signed root")
                base_version = signed_root.statement.version
            expected_digest = shard_state_digest(
                shard_id, rebuilt.level_roots(), statement.blocks
            )
            if expected_digest != statement.state_digest:
                self._punish(
                    sender,
                    reason="promotion offer's state digest differs from the one "
                    f"recomputed from its own evidence for shard {shard_id}",
                    block_id=None,
                )
                return reject("state digest mismatch")

            # Promote: deposed writer joins the provenance chain, the replica
            # leaves the replica set and takes ownership, the shard's mirror is
            # re-keyed to the new writer, and the root is re-signed in its name.
            now = self.env.now()
            rebuilt.version = base_version + 1
            new_version = self.shard_registry.promote_replica(shard_id, sender, now)
            self._mirrors[(sender, shard_id)] = rebuilt
            self._drop_mirror(source, shard_id)
            new_root = None
            if signed_root is not None:
                new_root = sign_global_root(
                    registry=self.env.registry,
                    cloud=self.node_id,
                    edge=sender,
                    level_roots=rebuilt.level_roots(),
                    version=rebuilt.version,
                    timestamp=now,
                )
            certificate = self._countersign(source, sender, statement, new_version, now)
            map_message = self._publish_shard_map()
            grant = ReplicaPromotionGrant(
                certificate=certificate, shard_map=map_message, signed_root=new_root
            )
            self._promotion_grants[(shard_id, sender, statement.state_digest)] = grant
            self._promotions_inflight.pop(shard_id, None)
            self._quarantined_shards.discard(shard_id)
            self._replica_acks.pop((shard_id, sender), None)
            self.stats["replica_promotions"] += 1
            self.env.send(self.node_id, sender, grant)
            # The promoted writer serves immediately under a fresh lease (the
            # shard may still have surviving replicas keeping the gate on).
            if self.shard_registry.replicas_of(shard_id):
                lease_s = self.config.sharding_or_default().replica_lease_s
                self._issue_lease(shard_id, sender, now, lease_s)
            # Mid-interval membership change: push the new map to the whole
            # fleet (the deposed writer's send simply fails while it is down —
            # it catches up from gossip or retirement when it returns).
            recipients = set(self.shard_registry.assignments().values())
            for other in self.shard_registry.replicated_shards():
                recipients.update(self.shard_registry.replicas_of(other))
            recipients.add(source)
            recipients.discard(sender)
            for node in sorted(recipients, key=str):
                self.env.send(self.node_id, node, map_message)
            self._gossip_shard_map(map_message)

    def _handle_shard_dispute(self, sender: NodeId, dispute: ShardDispute) -> None:
        params = self.env.params
        self.env.charge(params.request_overhead_seconds + 2 * params.verify_seconds)
        self.stats["shard_disputes"] += 1
        if dispute.reporter != sender:
            return

        if dispute.kind == "stale-replica-serve":
            judgement = judge_stale_replica_dispute(
                dispute=dispute,
                registry=self.env.registry,
                owner_at=self.shard_registry.owner_at,
                cloud=self.node_id,
                shard_of=self._partitioner.shard_of,
            )
        else:
            granted_digest = None
            if dispute.transfer_statement is not None:
                certificate = self._handoff_certificates.get(
                    (dispute.shard_id, dispute.transfer_statement.map_version)
                )
                granted_digest = certificate.state_digest if certificate else None
            judgement = judge_shard_dispute(
                dispute=dispute,
                registry=self.env.registry,
                owner_at=self.shard_registry.owner_at,
                granted_state_digest=granted_digest,
                shard_of=self._partitioner.shard_of,
            )
        if judgement.punished:
            self._punish(
                dispute.accused,
                reason=judgement.reason,
                block_id=None,
                reported_by=dispute.reporter,
            )
        self.env.send(
            self.node_id,
            sender,
            ShardDisputeVerdict(
                cloud=self.node_id,
                reporter=dispute.reporter,
                accused=dispute.accused,
                shard_id=dispute.shard_id,
                punished=judgement.punished,
                reason=judgement.reason,
            ),
        )

    def _handle_txn_dispute(self, sender: NodeId, dispute: TxnDispute) -> None:
        """Judge a 2PC dispute from its signed artifacts (no server state).

        The accused may be an *edge* (a lying or abort-ignoring
        participant) or a *client* (an equivocating coordinator) — the
        punishment ledger records both.
        """

        params = self.env.params
        self.env.charge(params.request_overhead_seconds + 3 * params.verify_seconds)
        self.stats.setdefault("txn_disputes", 0)
        self.stats["txn_disputes"] += 1
        if dispute.reporter != sender:
            return
        judgement = judge_txn_dispute(dispute, self.env.registry, cloud=self.node_id)
        if judgement.punished:
            self._punish(
                dispute.accused,
                reason=judgement.reason,
                block_id=None,
                reported_by=dispute.reporter,
            )
        verdict = TxnDisputeVerdict(
            cloud=self.node_id,
            reporter=dispute.reporter,
            accused=dispute.accused,
            txn_id=dispute.txn_id,
            punished=judgement.punished,
            reason=judgement.reason,
            kind=dispute.kind,
            decision=dispute.decision,
        )
        self.env.send(self.node_id, sender, verdict)
        if judgement.punished and dispute.kind == "staged-abort-serve":
            # Tell the convicted edge which signed abort convicted it: an
            # edge that applied this transaction under a coordinator-signed
            # *commit* now holds contradictory signed decisions and can
            # counter-dispute the equivocating coordinator.
            self.env.send(self.node_id, dispute.accused, verdict)

