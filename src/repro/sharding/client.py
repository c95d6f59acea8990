"""The shard-aware client: any key, routed to its owning edge.

A :class:`ShardedClient` keeps the base client's whole verification stack
(signed receipts, proof checks, disputes, session consistency) and adds:

* **routing** — puts and gets resolve their key through a
  :class:`~repro.sharding.router.ShardRouter` backed by the client's
  verified shard-map view; batches split per owning edge;
* **redirect handling** — a signed ``NotOwnerRedirect`` updates the map
  view (the redirect carries the edge's latest cloud-signed map) and
  re-issues the *same* operation to the new owner, bounded by
  ``ShardingConfig.max_redirects``;
* **stale-owner detection** — a get response from an edge that the
  client's (newer) map says no longer owns the key's shard is reported to
  the cloud as a ``stale-owner-serve`` shard dispute, with the edge's own
  signed response statement as evidence;
* **per-shard session consistency** — signed-root versions are tracked per
  (edge, shard) sequence, since every shard's index advances independently.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable, Optional, Sequence

from ..common.config import SystemConfig
from ..common.identifiers import NodeId, OperationId, OperationKind, ShardId
from ..common.regions import Region
from ..core.commit import OperationRecord
from ..core.gossip import verify_gossip
from ..log.proofs import CommitPhase
from ..lsmerkle.codec import encode_put
from ..messages.kv_messages import GetRequest, GetResponse
from ..messages.log_messages import (
    AppendBatchRequest,
    GossipBatchMessage,
    GossipMessage,
    ReadRequest,
)
from ..messages.shard_messages import (
    NotOwnerRedirect,
    ReplicaLease,
    ShardDispute,
    ShardDisputeVerdict,
    ShardMapMessage,
)
from ..messages.txn_messages import (
    TxnDecisionAck,
    TxnDisputeVerdict,
    TxnId,
    TxnPrepareReceipt,
    TxnPrepareRejection,
)
from ..nodes.client import Client
from ..sim.environment import Environment
from .partitioner import KeyPartitioner
from .router import ShardRouter
from .shard_map import FleetGossipView
from .transactions import TxnCoordinator


class ShardedClient(Client):
    """One authenticated client that can read and write any shard."""

    HANDLERS = Client.HANDLERS.extended(
        {
            ShardMapMessage: "_handle_shard_map",
            NotOwnerRedirect: "_handle_not_owner",
            ShardDisputeVerdict: "_handle_shard_verdict",
            TxnPrepareReceipt: "_handle_txn_receipt",
            TxnPrepareRejection: "_handle_txn_rejection",
            TxnDecisionAck: "_handle_txn_ack",
            TxnDisputeVerdict: "_handle_txn_verdict",
        }
    )

    def __init__(
        self,
        env: Environment,
        edges: Sequence[NodeId],
        cloud: NodeId,
        partitioner: KeyPartitioner,
        config: Optional[SystemConfig] = None,
        name: str = "client-0",
        region: Optional[Region] = None,
        shard_map: Optional[ShardMapMessage] = None,
    ) -> None:
        if not edges:
            raise ValueError("ShardedClient needs at least one edge")
        super().__init__(
            env=env,
            edge=edges[0],
            cloud=cloud,
            config=config,
            name=name,
            region=region,
        )
        self.partitioner = partitioner
        # Per-shard sub-batches are sized by the key split, not the block
        # size, so their entries routinely span block boundaries.
        self._split_batch_acks = True
        self.fleet_view = FleetGossipView(cloud=cloud)
        if shard_map is not None:
            self.fleet_view.shard_map.update(env.registry, shard_map)
        self.router = ShardRouter(
            partitioner, self.fleet_view.shard_map, default_owner=edges[0]
        )
        #: Shard-dispute verdicts the cloud sent back to this client.
        self.shard_verdicts: list[ShardDisputeVerdict] = []
        #: Transaction-dispute verdicts the cloud sent back to this client.
        self.txn_verdicts: list[TxnDisputeVerdict] = []
        #: Redirect-hop cap: exactly this many redirect hops are followed
        #: per operation before it fails.  Unsharded configs resolve to the
        #: ShardingConfig field default — never a re-spelled literal.
        self._max_redirects = self.config.sharding_or_default().max_redirects
        #: Highest block id observed per edge in signed acknowledgements:
        #: the coordinator-side staging watermark for transactions
        #: (``TxnPrepareStatement.staged_floor``).
        self._observed_block_ids: dict[NodeId, int] = {}
        #: Client-coordinated cross-shard 2PC (atomic multi-key puts).
        self.txns = TxnCoordinator(self)
        self.stats.update(
            {
                "redirects_followed": 0,
                "redirect_failures": 0,
                "shard_disputes_sent": 0,
                "stale_owner_detections": 0,
                "stale_replica_detections": 0,
                "replica_reads_routed": 0,
                "txns_started": 0,
                "txns_committed": 0,
                "txns_aborted": 0,
                "txn_prepare_reroutes": 0,
                "txn_prepare_rejections": 0,
                "txn_receipt_mismatches": 0,
                "txn_decision_acks": 0,
                "txn_decision_retries": 0,
                "txn_disputes_sent": 0,
                "staged_serve_detections": 0,
            }
        )

    # ------------------------------------------------------------------
    # Routed operation API
    # ------------------------------------------------------------------
    def put(self, key: str, value: bytes) -> OperationId:
        self.txns.note_rewrite(key, value)
        route = self.router.route(key)
        return self._append(
            [encode_put(key, value)],
            OperationKind.PUT,
            edge=route.owner,
            shard_id=route.shard_id,
        )

    def put_batch(self, items: Iterable[tuple[str, bytes]]) -> tuple[OperationId, ...]:
        """Apply a batch of puts, split per owning edge.

        Unlike the single-edge client this returns one operation id per
        (shard, owner) group — a batch that spans shards becomes several
        independent append requests, one per owner.
        """

        items = list(items)
        for key, value in items:
            self.txns.note_rewrite(key, value)
        groups = self.router.split_batch(items)
        operations = []
        for (shard_id, owner), group in groups.items():
            payloads = [encode_put(key, value) for key, value in group]
            operations.append(
                self._append(
                    payloads, OperationKind.PUT, edge=owner, shard_id=shard_id
                )
            )
        return tuple(operations)

    def get(self, key: str, edge: Optional[NodeId] = None) -> OperationId:
        route = self.router.route(key)
        target = (
            edge
            if edge is not None
            else self._read_target(route.shard_id, route.owner)
        )
        operation_id = super().get(key, edge=target)
        record = self.tracker.get(operation_id)
        record.details["shard_id"] = route.shard_id
        return operation_id

    def _read_target(self, shard_id: ShardId, owner: NodeId) -> NodeId:
        """Where to send a read: the writer or one of its read replicas.

        Sticky per (client, shard): the same client always reads a shard
        from the same member, so session consistency (monotone root
        versions per serving edge) composes with replica reads without any
        cross-member version coordination.
        """

        replicas = self.fleet_view.shard_map.replicas_of(shard_id)
        if not replicas:
            return owner
        members = (owner, *replicas)
        index = zlib.crc32(f"{self.node_id}:{shard_id}".encode()) % len(members)
        target = members[index]
        if target != owner:
            self.stats["replica_reads_routed"] += 1
        return target

    def txn_put(self, items: Iterable[tuple[str, bytes]]) -> TxnId:
        """Atomically put a batch of keys that may span several shards.

        Runs the client-coordinated two-phase commit of
        :mod:`repro.sharding.transactions`: every participant shard either
        applies the whole per-shard write set or none of it.  Returns the
        transaction id; progress is visible through ``self.txns`` (state,
        receipts, decision) and the per-participant operations in the
        ordinary commit tracker.
        """

        return self.txns.begin(items)

    # ------------------------------------------------------------------
    # Multi-edge hook overrides
    # ------------------------------------------------------------------
    def _annotate_issue(self, record: OperationRecord) -> None:
        record.details["map_version"] = self.fleet_view.shard_map.version

    def _stash_entries(self, record: OperationRecord, entries: tuple) -> None:
        # Redirect handling re-sends the same signed entries to a new owner.
        record.details["entries"] = entries

    def _handle_append_response(self, sender: NodeId, response) -> None:
        super()._handle_append_response(sender, response)
        if response.operation_id not in self.tracker:
            return
        record = self.tracker.get(response.operation_id)
        # The staging watermark moves only on acknowledgements whose
        # *specific block id* carries a verified receipt — the base handler
        # remembers a block's promised digest iff the signature checked out
        # and the sender is the operation's edge.  A duplicate or
        # unsolicited response with an absurd block id must not poison the
        # floor (it would neutralize staged-abort-serve conviction for the
        # forging edge and wedge transactions against honest ones).
        if (
            response.block_id in record.promised_digests
            and self._expected_edge(record) == sender
            and response.block_id > self._observed_block_ids.get(sender, -1)
        ):
            self._observed_block_ids[sender] = response.block_id
        if record.phase is not CommitPhase.PENDING:
            # Fully acknowledged (or failed): the operation can no longer be
            # redirected, so release the pinned signed entries — otherwise
            # memory grows with every write ever issued, not with in-flight
            # writes.
            entries = record.details.pop("entries", None)
            if (
                entries
                and record.phase is not CommitPhase.FAILED
                and record.details.get("txn_id") is None
            ):
                # Acknowledged plain writes feed the coordinator's own-write
                # memory: an abort deciding later must never register (and
                # then dispute) a pair this client committed itself.
                self.txns.note_entries(entries)

    def _accepts_proof(self, proof: Any) -> bool:
        # Any fleet edge may certify blocks for this client's operations;
        # per-record edge matching pins each proof to the edge that served
        # the operation, and the cloud pin stays strict.
        return proof.cloud == self.cloud

    def _root_version_key(self, record: OperationRecord) -> Any:
        return (self._expected_edge(record), record.details.get("shard_id"))

    def _block_should_exist(self, record: OperationRecord, block_id: int) -> bool:
        return self.fleet_view.block_should_exist(
            self._expected_edge(record), block_id
        )

    # ------------------------------------------------------------------
    # Message handlers (dispatched through ``HANDLERS``)
    # ------------------------------------------------------------------
    def _handle_shard_map(self, sender: NodeId, message: ShardMapMessage) -> None:
        self.fleet_view.shard_map.update(self.env.registry, message)

    def _handle_shard_verdict(
        self, sender: NodeId, verdict: ShardDisputeVerdict
    ) -> None:
        self.shard_verdicts.append(verdict)

    def _handle_txn_receipt(self, sender: NodeId, receipt: TxnPrepareReceipt) -> None:
        self.txns.on_receipt(sender, receipt)

    def _handle_txn_rejection(
        self, sender: NodeId, rejection: TxnPrepareRejection
    ) -> None:
        self.txns.on_rejection(sender, rejection)

    def _handle_txn_ack(self, sender: NodeId, ack: TxnDecisionAck) -> None:
        self.txns.on_ack(sender, ack)

    def _handle_txn_verdict(self, sender: NodeId, verdict: TxnDisputeVerdict) -> None:
        self.txn_verdicts.append(verdict)

    def _handle_gossip(
        self, sender: NodeId, message: "GossipMessage | GossipBatchMessage"
    ) -> None:
        if not verify_gossip(self.env.registry, message, cloud=self.cloud):
            return
        self.fleet_view.update_log_sizes(message)
        self.gossip_view.update(message)

    # ------------------------------------------------------------------
    # Redirect handling
    # ------------------------------------------------------------------
    def _handle_not_owner(self, sender: NodeId, redirect: NotOwnerRedirect) -> None:
        params = self.env.params
        self.env.charge(params.verify_seconds)
        statement = redirect.statement
        if statement.edge != sender or not self.env.registry.verify(
            redirect.signature, statement
        ):
            return
        if redirect.shard_map is not None:
            self.fleet_view.shard_map.update(self.env.registry, redirect.shard_map)
        if statement.operation_id not in self.tracker:
            return
        record = self.tracker.get(statement.operation_id)
        if record.phase is not CommitPhase.PENDING:
            # Only a still-pending operation can be re-routed: once some
            # owner acknowledged it, a (stale or stray) redirect is noise.
            return
        now = self.env.now()
        redirects = record.details.get("redirects", 0)
        if redirects >= self._max_redirects:
            self.stats["redirect_failures"] += 1
            self.tracker.mark_failed(
                record.operation_id, now, "redirect limit exceeded"
            )
            return
        owner = self.fleet_view.shard_map.owner_of(statement.shard_id)
        if owner is None or owner == statement.edge:
            # The client's map still names the redirecting edge (or nothing):
            # trust the redirect's forward-looking hint.
            owner = statement.owner
        if owner is None or owner == statement.edge:
            self.stats["redirect_failures"] += 1
            self.tracker.mark_failed(
                record.operation_id, now, "no resolvable shard owner"
            )
            return

        record.details["redirects"] = redirects + 1
        record.details["edge"] = owner
        record.details["map_version"] = self.fleet_view.shard_map.version
        self.stats["redirects_followed"] += 1
        self._reissue(record, owner, statement.shard_id)

    def _reissue(
        self, record: OperationRecord, owner: NodeId, shard_id: ShardId
    ) -> None:
        """Re-send an operation (same id, same signed entries) to *owner*."""

        txn_id = record.details.get("txn_id")
        if txn_id is not None and record.details.get("txn_prepare"):
            # Redirect-aware participant resolution: the same signed prepare
            # goes to the owner the redirect (and the refreshed map) named.
            self.txns.reroute_prepare(txn_id, shard_id, owner)
            return
        if record.is_write:
            entries = record.details.get("entries")
            if entries is None:
                self.tracker.mark_failed(
                    record.operation_id, self.env.now(), "cannot replay write"
                )
                return
            self.env.send(
                self.node_id,
                owner,
                AppendBatchRequest(
                    requester=self.node_id,
                    operation_id=record.operation_id,
                    kind=record.kind,
                    entries=entries,
                    request_block=self.config.logging.return_block_on_add,
                    shard_id=shard_id,
                ),
            )
        elif record.kind is OperationKind.GET:
            self.env.send(
                self.node_id,
                owner,
                GetRequest(
                    requester=self.node_id,
                    operation_id=record.operation_id,
                    key=record.details["key"],
                ),
            )
        elif record.kind is OperationKind.READ:
            self.env.send(
                self.node_id,
                owner,
                ReadRequest(
                    requester=self.node_id,
                    operation_id=record.operation_id,
                    block_id=record.details["block_id"],
                ),
            )

    # ------------------------------------------------------------------
    # Stale-owner detection
    # ------------------------------------------------------------------
    def _handle_get_response(self, sender: NodeId, response: GetResponse) -> None:
        statement = response.statement
        if statement.operation_id in self.tracker:
            record = self.tracker.get(statement.operation_id)
            shard_id = record.details.get("shard_id")
            if shard_id is not None and self._is_stale_owner_response(
                record, statement, shard_id
            ):
                if statement.edge in self.fleet_view.shard_map.replicas_of(
                    shard_id
                ):
                    # A read replica answered.  Its serving authority is the
                    # cloud-signed lease it attached; a covering lease makes
                    # this an ordinary verified read, anything else is the
                    # convictable stale-replica serve.
                    if not self._replica_lease_covers(
                        response.lease, statement, shard_id
                    ):
                        if statement.edge == self._expected_edge(
                            record
                        ) and self.env.registry.verify(
                            response.signature, statement
                        ):
                            self.stats["stale_replica_detections"] += 1
                            self._record_suspicion(
                                "stale-replica-serve", None, record.operation_id
                            )
                            self._send_shard_dispute(
                                "stale-replica-serve",
                                shard_id,
                                response,
                                response.lease,
                            )
                            self.tracker.mark_failed(
                                record.operation_id,
                                self.env.now(),
                                "replica served without a covering lease",
                            )
                        return
                elif statement.edge == self._expected_edge(
                    record
                ) and self.env.registry.verify(response.signature, statement):
                    # The edge's own signed statement is the evidence.
                    self.stats["stale_owner_detections"] += 1
                    self._record_suspicion(
                        "stale-owner-serve", None, record.operation_id
                    )
                    self._send_shard_dispute("stale-owner-serve", shard_id, response)
                    self.tracker.mark_failed(
                        record.operation_id,
                        self.env.now(),
                        "served by an edge that no longer owns the shard",
                    )
                    return
                else:
                    # Unverifiable non-owner responses are dropped outright:
                    # a forger must not be able to kill an in-flight
                    # operation whose genuine response is still on the wire.
                    return
        super()._handle_get_response(sender, response)
        # Post-verification staged-abort-serve detection: only a value whose
        # *proven* record sequence places it at or after the prepare
        # receipt's staged log position can be the aborted staged write — a
        # pre-transaction write of the same bytes never trips the dispute.
        # Lazy-trust remedy, not a read veto: the response did verify
        # against certified state, so the value stands and the edge's own
        # signed artifacts convict it at the cloud.
        if statement.operation_id in self.tracker:
            record = self.tracker.get(statement.operation_id)
            if (
                statement.edge == sender
                and record.details.get("found")
                and self.txns.maybe_dispute_staged_serve(
                    statement,
                    response.signature,
                    record.details.get("record_sequence"),
                    proof=response.proof,
                )
            ):
                self.stats["staged_serve_detections"] += 1

    def _is_stale_owner_response(
        self, record: OperationRecord, statement, shard_id: ShardId
    ) -> bool:
        """The client's verified map says the serving edge is not the owner.

        An honest edge caught by an in-flight ownership change is acquitted
        at the cloud (the ownership history is checked against the signed
        statement's ``issued_at``), so the client can afford to dispute
        every non-owner response rather than guess at timing.
        """

        current_owner = self.fleet_view.shard_map.owner_of(shard_id)
        return current_owner is not None and statement.edge != current_owner

    def _replica_lease_covers(
        self,
        lease: Optional[ReplicaLease],
        statement,
        shard_id: ShardId,
    ) -> bool:
        """Whether the attached lease authorized this replica's response.

        The lease must be cloud-signed for exactly this replica and shard,
        and its expiry must cover the statement's ``issued_at`` — the rule
        :func:`repro.sharding.judges.judge_stale_replica_dispute` applies, so
        a response this check rejects is a conviction, never a guess.
        """

        if lease is None:
            return False
        if lease.statement.cloud != self.cloud or not lease.verify(
            self.env.registry
        ):
            return False
        if lease.replica != statement.edge or lease.shard_id != shard_id:
            return False
        return statement.issued_at <= lease.expires_at

    def _read_provenance(self, record: OperationRecord) -> tuple[NodeId, ...]:
        shard_id = record.details.get("shard_id")
        if shard_id is None:
            return ()
        view = self.fleet_view.shard_map
        writers = {view.owner_of(shard_id), *view.provenance_of(shard_id)}
        writers.discard(None)
        writers.discard(self._expected_edge(record))
        return tuple(sorted(writers, key=str))

    def _send_shard_dispute(
        self,
        kind: str,
        shard_id: ShardId,
        response: GetResponse,
        lease: Optional[ReplicaLease] = None,
    ) -> None:
        """Forward the serving edge's own signed *response* as evidence."""

        self.stats["shard_disputes_sent"] += 1
        self.env.send(
            self.node_id,
            self.cloud,
            ShardDispute(
                reporter=self.node_id,
                accused=response.statement.edge,
                shard_id=shard_id,
                kind=kind,
                serve_statement=response.statement,
                serve_signature=response.signature,
                lease=lease,
            ),
        )
