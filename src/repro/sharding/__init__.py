"""Sharded edge fleet: key-space partitioning, routing, certified handoff.

This subsystem turns the paper's single-edge deployment into a fleet:

* :mod:`~repro.sharding.partitioner` — ``KeyPartitioner`` with hash-ring
  and range implementations mapping keys → shard ids;
* :mod:`~repro.sharding.shard_map` — the cloud-signed, versioned shard map
  (authoritative registry + verified monotone views) and the fleet gossip
  view that folds membership into the existing log-size gossip;
* :mod:`~repro.sharding.router` — key → shard → owning edge resolution;
* :mod:`~repro.sharding.client` — the shard-aware client (routing, signed
  redirects, stale-owner detection, per-shard session consistency);
* :mod:`~repro.sharding.edge` — the sharded edge node (one partition of
  log/LSMerkle state per owned shard), with its malicious variants in
  :mod:`~repro.sharding.malicious`;
* :mod:`~repro.sharding.participant` — the 2PC participant role that edge
  lists as a base (:mod:`~repro.sharding.transactions` has the coordinator);
* :mod:`~repro.sharding.cloud` — the sharded cloud node (the paper's cloud
  plus shard-map authority: handoff countersigning, leases, failover,
  shard and 2PC disputes, judged by :mod:`~repro.sharding.judges`);
* :mod:`~repro.sharding.handoff` — the certified shard-handoff digests;
* :mod:`~repro.sharding.system` — the fleet facade.
"""

from .client import ShardedClient
from .cloud import ShardedCloudNode
from .edge import ShardedEdgeNode
from .handoff import level_roots_from_pages, shard_state_digest
from .malicious import (
    AbortIgnoringEdgeNode,
    DeposedWriterEdgeNode,
    ExpiredLeaseReplicaEdgeNode,
    StaleShardOwnerEdgeNode,
    TamperingHandoffEdgeNode,
    TamperingPrepareEdgeNode,
    UnresponsivePrepareEdgeNode,
)
from .partitioner import (
    HashRingPartitioner,
    KeyPartitioner,
    RangePartitioner,
    make_partitioner,
)
from .router import Route, ShardRouter
from .shard_map import (
    FleetGossipView,
    ShardMapView,
    ShardRegistry,
    build_shard_map_message,
    verify_shard_map,
)
from .system import RebalanceAction, ShardedWedgeSystem
from .transactions import (
    StagedTxn,
    TxnCoordinator,
    TxnRecord,
    decode_txn_decision,
    encode_txn_decision,
    is_txn_decision_payload,
)

__all__ = [
    "AbortIgnoringEdgeNode",
    "DeposedWriterEdgeNode",
    "ExpiredLeaseReplicaEdgeNode",
    "FleetGossipView",
    "HashRingPartitioner",
    "KeyPartitioner",
    "RangePartitioner",
    "RebalanceAction",
    "Route",
    "ShardMapView",
    "ShardRegistry",
    "ShardRouter",
    "ShardedClient",
    "ShardedCloudNode",
    "ShardedEdgeNode",
    "ShardedWedgeSystem",
    "StagedTxn",
    "StaleShardOwnerEdgeNode",
    "TamperingHandoffEdgeNode",
    "TamperingPrepareEdgeNode",
    "TxnCoordinator",
    "TxnRecord",
    "UnresponsivePrepareEdgeNode",
    "build_shard_map_message",
    "decode_txn_decision",
    "encode_txn_decision",
    "is_txn_decision_payload",
    "level_roots_from_pages",
    "make_partitioner",
    "shard_state_digest",
    "verify_shard_map",
]
