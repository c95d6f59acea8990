#!/usr/bin/env python3
"""Sharded edge fleet: routing, skewed load, and a certified shard handoff.

Builds a fleet of four sharded edge nodes behind one cloud, writes a
range-partitioned Zipfian workload (so the low shards run hot), lets the
load-based rebalance trigger move the hottest shard through the certified
handoff protocol, and reads the moved keys back — verified — from the new
owner.

Run with::

    PYTHONPATH=src python examples/sharded_fleet.py

Knobs (see ``repro.common.config``):

* ``SystemConfig.num_edge_nodes`` — fleet size;
* ``ShardingConfig.num_shards`` — partition granularity (more shards than
  edges lets rebalancing move load at sub-edge steps);
* ``ShardingConfig.partitioner`` — ``"hash-ring"`` (uniform) or ``"range"``
  (ordered, hotspot-prone — used here to give rebalancing work to do).

How skewed an edge's share of the logged entries must be before
``maybe_rebalance`` moves a shard is a constant,
``repro.sharding.system.REBALANCE_HOT_FACTOR`` (1.5× the fleet mean).
"""

from __future__ import annotations

from repro.common.config import (
    LoggingConfig,
    LSMerkleConfig,
    ShardingConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.log.proofs import CommitPhase
from repro.sharding import ShardedWedgeSystem
from repro.workloads.generator import KeyValueWorkload


def main() -> None:
    config = SystemConfig.paper_default().with_overrides(
        num_edge_nodes=4,
        sharding=ShardingConfig(
            num_shards=8,
            partitioner="range",
            key_space=10_000,
        ),
        logging=LoggingConfig(block_size=20, block_timeout_s=0.01),
        lsmerkle=LSMerkleConfig(level_thresholds=(4, 8, 64, 512)),
    )
    system = ShardedWedgeSystem.build(config=config, num_clients=2)
    client = system.clients[0]

    print("=== Sharded WedgeChain fleet ===")
    print(f"cloud : {system.cloud.node_id} in {system.cloud.region}")
    for edge in system.edges:
        shards = ", ".join(str(s) for s in edge.owned_shards())
        print(f"edge  : {edge.node_id} owns shards [{shards}]")
    print()

    # ------------------------------------------------------------------
    # 1. A Zipfian write workload over range partitions: the popular low
    #    key indices all land in shard 0, overloading its owner.
    # ------------------------------------------------------------------
    workload = KeyValueWorkload(
        WorkloadConfig(
            key_space=10_000,
            key_distribution="zipfian",
            zipf_theta=0.99,
            batch_size=20,
        )
    )
    operations = []
    for _ in range(40):
        for operation in client.put_batch(workload.write_batch(20)):
            operations.append((client, operation))
    assert system.wait_for_all(operations, CommitPhase.PHASE_TWO, max_time_s=300)
    system.run()

    print("after 800 Zipfian puts:")
    for edge in system.edges:
        print(f"  {edge.node_id}: {edge.stats['entries_logged']:4d} entries logged")
    print()

    # ------------------------------------------------------------------
    # 2. Rebalance: the trigger notices the hot edge and orders a certified
    #    handoff of its busiest shard to the least-loaded edge.
    # ------------------------------------------------------------------
    action = system.maybe_rebalance()
    assert action is not None, "the Zipfian hotspot should trip the trigger"
    print(f"rebalance: shard {action.shard_id}  {action.source} -> {action.dest}")
    print(f"  reason: {action.reason}")
    system.run_for(30.0)
    system.run()

    stats = system.fleet_stats()
    print(f"  handoffs granted/completed: {stats['handoffs_granted']}"
          f"/{stats['handoffs_completed']}")
    print(f"  shard map version: {stats['map_version']}")
    assert system.shard_owner(action.shard_id) == action.dest
    print()

    # ------------------------------------------------------------------
    # 3. Reads of the moved keys route to — and verify against — the new
    #    owner; the old owner answers with signed redirects if asked.
    # ------------------------------------------------------------------
    hot_key = "key" + "0" * 12  # the hottest key, in the moved shard's range
    get_op = client.get(hot_key)
    phase = system.wait_for(client, get_op, CommitPhase.PHASE_TWO, max_time_s=60)
    record = client.tracker.get(get_op)
    print(f"get {hot_key!r}: {phase} from {record.details['edge']}")
    print(f"  value: {client.value_of(get_op)!r}")
    print()
    print("fleet stats:", stats)


if __name__ == "__main__":
    main()
