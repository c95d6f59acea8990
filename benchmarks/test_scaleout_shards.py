"""Scale-out benchmark: aggregate put throughput of a sharded edge fleet.

The paper reports the performance of a single partition; this benchmark
exercises the sharded-fleet subsystem (``repro.sharding``) built on top of
it.  A fixed population of closed-loop clients drives a Zipfian(0.99)
all-write workload against fleets of 1, 4, and 16 edges:

* with one edge the fleet is the paper's deployment (CPU-bound once enough
  clients share the edge's single request loop);
* with more edges the key space spreads across shard owners and aggregate
  throughput must rise monotonically;
* a certified shard handoff is exercised end to end mid-benchmark, and a
  tampering source edge is caught and punished through the dispute path.
"""

from __future__ import annotations

from conftest import scaled

from repro.bench.results import ResultTable, print_tables
from repro.common.config import (
    LoggingConfig,
    LSMerkleConfig,
    ShardingConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.log.proofs import CommitPhase
from repro.sharding import (
    ShardedEdgeNode,
    ShardedWedgeSystem,
    TamperingHandoffEdgeNode,
)
from repro.sim.environment import local_environment
from repro.workloads.driver import LoadDriver

#: Fleet sizes swept by the scaling experiment.
FLEET_SIZES = (1, 4, 16)
NUM_CLIENTS = 48
BATCH_SIZE = 200
NUM_SHARDS = 32


def _fleet_config(num_edges: int) -> SystemConfig:
    return SystemConfig.paper_default().with_overrides(
        num_edge_nodes=num_edges,
        sharding=ShardingConfig(num_shards=NUM_SHARDS, partitioner="hash-ring"),
        logging=LoggingConfig(block_size=BATCH_SIZE, block_timeout_s=0.005),
    )


def _run_fleet(num_edges: int, operations_per_client: int, seed: int = 7):
    workload = WorkloadConfig(
        num_clients=NUM_CLIENTS,
        batch_size=BATCH_SIZE,
        key_space=100_000,
        key_distribution="zipfian",
        zipf_theta=0.99,
        operations_per_client=operations_per_client,
        seed=seed,
    )
    system = ShardedWedgeSystem.build(
        config=_fleet_config(num_edges), num_clients=NUM_CLIENTS, seed=seed
    )
    driver = LoadDriver(system, workload)
    result = driver.run(max_time_s=3600)
    assert result.all_finished
    return system, result


def test_scaleout_put_throughput(benchmark):
    """Aggregate put throughput rises monotonically from 1 → 4 → 16 edges."""

    operations_per_client = scaled(600, minimum=200)

    def sweep():
        rows = []
        for num_edges in FLEET_SIZES:
            system, result = _run_fleet(num_edges, operations_per_client)
            rows.append(
                {
                    "edges": num_edges,
                    "throughput_kops": result.throughput_ops_per_s / 1000.0,
                    "operations": result.operations_completed,
                    "requests": result.offered,
                    "blocks": sum(e.stats["blocks_formed"] for e in system.edges),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = ResultTable(
        title="Scale-out: aggregate put throughput vs fleet size "
        f"({NUM_CLIENTS} closed-loop clients, Zipfian 0.99)",
        columns=["edges", "throughput_kops", "operations", "requests", "blocks"],
    )
    for row in rows:
        table.add_row(**row)
    print_tables([table])

    throughputs = [row["throughput_kops"] for row in rows]
    # Every client completed its full quota in every configuration.
    for row in rows:
        assert row["operations"] == NUM_CLIENTS * operations_per_client
    # Monotonic scale-out: 1 → 4 → 16 edges.
    assert throughputs[0] < throughputs[1] < throughputs[2], throughputs


def test_certified_handoff_end_to_end():
    """One certified shard handoff under load: moved, verified, and served."""

    config = _fleet_config(4).with_overrides(
        logging=LoggingConfig(block_size=20, block_timeout_s=0.005),
        lsmerkle=LSMerkleConfig(level_thresholds=(4, 8, 64, 512)),
    )
    system = ShardedWedgeSystem.build(
        config=config, num_clients=4, env=local_environment(seed=11)
    )
    client = system.clients[0]
    operations = [
        (client, client.put(f"key{i:012d}", b"v%d" % i)) for i in range(400)
    ]
    assert system.wait_for_all(operations, CommitPhase.PHASE_TWO, max_time_s=300)
    system.run()

    source = system.edges[0]
    shard = max(
        source.shard_entry_counts, key=source.shard_entry_counts.get
    )
    moved_keys = [
        f"key{i:012d}"
        for i in range(400)
        if system.partitioner.shard_of(f"key{i:012d}") == shard
    ]
    assert moved_keys, "the busiest shard must hold data"
    dest = system.edges[1]
    system.rebalance_shard(shard, dest.node_id)
    system.run_for(30.0)
    system.run()

    # The certified handoff completed: countersigned, transferred, installed.
    assert system.shard_owner(shard) == dest.node_id
    assert system.cloud.stats["shard_handoffs_granted"] == 1
    assert system.cloud.stats["shard_installs"] == 1
    assert dest.stats["shard_handoffs_in"] == 1
    assert dest.shard_state(shard) is not None

    # Reads of the moved keys route to (and verify against) the new owner.
    get_op = client.get(moved_keys[0])
    phase = system.wait_for(client, get_op, CommitPhase.PHASE_TWO, max_time_s=60)
    assert phase is CommitPhase.PHASE_TWO
    record = client.tracker.get(get_op)
    assert record.details["edge"] == dest.node_id
    assert client.value_of(get_op) is not None


def test_tampered_handoff_is_rejected_and_disputed():
    """A tampered transfer digest never installs; the source is punished."""

    config = _fleet_config(2).with_overrides(
        logging=LoggingConfig(block_size=20, block_timeout_s=0.005),
        lsmerkle=LSMerkleConfig(level_thresholds=(4, 8, 64, 512)),
    )

    def factory(**kwargs):
        cls = TamperingHandoffEdgeNode if kwargs["name"] == "edge-0" else ShardedEdgeNode
        return cls(**kwargs)

    system = ShardedWedgeSystem.build(
        config=config,
        num_clients=2,
        env=local_environment(seed=11),
        edge_factory=factory,
    )
    client = system.clients[0]
    operations = [
        (client, client.put(f"key{i:012d}", b"v%d" % i)) for i in range(200)
    ]
    assert system.wait_for_all(operations, CommitPhase.PHASE_TWO, max_time_s=300)
    system.run()

    source = system.edges[0]
    shard = max(source.shard_entry_counts, key=source.shard_entry_counts.get)
    system.rebalance_shard(shard, system.edges[1].node_id)
    system.run_for(30.0)
    system.run()

    dest = system.edges[1]
    # The destination refused the tampered state and raised a dispute …
    assert dest.shard_state(shard) is None
    assert dest.stats["shard_disputes_sent"] == 1
    assert system.cloud.stats["shard_installs"] == 0
    # … and the cloud convicted the source from its own signed statement.
    assert system.cloud.stats["shard_disputes"] == 1
    assert system.cloud.ledger.is_punished(source.node_id)
