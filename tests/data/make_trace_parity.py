"""Regenerate ``tests/data/trace_parity/``.

The committed fixture was written by running this script against the
*parent* of the commit that replaced the nodes' ``isinstance`` ladders and
forked span paths with one dispatch table and one span helper
(``PYTHONPATH=<parent checkout>/src python tests/data/make_trace_parity.py
<out dir>``).  Each scenario is a seeded, observability-enabled simulated
run; its ``trace_jsonl()`` and ``prometheus_text()`` exports are the bytes
``tests/test_dispatch_table.py::TestTraceParity`` requires the refactored
nodes to reproduce exactly — same spans, same parents and links, same
counters, same order.  Together the scenarios open every span the node
classes emit: put → certify → merge (per-block, batched and windowed
dispatch), a shard handoff, a cross-shard commit and abort, and a writer
failover.
"""

from __future__ import annotations

import pathlib
import sys

from repro.common.config import (
    LoggingConfig,
    LSMerkleConfig,
    ObservabilityConfig,
    SecurityConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.core.system import WedgeChainSystem
from repro.faults import CrashEvent, FaultInjector, FaultPlan
from repro.sharding import (
    ShardedEdgeNode,
    ShardedWedgeSystem,
    UnresponsivePrepareEdgeNode,
)
from repro.sim.environment import local_environment

BLOCK = 4


def parity_config(logging=None, **overrides) -> SystemConfig:
    logging_fields = dict(block_size=BLOCK, block_timeout_s=0.02)
    logging_fields.update(logging or {})
    return SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(**logging_fields),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
        security=SecurityConfig(dispute_timeout_s=60.0),
        observability=ObservabilityConfig(enabled=True),
        **overrides,
    )


def put_blocks(client, count, prefix="k"):
    return [
        client.put_batch(
            [(f"{prefix}-{block}-{i}", b"v%d" % i) for i in range(BLOCK)]
        )
        for block in range(count)
    ]


def put_certify_merge(logging=None):
    system = WedgeChainSystem.build(
        config=parity_config(logging=logging),
        num_clients=1,
        env=local_environment(seed=11),
    )
    client = system.client(0)
    put_blocks(client, 9)
    system.run_for(10.0)
    client.get("k-3-1")
    client.read(2)
    system.run_for(5.0)
    return system


def put_certify_merge_batched():
    return put_certify_merge(
        logging=dict(certify_batch_size=2, certify_pipeline_depth=2)
    )


def put_certify_windowed():
    # A running edge pumps after every block, so several batches only leave
    # in one pump when the pump was held: hold it while six blocks form,
    # then release it once — three batches ship under one window envelope.
    system = WedgeChainSystem.build(
        config=parity_config(
            logging=dict(certify_batch_size=2, certify_pipeline_depth=4)
        ),
        num_clients=1,
        env=local_environment(seed=13),
    )
    edge = system.edge(0)
    edge._pump_certify_pipeline = lambda state, allow_partial=False: 0
    put_blocks(system.client(0), 6)
    system.run_for(0.01)
    del edge._pump_certify_pipeline
    edge._pump_certify_pipeline(edge._default_partition)
    system.run_for(10.0)
    return system


def build_sharded(seed, edge_factory=None, **sharding):
    sharding.setdefault("num_shards", 4)
    return ShardedWedgeSystem.build(
        config=parity_config(
            num_edge_nodes=sharding.pop("num_edges", 2),
            sharding=ShardingConfig(**sharding),
        ),
        num_clients=1,
        env=local_environment(seed=seed),
        edge_factory=edge_factory,
    )


def shard_handoff():
    system = build_sharded(seed=17)
    client = system.clients[0]
    for i in range(16):
        client.put(f"w-{i:04d}", b"v%d" % i)
    system.run_for(10.0)
    source = system.edges[0]
    shard_id = max(source.shard_entry_counts, key=source.shard_entry_counts.get)
    system.rebalance_shard(shard_id, system.edges[1].node_id)
    system.run_for(30.0)
    client.get("w-0003")
    system.run_for(5.0)
    return system


TXN_ITEMS = [("txn-a-key", b"1"), ("txn-b-key", b"2"), ("txn-c-key", b"3")]


def txn_commit():
    system = build_sharded(seed=19)
    client = system.clients[0]
    put_blocks(client, 2)
    system.run_for(5.0)
    client.txn_put(TXN_ITEMS)
    system.run_for(20.0)
    return system


def txn_abort():
    # Edge 1 swallows prepares, so the coordinator's receipt timer aborts
    # the transaction on the responsive participant.
    def factory(name, **kwargs):
        cls = UnresponsivePrepareEdgeNode if name == "edge-1" else ShardedEdgeNode
        return cls(name=name, **kwargs)

    system = build_sharded(seed=23, edge_factory=factory)
    client = system.clients[0]
    put_blocks(client, 2)
    system.run_for(5.0)
    client.txn_put(TXN_ITEMS)
    system.run_for(40.0)
    return system


def writer_failover():
    system = build_sharded(
        seed=111,
        num_edges=3,
        replication_factor=3,
        replica_lease_s=1.0,
        failover_timeout_s=1.0,
    )
    client = system.clients[0]
    put_blocks(client, 6, prefix="pre")
    system.run_for(3.0)
    writer = system.edge_by_id(system.shard_owner(0))
    plan = FaultPlan(seed=111, name="writer-crash").with_crash(
        CrashEvent(writer.node_id, at_s=system.env.now() + 0.05)
    )
    FaultInjector(system.env, plan).install()
    system.run_for(8.0)
    survivor = next(edge for edge in system.edges if edge is not writer)
    client.get("pre-0-0", edge=survivor.node_id)
    system.run_for(3.0)
    return system


SCENARIOS = {
    "put_certify_merge": put_certify_merge,
    "put_certify_merge_batched": put_certify_merge_batched,
    "put_certify_windowed": put_certify_windowed,
    "shard_handoff": shard_handoff,
    "txn_commit": txn_commit,
    "txn_abort": txn_abort,
    "writer_failover": writer_failover,
}


def exports(name: str) -> dict[str, str]:
    """``{file name: content}`` for one scenario's two exports."""

    obs = SCENARIOS[name]().env.obs
    return {
        f"{name}.trace.jsonl": obs.trace_jsonl(),
        f"{name}.prom.txt": obs.prometheus_text(),
    }


if __name__ == "__main__":
    out_dir = pathlib.Path(sys.argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    for scenario in SCENARIOS:
        for file_name, content in exports(scenario).items():
            (out_dir / file_name).write_text(content)
            print(f"wrote {file_name}: {len(content)} bytes")
