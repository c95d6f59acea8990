"""Seeded chaos scenarios: the protocol under injected faults.

Every scenario follows the same shape: build a deployment, install a
:class:`~repro.faults.FaultPlan` (seeded, so the fault trace is
reproducible), drive a workload through the fault window, heal, let the
edges' own certification retries drain, and assert the convictable
invariants from
:mod:`repro.faults.invariants`:

* **no lost atomicity** — no 2PC transaction both committed and aborted
  anywhere in the fleet's certified logs;
* **monotone recovery** — sampled certified-block counts never regress
  through crashes, partitions, and heals;
* **eventual full certification** — once faults quiet down and retries
  drain, every block in every live log carries a cloud proof;
* **conviction exactness** — planted misbehavior is punished, faults alone
  never convict an honest edge;
* **no honest dispute** — no client files a ``DisputeRequest`` unless an
  edge that served it ends up convicted.

Outage scenarios widen ``dispute_timeout_s``: a client disputing a
not-yet-certified block *would* convict an honest edge (the cloud cannot
distinguish "slow because partitioned" from "never certified"), which is
exactly the operational guidance the :class:`DegradedModeNotice` encodes —
throttle and widen timers during a known outage window.  The widened 20 s
also sets the edges' certify retry schedule (first retry at 10 s, then every
20 s — one probe per 20 s for the whole edge while the cloud stays silent):
every fault window here closes within 10 s, so a request lost in one is
re-sent after the heal and certified before any client's dispute.

Scenario seeds are fixed so the suite is deterministic in CI; the
determinism scenario itself runs one plan twice and compares traces.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import (
    LoggingConfig,
    LSMerkleConfig,
    SecurityConfig,
    ShardingConfig,
    StorageConfig,
    SystemConfig,
)
from repro.bench.runner import build_system, config_for_batch
from repro.common.config import WorkloadConfig
from repro.common.regions import Region
from repro.core.system import WedgeChainSystem
from repro.faults import (
    CrashEvent,
    DiskFaultRule,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InvariantViolation,
    RegionPartitionRule,
    assert_all_settled,
    assert_convicted,
    assert_full_certification,
    assert_monotone,
    assert_no_false_convictions,
    assert_no_honest_disputes,
    assert_no_lost_atomicity,
    assert_no_quarantines,
    assert_replicated_reads_served,
)
from repro.log.block import build_block
from repro.log.entry import make_entry
from repro.log.proofs import CommitPhase, issue_block_proof
from repro.lsmerkle.codec import encode_put
from repro.lsm.page import Page
from repro.lsm.records import KeyFence
from repro.messages.log_messages import BlockProofMessage
from repro.messages.shard_messages import ReplicaLogShipment
from repro.messages.txn_messages import TxnId
from repro.nodes.edge import EdgeNode
from repro.nodes.malicious import EquivocatingCertifierEdgeNode
from repro.sharding import (
    DeposedWriterEdgeNode,
    ExpiredLeaseReplicaEdgeNode,
    ShardedEdgeNode,
    ShardedWedgeSystem,
)
from repro.sharding.transactions import encode_txn_decision
from repro.sim.environment import local_environment
from repro.workloads.driver import LoadDriver
from repro.workloads.generator import format_key

BLOCK_SIZE = 4



def chaos_config(**overrides) -> SystemConfig:
    security = overrides.pop("security", None) or SecurityConfig(
        dispute_timeout_s=20.0
    )
    logging_overrides = overrides.pop("logging", {})
    logging = dict(block_size=BLOCK_SIZE, block_timeout_s=0.02)
    logging.update(logging_overrides)
    return SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(**logging),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
        security=security,
        **overrides,
    )


def build_single(seed=11, edge_factory=None, **config_overrides):
    return WedgeChainSystem.build(
        config=chaos_config(**config_overrides),
        num_clients=1,
        env=local_environment(seed=seed),
        edge_factory=edge_factory,
    )


def build_sharded(seed=17, num_edges=2, num_shards=4, **config_overrides):
    return ShardedWedgeSystem.build(
        config=chaos_config(
            num_edge_nodes=num_edges,
            sharding=ShardingConfig(num_shards=num_shards),
            **config_overrides,
        ),
        num_clients=1,
        env=local_environment(seed=seed),
    )


def build_replicated(
    seed,
    num_edges=3,
    num_shards=4,
    failover_timeout_s=1.0,
    edge_factory=None,
    **config_overrides,
):
    """A fully replicated fleet: every edge holds every shard (writer or
    replica), with tight lease/failover timers so scenarios converge fast."""

    return ShardedWedgeSystem.build(
        config=chaos_config(
            num_edge_nodes=num_edges,
            sharding=ShardingConfig(
                num_shards=num_shards,
                replication_factor=3,
                replica_lease_s=1.0,
                failover_timeout_s=failover_timeout_s,
            ),
            **config_overrides,
        ),
        num_clients=1,
        env=local_environment(seed=seed),
        edge_factory=edge_factory,
    )


def flatten_ops(ops):
    """Sharded ``put_batch`` fans out into one operation per owning edge;
    flatten the per-batch tuples into plain operation ids."""

    flat = []
    for op in ops:
        flat.extend(op) if isinstance(op, tuple) else flat.append(op)
    return flat


def written_key_in_shard(client, shard_id, blocks, prefix):
    """A key :func:`put_blocks` wrote that routes to *shard_id*."""

    return next(
        (f"{prefix}-{block}-{i}", b"v%d" % i)
        for block in range(blocks)
        for i in range(BLOCK_SIZE)
        if client.partitioner.shard_of(f"{prefix}-{block}-{i}") == shard_id
    )




def edge_cloud_partition(start_s: float, until_s: float) -> RegionPartitionRule:
    """The default placement puts edges+clients in California and the cloud
    in Virginia, so this is "the edge fleet loses the cloud"."""

    return RegionPartitionRule(
        side_a=frozenset({Region.CALIFORNIA}),
        side_b=frozenset({Region.VIRGINIA}),
        start_s=start_s,
        until_s=until_s,
    )


def certified_total(system) -> int:
    return sum(
        len(state.log) - len(state.log.uncertified_block_ids())
        for edge in system.edges
        for state in edge._partition_states()
    )


def put_blocks(client, count, prefix="k"):
    """Issue ``count`` full blocks of puts; returns the operation ids."""

    ops = []
    for block in range(count):
        items = [
            (f"{prefix}-{block}-{i}", b"v%d" % i) for i in range(BLOCK_SIZE)
        ]
        ops.append(client.put_batch(items))
    return ops


# ----------------------------------------------------------------------
# 1. Cloud outage: Phase I keeps serving, certification catches up
# ----------------------------------------------------------------------
class TestCloudOutage:
    def test_phase_one_survives_and_certification_catches_up(self):
        system = build_single(seed=101)
        client = system.client(0)
        plan = FaultPlan(seed=101, name="cloud-outage").with_partition(
            edge_cloud_partition(start_s=0.5, until_s=6.0)
        )
        injector = FaultInjector(system.env, plan).install()

        progress = [certified_total(system)]
        all_ops = []
        for round_index in range(4):
            all_ops.extend(put_blocks(client, 2, prefix=f"r{round_index}"))
            system.run_for(2.0)
            progress.append(certified_total(system))

        # Mid-outage: Phase I commitment never stopped (receipts flowed).
        assert all(
            client.phase_of(op)
            in (CommitPhase.PHASE_ONE, CommitPhase.PHASE_TWO)
            for op in all_ops
        )

        system.run_for(max(0.0, injector.faults_quiet_after() - system.env.now()))
        system.run_for(12.0)
        progress.append(certified_total(system))

        assert_monotone(progress, "certified blocks through outage")
        assert assert_full_certification(system.edges) >= 8
        assert_no_false_convictions(
            system.cloud, [edge.node_id for edge in system.edges]
        )
        assert_no_honest_disputes(system)
        assert_all_settled(system)
        # Every write reached Phase II once the cloud came back.
        assert all(
            client.phase_of(op) is CommitPhase.PHASE_TWO for op in all_ops
        )
        # The injector really did sever traffic.
        assert any(action == "partition-drop" for _, action, *_ in injector.trace)

    def test_degraded_mode_enters_and_recovers(self):
        system = build_single(
            seed=102, logging={"max_uncertified_backlog": 3}
        )
        client = system.client(0)
        edge = system.edge(0)
        # The partition opens at t=0 so the write burst's certify uplinks
        # are all lost — the backlog builds from the first block.
        plan = FaultPlan(seed=102, name="degraded").with_partition(
            edge_cloud_partition(start_s=0.0, until_s=5.0)
        )
        FaultInjector(system.env, plan).install()

        put_blocks(client, 8)
        system.run_for(4.0)
        # Backlog crossed the limit mid-outage: the edge signalled clients.
        assert edge.stats.get("degraded_entries", 0) >= 1
        assert client.stats.get("degraded_notices", 0) >= 1
        assert edge.node_id in client.degraded_edges

        system.run_for(15.0)

        # Recovery: backlog drained, the all-clear reached the client.
        assert edge.stats.get("degraded_recoveries", 0) >= 1
        assert edge.node_id not in client.degraded_edges
        assert assert_full_certification(system.edges) >= 8
        assert_no_false_convictions(system.cloud, [edge.node_id])
        assert_no_honest_disputes(system)
        assert_all_settled(system)


# ----------------------------------------------------------------------
# 2. Edge crash: volatile state lost, the certified log survives
# ----------------------------------------------------------------------
class TestEdgeCrash:
    def test_crash_loses_window_but_log_recertifies(self):
        system = build_single(seed=103)
        client = system.client(0)
        edge = system.edge(0)
        plan = FaultPlan(seed=103, name="edge-crash").with_crash(
            CrashEvent(edge.node_id, at_s=1.0, restart_at_s=2.5)
        )
        injector = FaultInjector(system.env, plan).install()

        put_blocks(client, 3, prefix="before")
        system.run_for(0.9)
        certified_before = certified_total(system)
        log_before = sum(
            len(state.log) for state in edge._partition_states()
        )

        system.run_for(2.0)  # crash at 1.0, restart at 2.5
        assert edge.stats.get("crashes", 0) == 1
        assert edge.stats.get("restarts", 0) == 1

        put_blocks(client, 3, prefix="after")
        system.run_for(12.0)

        # Durable survives: nothing that was in the log pre-crash vanished.
        log_after = sum(len(state.log) for state in edge._partition_states())
        assert log_after >= log_before
        assert certified_total(system) >= certified_before
        assert assert_full_certification(system.edges) >= log_before
        assert_no_false_convictions(system.cloud, [edge.node_id])
        assert_no_honest_disputes(system)
        assert_all_settled(system)
        assert [a for _, a, *_ in injector.trace if a in ("crash", "restart")] == [
            "crash",
            "restart",
        ]


# ----------------------------------------------------------------------
# 3. Flaky certification uplink: unified retries drain the backlog
# ----------------------------------------------------------------------
class TestFlakyUplink:
    def test_probabilistic_uplink_loss_is_retried_dry(self):
        system = build_single(seed=104)
        client = system.client(0)
        edge = system.edge(0)
        plan = (
            FaultPlan(seed=104, name="flaky-uplink")
            .with_rule(
                FaultRule(
                    "drop",
                    message_type="CertifyBatchRequest",
                    probability=0.6,
                    until_s=3.0,
                )
            )
            .with_rule(
                FaultRule(
                    "drop",
                    message_type="BlockCertifyRequest",
                    probability=0.6,
                    until_s=3.0,
                )
            )
        )
        injector = FaultInjector(system.env, plan).install()

        put_blocks(client, 6)
        system.run_for(18.0)

        assert assert_full_certification(system.edges) >= 6
        # The drops really happened and the retry machinery really fired.
        assert sum(injector.rule_fire_counts()) >= 1
        assert edge.stats["certify_retries"] >= 1
        assert_no_false_convictions(system.cloud, [edge.node_id])
        assert_no_honest_disputes(system)
        assert_all_settled(system)


# ----------------------------------------------------------------------
# 4. Dropped 2PC decisions: retransmission preserves atomicity
# ----------------------------------------------------------------------
class TestTxnDecisionLoss:
    def test_dropped_decisions_retransmit_and_stay_atomic(self):
        system = build_sharded(seed=105)
        client = system.clients[0]
        plan = FaultPlan(seed=105, name="decision-loss").with_rule(
            FaultRule("drop", message_type="TxnDecisionMessage", max_count=2)
        )
        injector = FaultInjector(system.env, plan).install()

        items = []
        index = 0
        shards_seen: set[int] = set()
        while len(shards_seen) < 3:
            key = format_key(index)
            shard = client.partitioner.shard_of(key)
            if shard not in shards_seen:
                shards_seen.add(shard)
                items.append((key, b"txn-%d" % shard))
            index += 1

        txn_id = client.txn_put(items)
        system.run_for(30.0)

        assert injector.rule_fire_counts() == (2,)
        assert client.txns.state_of(txn_id) == "committed"
        assert client.stats["txn_decision_retries"] >= 1
        decisions = assert_no_lost_atomicity(system.edges)
        # Every participant shard applied exactly the commit decision.
        applied = [
            outcome
            for appliers in decisions.values()
            for _edge, outcome in appliers
        ]
        assert applied and set(applied) == {"commit"}
        assert_all_settled(system)


# ----------------------------------------------------------------------
# 5. Destination crash mid-handoff: retransmission re-delivers the shard
# ----------------------------------------------------------------------
class TestHandoffCrash:
    def test_dest_crash_between_grant_and_transfer_recovers(self):
        system = build_sharded(seed=106)
        client = system.clients[0]
        operations = [
            (client, client.put(format_key(i), b"v%d" % i)) for i in range(24)
        ]
        assert system.wait_for_all(operations, CommitPhase.PHASE_TWO)
        system.run_for(1.0)

        source = system.edges[0]
        shard = max(
            source.shard_entry_counts, key=source.shard_entry_counts.get
        )
        dest = system.edges[1]

        now = system.env.now()
        plan = FaultPlan(seed=106, name="handoff-crash").with_crash(
            CrashEvent(dest.node_id, at_s=now + 0.01, restart_at_s=now + 2.0)
        )
        FaultInjector(system.env, plan).install()
        system.rebalance_shard(shard, dest.node_id)
        system.run_for(25.0)

        # The transfer was lost against the crashed destination, retried on
        # the capped-exponential schedule, and installed after the restart.
        assert dest.shard_state(shard) is not None
        assert source.shard_state(shard) is None
        assert source.stats["shard_transfer_retries"] >= 1
        assert source.stats["shard_transfer_acks"] == 1
        assert not source._outgoing_transfers
        assert system.cloud.stats["shard_installs"] == 1
        assert_no_false_convictions(
            system.cloud, [edge.node_id for edge in system.edges]
        )
        assert_no_honest_disputes(system)
        assert_all_settled(system)


# ----------------------------------------------------------------------
# 6. Duplicate storm: at-least-once delivery never double-applies
# ----------------------------------------------------------------------
class TestDuplicateStorm:
    def test_duplicated_messages_apply_once(self):
        system = build_single(seed=107)
        client = system.client(0)
        edge = system.edge(0)
        plan = FaultPlan(seed=107, name="dup-storm").with_rule(
            FaultRule("duplicate", probability=0.8, until_s=3.0, spread_s=0.05)
        )
        injector = FaultInjector(system.env, plan).install()

        ops = put_blocks(client, 5)
        system.run_for(20.0)

        assert sum(injector.rule_fire_counts()) >= 5
        assert all(
            client.phase_of(op) is CommitPhase.PHASE_TWO for op in ops
        )
        # Exactly the written entries appear in the log — duplicated appends
        # were absorbed by replay protection, not applied twice.
        total_entries = sum(
            len(record.block.entries)
            for state in edge._partition_states()
            for record in state.log
        )
        assert total_entries == 5 * BLOCK_SIZE
        assert assert_full_certification(system.edges) >= 5
        assert_no_false_convictions(system.cloud, [edge.node_id])
        assert_no_honest_disputes(system)
        assert_all_settled(system)


# ----------------------------------------------------------------------
# 7. WAN weather: reorder + delay, everything still settles
# ----------------------------------------------------------------------
class TestReorderDelay:
    def test_reordered_and_delayed_wan_settles_clean(self):
        system = build_single(seed=108)
        client = system.client(0)
        plan = (
            FaultPlan(seed=108, name="wan-weather")
            .with_rule(
                FaultRule(
                    "reorder", probability=0.5, until_s=2.5, spread_s=0.3
                )
            )
            .with_rule(
                FaultRule(
                    "delay",
                    message_type="BatchCertificateMessage",
                    probability=0.5,
                    until_s=2.5,
                    delay_s=0.4,
                )
            )
        )
        injector = FaultInjector(system.env, plan).install()

        ops = put_blocks(client, 6)
        system.run_for(20.0)

        assert sum(injector.rule_fire_counts()) >= 1
        assert all(
            client.phase_of(op) is CommitPhase.PHASE_TWO for op in ops
        )
        assert assert_full_certification(system.edges) >= 6
        assert_no_false_convictions(
            system.cloud, [edge.node_id for edge in system.edges]
        )
        assert_no_honest_disputes(system)
        assert_all_settled(system)


# ----------------------------------------------------------------------
# 8. Malice under cover of faults is still convicted — and only malice
# ----------------------------------------------------------------------
class TestMaliceUnderFaults:
    def test_equivocator_convicted_despite_message_loss(self):
        def factory(env, cloud, cfg, name, region):
            cls = EquivocatingCertifierEdgeNode if name == "edge-0" else EdgeNode
            return cls(env=env, cloud=cloud, config=cfg, name=name, region=region)

        system = build_single(
            seed=109, edge_factory=factory, num_edge_nodes=2
        )
        guilty = system.edges[0]
        honest = system.edges[1]
        plan = FaultPlan(seed=109, name="malice-under-faults").with_rule(
            FaultRule("drop", probability=0.3, until_s=2.0)
        )
        FaultInjector(system.env, plan).install()

        # Both clients write through their own edge (round-robin placement
        # gave the system one client on the guilty edge).
        client = system.client(0)
        put_blocks(client, 4)
        system.run_for(25.0)

        assert_convicted(system.cloud, [guilty.node_id])
        assert_no_false_convictions(system.cloud, [honest.node_id])


# ----------------------------------------------------------------------
# 9. Determinism: same plan + same seed ⇒ same fault trace, same outcome
# ----------------------------------------------------------------------
class TestDeterminism:
    @staticmethod
    def _run_once():
        system = build_single(seed=110)
        client = system.client(0)
        plan = (
            FaultPlan(seed=110, name="determinism")
            .with_rule(FaultRule("drop", probability=0.4, until_s=2.0))
            .with_rule(
                FaultRule(
                    "duplicate", probability=0.3, until_s=2.0, spread_s=0.1
                )
            )
            .with_partition(edge_cloud_partition(start_s=2.5, until_s=4.0))
            .with_crash(
                CrashEvent(
                    system.edge(0).node_id, at_s=4.5, restart_at_s=5.5
                )
            )
        )
        injector = FaultInjector(system.env, plan).install()
        put_blocks(client, 5)
        system.run_for(25.0)
        return (
            tuple(injector.trace),
            injector.rule_fire_counts(),
            certified_total(system),
            system.env.network.stats.dropped_sends,
        )

    def test_same_seed_twice_identical(self):
        first = self._run_once()
        second = self._run_once()
        assert first == second
        trace, fired, certified, dropped = first
        assert trace and sum(fired) >= 1 and certified >= 1 and dropped >= 1


# ----------------------------------------------------------------------
# 10. Observability overhead: a pure observer, cheap when on, free when off
# ----------------------------------------------------------------------
class TestObservabilityOverhead:
    """The PR 8 observability layer under the chaos workload.

    Three claims: with observability *off* (the paper default) the hot path
    pays exactly one attribute check — no obs objects exist anywhere in the
    deployment; with it *on* the same seeded chaos scenario lands the same
    protocol outcome; and the put path of a real 1-edge fleet (the perf
    suite's ``obs_overhead`` row) slows down by a bounded factor with it on.
    That factor measured 1.05 (130 adjacent pairs, quartiles 0.99 / 1.11),
    so the "<5%" this suite used to quote — measured on four registry calls
    beside an LSM loop, never on a node — is **not met**; ROADMAP direction 4
    owns winning it back.
    """

    #: Measured median pair ratio (1.05) plus the quartile distance of the
    #: pair ratios (0.12).  Lower it when ``repro.obs`` gets cheaper.
    OVERHEAD_LIMIT = 1.17

    WORKLOAD_BLOCKS = 5

    @staticmethod
    def _chaos_outcome(observability):
        from repro.common.config import ObservabilityConfig  # noqa: F401

        system = build_single(seed=110, observability=observability)
        client = system.client(0)
        plan = (
            FaultPlan(seed=110, name="obs-overhead")
            .with_rule(FaultRule("drop", probability=0.4, until_s=2.0))
            .with_rule(
                FaultRule(
                    "duplicate", probability=0.3, until_s=2.0, spread_s=0.1
                )
            )
        )
        injector = FaultInjector(system.env, plan).install()
        put_blocks(client, TestObservabilityOverhead.WORKLOAD_BLOCKS)
        system.run_for(25.0)
        return system, (
            tuple(injector.trace),
            injector.rule_fire_counts(),
            certified_total(system),
            system.env.network.stats.dropped_sends,
            system.env.network.stats.wan_bytes,
        )

    def test_disabled_observability_is_structurally_absent(self):
        from repro.common.config import ObservabilityConfig

        system, _ = self._chaos_outcome(ObservabilityConfig())
        assert system.env.obs is None
        assert system.env.network._obs is None
        assert system.env.network._obs_registry is None
        edge = system.edge(0)
        assert type(edge.stats) is dict
        assert type(system.cloud.stats) is dict
        assert edge._metrics is None and edge._obs_tracer is None

    def test_enabled_observability_is_a_pure_observer(self):
        from repro.common.config import ObservabilityConfig

        on_system, on_outcome = self._chaos_outcome(
            ObservabilityConfig(enabled=True)
        )
        off_system, off_outcome = self._chaos_outcome(ObservabilityConfig())
        # Same fault trace, same certified totals, same WAN byte accounting:
        # the instrumentation observed the run without perturbing it.
        assert on_outcome == off_outcome
        assert dict(on_system.edge(0).stats) == dict(off_system.edge(0).stats)
        # And the observer actually saw the run.
        tracer = on_system.env.obs.tracer
        assert tracer.spans_named("phase1.commit")
        assert tracer.spans_named("certify.absorb")

    def test_enabled_overhead_under_five_percent(self):
        """Fleet put path, observability on vs off: bounded median pair ratio.

        (The name is the test's id since PR 8; the bound is
        ``OVERHEAD_LIMIT``, see the class docstring.)  Both sides run the
        ``obs_overhead`` row's own helper — ten 100-put batches to Phase II
        on a real 1-edge fleet, one fresh fleet per repeat — differing only
        in ``ObservabilityConfig.enabled``, and are compared *pair by pair*:
        each ratio divides two runs adjacent in time, so a host whose speed
        flips between pairs scales both sides of a ratio alike instead of
        deciding it, and the median over the pairs discards the pairs a flip
        lands inside.  Which side runs first alternates, so whatever the
        second run of a pair inherits from the first cancels in the median.
        Single pairs scatter by about +-10%, so the test keeps pairing (to a
        hard cap) until the running median of at least ten pairs is under
        the limit.  The collector is paused during the timed runs so garbage
        left by earlier tests in the session can't bill a GC cycle to
        whichever variant happens to trigger it.
        """

        import gc as _gc
        import random as _random
        import statistics as _statistics

        from repro.bench.perf import _bench_put_fleet

        def timed(observability: bool) -> float:
            return _bench_put_fleet(
                "obs_pair", _random.Random(7), True, observability
            ).p50_ms

        limit = self.OVERHEAD_LIMIT
        ratios = []
        for _round in range(8):
            _gc.collect()
            _gc.disable()
            try:
                for _ in range(5):
                    if len(ratios) % 2:
                        instrumented = timed(True)
                        plain = timed(False)
                    else:
                        plain = timed(False)
                        instrumented = timed(True)
                    ratios.append(instrumented / plain)
            finally:
                _gc.enable()
            ratio = _statistics.median(ratios)
            if len(ratios) >= 10 and ratio < limit:
                break
        assert ratio < limit, f"observability overhead {ratio:.3f}x exceeds {limit}x"


# ----------------------------------------------------------------------
# 11. Writer loss in a replica group: certified failover, reads never stop
# ----------------------------------------------------------------------
class TestWriterCrashFailover:
    """Crash a replicated shard's certifying writer and never bring it back.

    The replica group's promise: reads on the writer's shards keep being
    served (first under the surviving replicas' freshness leases, then by
    the promoted writer), the cloud promotes the freshest replica through
    the countersigned handoff path, no committed-and-replicated write is
    lost, and no honest node is convicted — all without signing a single
    new data byte during the failover.
    """

    WORKLOAD_BLOCKS = 6

    @classmethod
    def _run(cls, seed, **build_kwargs):
        system = build_replicated(seed, **build_kwargs)
        client = system.clients[0]

        ops = flatten_ops(put_blocks(client, cls.WORKLOAD_BLOCKS, prefix="pre"))
        # Phase II completes and at least one shipping interval passes, so
        # every certified block is installed on both replicas pre-crash.
        system.run_for(3.0)
        assert all(
            client.phase_of(op) is CommitPhase.PHASE_TWO for op in ops
        )

        writer = system.edge_by_id(system.shard_owner(0))
        crashed_shards = tuple(writer.owned_shards())
        survivors = [edge for edge in system.edges if edge is not writer]
        for survivor in survivors:
            assert survivor.stats["replica_shipments_installed"] >= 1

        now = system.env.now()
        plan = FaultPlan(seed=seed, name="writer-crash").with_crash(
            CrashEvent(writer.node_id, at_s=now + 0.05)  # never restarts
        )
        injector = FaultInjector(system.env, plan).install()

        # Probe reads on a crashed shard against the surviving replica-set
        # members through the whole outage: the lease window, the failover
        # countdown, and the post-promotion regime.  (A read routed at the
        # dead writer just vanishes — replication's promise is about the
        # survivors.)
        probe_shard = crashed_shards[0]
        probe_key, probe_value = written_key_in_shard(
            client, probe_shard, cls.WORKLOAD_BLOCKS, "pre"
        )
        samples = []
        for _ in range(10):
            for survivor in survivors:
                op = client.get(probe_key, edge=survivor.node_id)
                system.run_for(0.4)
                record = client.tracker.get(op)
                served = (
                    client.phase_of(op)
                    in (CommitPhase.PHASE_ONE, CommitPhase.PHASE_TWO)
                    and record.details.get("value") == probe_value
                )
                samples.append((system.env.now(), probe_shard, served))
        assert_replicated_reads_served(samples)

        # The cloud noticed the silence and promoted a replica for every
        # shard the dead writer certified, via the countersigned map path.
        assert system.cloud.stats["shard_failovers_started"] >= 1
        assert system.cloud.stats["replica_promotions"] == len(crashed_shards)
        assert system.cloud.shard_registry.version > 1
        for shard_id in crashed_shards:
            new_owner = system.shard_owner(shard_id)
            assert new_owner != writer.node_id
            promoted = system.edge_by_id(new_owner)
            assert promoted.stats["shard_promotions"] >= 1
            assert shard_id in promoted.owned_shards()
            assert writer.node_id in system.cloud.shard_registry.provenance_of(
                shard_id
            )

        # No committed write lost: every pre-crash write reads back, with a
        # proof the client verifies against the promoted writers' roots.
        readback = []
        for block in range(cls.WORKLOAD_BLOCKS):
            for i in range(BLOCK_SIZE):
                key = f"pre-{block}-{i}"
                owner = system.shard_owner(client.partitioner.shard_of(key))
                readback.append((client.get(key, edge=owner), b"v%d" % i))
        system.run_for(3.0)
        for op, expected in readback:
            assert client.phase_of(op) is CommitPhase.PHASE_TWO
            assert client.tracker.get(op).details.get("value") == expected

        assert_full_certification(survivors)
        assert_no_false_convictions(
            system.cloud, [edge.node_id for edge in system.edges]
        )
        assert_no_honest_disputes(system)
        assert_all_settled(system)
        summary = (
            tuple(injector.trace),
            tuple(
                (shard_id, str(system.shard_owner(shard_id)))
                for shard_id in range(4)
            ),
            system.cloud.stats["replica_promotions"],
            system.cloud.shard_registry.version,
        )
        return summary

    def test_volatile_writer_crash_fails_over(self):
        self._run(111)

    def test_durable_writer_crash_fails_over(self, tmp_path):
        self._run(
            112,
            storage=StorageConfig(
                backend="disk", root_dir=str(tmp_path), fsync="always"
            ),
        )

    def test_same_seed_same_promotion(self):
        assert self._run(116) == self._run(116)


class TestDeposedWriterEndsItsRetries:
    """A writer cut off from the cloud forms a block whose certify request
    is lost (its retry chain armed), is deposed by a failover, and learns
    the new map as the partition heals — before its first retry.  The
    retired partition's certificates would be dropped as strays, so its
    chains must end with it instead of re-sending for the writer's life.

    The block itself stays uncertified, so its client's dispute still
    convicts the deposed writer, as it did before certify retries existed;
    only a retired partition whose certifier stays reachable until it runs
    dry would spare it (an open ROADMAP item, pinned below as a strict
    ``xfail``)."""

    @staticmethod
    def _depose_writer_mid_certify():
        """Run the scenario up to the deposed writer learning the new map.

        Returns the system, the writer and every event scheduled since the
        start, so a test can look for a retry still armed.
        """

        system = build_replicated(117)
        client = system.clients[0]
        scheduler = system.env.scheduler
        scheduled = []
        schedule_at = scheduler.schedule_at

        def recording(when, callback, *args, **kwargs):
            handle = schedule_at(when, callback, *args, **kwargs)
            scheduled.append(handle)
            return handle

        scheduler.schedule_at = recording
        put_blocks(client, 4, prefix="pre")
        system.run_for(1.4)
        writer = system.edge_by_id(system.shard_owner(0))
        cloud = system.cloud.node_id
        now = system.env.now()
        heal_at = now + 8.0  # the first retry is due 10 s after the send
        plan = (
            FaultPlan(seed=117, name="deposed-honest-writer")
            .with_rule(
                FaultRule("drop", src=writer.node_id, dst=cloud, until_s=heal_at)
            )
            .with_rule(
                FaultRule("drop", src=cloud, dst=writer.node_id, until_s=heal_at)
            )
        )
        FaultInjector(system.env, plan).install()
        keys = [
            key
            for key in (f"cut-{i}" for i in range(200))
            if client.partitioner.shard_of(key) == 0
        ][:BLOCK_SIZE]
        client.put_batch([(key, b"x") for key in keys])
        system.run_for(0.5)
        state = writer.shard_state(0)
        (lost,) = state.log.uncertified_block_ids()
        assert state.certifier.task(lost).retry is not None

        system.run_for(heal_at - system.env.now())
        assert system.shard_owner(0) != writer.node_id
        system.env.send(cloud, writer.node_id, system.cloud.current_shard_map())
        system.run_for(0.1)
        assert 0 not in writer.owned_shards()
        assert writer.stats["shard_depositions"] >= 1
        return system, writer, scheduled

    def test_retired_partition_leaves_no_retry_behind(self):
        system, writer, scheduled = self._depose_writer_mid_certify()
        system.run_for(3 * system.config.security.dispute_timeout_s)
        assert writer.stats["certify_retries"] == 0
        assert not [
            handle
            for handle in scheduled
            if handle.label == f"{writer.node_id}:certify-retry"
            and not handle.cancelled
            and handle.time > system.env.now()
        ]
        assert_no_false_convictions(
            system.cloud,
            [edge.node_id for edge in system.edges if edge is not writer],
        )

    @pytest.mark.xfail(
        strict=True,
        raises=InvariantViolation,
        reason="the deposed writer's uncertified block never certifies, so "
        "its client's dispute convicts the honest writer",
    )
    def test_honest_deposed_writer_is_not_convicted(self):
        system, writer, _ = self._depose_writer_mid_certify()
        system.run_for(3 * system.config.security.dispute_timeout_s)
        assert system.clients[0].stats["disputes_sent"] >= 1
        assert_no_false_convictions(system.cloud, [writer.node_id])


# ----------------------------------------------------------------------
# 12. Disk-quarantined writer: PR 7's dead-end becomes a failover trigger
# ----------------------------------------------------------------------
class TestQuarantineFailover:
    def test_quarantined_writer_shard_fails_over(self, tmp_path):
        # A huge silence timeout isolates the trigger under test: only the
        # restarted writer's own quarantine notice may start the failover.
        system = build_replicated(
            113,
            failover_timeout_s=30.0,
            storage=StorageConfig(
                backend="disk",
                root_dir=str(tmp_path),
                fsync="always",
                segment_max_bytes=512,
                truncate_on_snapshot=False,
            ),
        )
        client = system.clients[0]
        writer = system.edge_by_id(system.shard_owner(0))
        victim_shard = 0
        plan = (
            FaultPlan(seed=113, name="writer-quarantine")
            .with_disk_fault(
                DiskFaultRule(
                    node=writer.node_id,
                    kind="bit_flip",
                    at_s=0.1,
                    count=1,
                    shard_id=victim_shard,
                )
            )
            .with_crash(CrashEvent(writer.node_id, at_s=2.0, restart_at_s=3.0))
        )
        injector = FaultInjector(system.env, plan).install()

        # Arm first, then write into the victim shard: the first durable
        # append there lands checksummed-and-wrong in a sealed segment.
        system.run_for(0.3)
        keys = []
        index = 0
        while len(keys) < BLOCK_SIZE * 4:
            key = f"flip-{index}"
            if client.partitioner.shard_of(key) == victim_shard:
                keys.append(key)
            index += 1
        for batch in range(4):
            client.put_batch(
                [
                    (key, b"q%d" % batch)
                    for key in keys[batch * BLOCK_SIZE : (batch + 1) * BLOCK_SIZE]
                ]
            )
        system.run_for(1.5)  # certified and shipped before the crash at 2.0

        # Crash, restart, recovery quarantines the corrupt partition, the
        # notice reaches the cloud, and the very next tick promotes — no
        # lease-expiry wait, since a quarantined partition refuses service.
        system.run_for(4.0)

        assert any(
            action == "disk:bit_flip" for _, action, *_ in injector.trace
        )
        assert writer.stats.get("partitions_quarantined", 0) >= 1
        assert system.cloud.stats["shard_quarantine_notices"] >= 1
        assert system.cloud.stats["replica_promotions"] >= 1
        new_owner = system.shard_owner(victim_shard)
        assert new_owner != writer.node_id

        # The shard the quarantine orphaned serves verified reads again.
        op = client.get(keys[0], edge=new_owner)
        system.run_for(1.0)
        assert client.phase_of(op) in (
            CommitPhase.PHASE_ONE,
            CommitPhase.PHASE_TWO,
        )
        assert client.tracker.get(op).details.get("value") == b"q0"
        # An honest edge with a corrupt disk loses the shard, not its bond.
        assert_no_false_convictions(
            system.cloud, [edge.node_id for edge in system.edges]
        )
        assert_no_honest_disputes(system)
        assert_all_settled(system)


# ----------------------------------------------------------------------
# 13. Misbehavior around failover is convicted — and only misbehavior
# ----------------------------------------------------------------------
class TestFailoverMisbehaviorConvicted:
    def test_deposed_writer_that_keeps_serving_is_convicted(self):
        def factory(env, cloud, config, name, region, partitioner):
            cls = DeposedWriterEdgeNode if name == "edge-0" else ShardedEdgeNode
            return cls(
                env=env,
                cloud=cloud,
                config=config,
                name=name,
                region=region,
                partitioner=partitioner,
            )

        system = build_replicated(114, edge_factory=factory)
        client = system.clients[0]
        rogue = system.edges[0]

        ops = flatten_ops(put_blocks(client, 4, prefix="pre"))
        system.run_for(1.4)
        assert all(
            client.phase_of(op) is CommitPhase.PHASE_TWO for op in ops
        )
        rogue_shard = rogue.owned_shards()[0]

        # Partition the rogue writer from the cloud (both directions,
        # forever): silence triggers failover, and the deposing map would
        # not reach it anyway — which suits a node built to ignore it.
        plan = (
            FaultPlan(seed=114, name="deposed-writer")
            .with_rule(
                FaultRule("drop", src=rogue.node_id, dst=system.cloud.node_id)
            )
            .with_rule(
                FaultRule("drop", src=system.cloud.node_id, dst=rogue.node_id)
            )
        )
        FaultInjector(system.env, plan).install()
        system.run_for(6.0)  # silence timeout + writer lease expiry + grant
        assert system.shard_owner(rogue_shard) != rogue.node_id

        # Hand the deposing map straight to the rogue (the partition would
        # drop a sent copy): it ignores the map and keeps the shard.
        rogue.on_message(system.cloud.node_id, system.cloud.current_shard_map())
        assert rogue.stats["maps_ignored"] >= 1
        assert rogue_shard in rogue.owned_shards()

        # The rogue still answers gets for the shard it lost, with a lease
        # it pretends never expired.  One signed response convicts it.
        probe_key, _ = written_key_in_shard(client, rogue_shard, 4, "pre")
        op = client.get(probe_key, edge=rogue.node_id)
        system.run_for(2.0)

        assert client.phase_of(op) is not CommitPhase.PHASE_TWO
        assert_convicted(system.cloud, [rogue.node_id])
        assert_no_false_convictions(
            system.cloud, [edge.node_id for edge in system.edges[1:]]
        )

    def test_replica_serving_past_lease_is_convicted(self):
        def factory(env, cloud, config, name, region, partitioner):
            cls = (
                ExpiredLeaseReplicaEdgeNode
                if name == "edge-1"
                else ShardedEdgeNode
            )
            return cls(
                env=env,
                cloud=cloud,
                config=config,
                name=name,
                region=region,
                partitioner=partitioner,
            )

        system = build_replicated(115, edge_factory=factory)
        client = system.clients[0]
        rogue = system.edges[1]  # replica of shard 0 (owner edge-0)

        ops = flatten_ops(put_blocks(client, 4, prefix="pre"))
        system.run_for(2.0)  # certified, shipped, leases flowing
        assert all(
            client.phase_of(op) is CommitPhase.PHASE_TWO for op in ops
        )
        assert rogue.stats["replica_shipments_installed"] >= 1

        # Cut only the lease stream to the rogue: an honest replica would
        # stop serving when its last lease lapses; this one keeps going.
        plan = FaultPlan(seed=115, name="stale-replica").with_rule(
            FaultRule(
                "drop",
                message_type="ReplicaLease",
                dst=rogue.node_id,
                start_s=system.env.now(),
            )
        )
        FaultInjector(system.env, plan).install()
        system.run_for(2.5)  # well past the 1s lease it still holds

        probe_key, _ = written_key_in_shard(client, 0, 4, "pre")
        op = client.get(probe_key, edge=rogue.node_id)
        system.run_for(2.0)

        assert client.phase_of(op) is not CommitPhase.PHASE_TWO
        assert client.stats.get("stale_replica_detections", 0) >= 1
        assert_convicted(system.cloud, [rogue.node_id])
        assert_no_false_convictions(
            system.cloud,
            [system.edges[0].node_id, system.edges[2].node_id],
        )


# ----------------------------------------------------------------------
# 14. A lying writer cannot poison a replica's mirror
# ----------------------------------------------------------------------
def _with_first_page(shipment, forge):
    """*shipment* with the first page of its first shipped level replaced."""

    (level_index, pages), *rest = shipment.level_pages
    pages = (forge(pages[0]), *pages[1:])
    return dataclasses.replace(shipment, level_pages=((level_index, pages), *rest))


def _forged_value(page):
    # Same keys, same fence: only the page digest (hence the level root)
    # gives the forged record away.
    records = (dataclasses.replace(page.records[0], value=b"forged"), *page.records[1:])
    return Page(records=records, fence=page.fence, created_at=page.created_at)


def _narrowed_fence(page):
    # The level no longer starts at the minimum key: not contiguous.
    fence = KeyFence(lower=page.records[0].key, upper=page.fence.upper)
    return Page(records=page.records, fence=fence, created_at=page.created_at)


SHIPMENT_LIES = {
    "forged-level-page": lambda s: _with_first_page(s, _forged_value),
    "pages-without-signed-root": lambda s: dataclasses.replace(s, signed_root=None),
    "broken-contiguity": lambda s: _with_first_page(s, _narrowed_fence),
    "level-out-of-range": lambda s: dataclasses.replace(
        s, level_pages=(*s.level_pages, (99, s.level_pages[0][1]))
    ),
}


class TestLyingWriterShipmentRefused:
    """Shipped level pages are untrusted until they hash to the cloud-signed
    root: a shipment whose pages do not is refused whole — counted, not
    acked, the mirror untouched, nothing raised out of the handler — and
    the next honest shipment installs."""

    @pytest.mark.parametrize("lie", sorted(SHIPMENT_LIES))
    def test_lie_is_refused_and_the_next_honest_shipment_installs(self, lie):
        system = build_replicated(11)
        shipments = []

        def capture(src, dst, message):
            if isinstance(message, ReplicaLogShipment) and message.level_pages:
                shipments.append(message)
            return True

        system.env.network.add_send_hook("capture-shipments", capture)
        put_blocks(system.clients[0], 8, prefix="pre")
        system.run_for(3.0)
        system.env.network.remove_send_hook("capture-shipments")

        honest = shipments[-1]
        replica = system.edge_by_id(honest.replica)
        mirror = replica._replica_states[honest.shard_id]
        index, signed_root = mirror.index, mirror.signed_root
        assert signed_root is not None and index.roots_match(signed_root)
        before = dict(replica.stats)
        sent = system.env.network.stats.messages_sent

        replica.on_message(honest.writer, SHIPMENT_LIES[lie](honest))

        assert replica.stats["replica_shipments_rejected"] == (
            before["replica_shipments_rejected"] + 1
        )
        assert replica.stats["replica_shipments_installed"] == (
            before["replica_shipments_installed"]
        )
        assert mirror.index is index and mirror.signed_root is signed_root
        assert system.env.network.stats.messages_sent == sent  # no ack

        replica.on_message(honest.writer, honest)

        assert replica.stats["replica_shipments_installed"] == (
            before["replica_shipments_installed"] + 1
        )
        assert mirror.index is not index
        assert mirror.index.roots_match(mirror.signed_root)


# ----------------------------------------------------------------------
# No faults at all: the paper's default path accuses nobody
# ----------------------------------------------------------------------
class TestHonestFleetNeverDisputes:
    def test_sim_mixed_shaped_run_raises_no_dispute(self):
        """The ``sim_mixed`` shape (benchmarks/e2e README finding 8): three
        edges, one closed-loop client each, 100-record batches, then 50 %
        gets.  A certificate that overtook its 0.2 MB ``GetResponse`` used
        to be forgotten and the get disputed ``dispute_timeout_s`` later."""

        config = config_for_batch(100).with_overrides(num_edge_nodes=3)
        system = build_system("wedgechain", config=config, num_clients=3)
        for stream, operations, read_fraction in ((0, 2000, 0.0), (1, 2500, 0.5)):
            workload = WorkloadConfig(
                num_clients=3,
                batch_size=100,
                value_size=100,
                read_fraction=read_fraction,
                key_space=20_000,
                operations_per_client=operations,
                seed=7 * 2 + stream,
            )
            driver = LoadDriver(system, workload)
            driver.start()
            assert driver.run().all_finished
            system.run()  # drain: timers fire, every put reaches Phase II

        assert_no_honest_disputes(system)
        assert_all_settled(system)
        assert system.cloud.stats["disputes"] == 0
        assert system.stats().failed_operations == 0
        assert assert_full_certification(system.edges) > 0

    def test_invariant_catches_a_dispute_against_an_honest_edge(self):
        system = build_single(seed=104)
        client, edge = system.client(0), system.edge(0)
        (op,) = put_blocks(client, 1)
        system.run_for(5.0)
        assert_no_honest_disputes(system)
        # A cloud-signed certificate for a digest the honest edge never
        # promised: the client disputes, the cloud acquits.
        forged = issue_block_proof(
            system.env.registry,
            system.cloud.node_id,
            edge.node_id,
            client.operation(op).block_id,
            "e" * 64,
            1.0,
        )
        get = client.get("k-0-0")
        client.tracker.watch_block(get, forged.block_id, "f" * 64)
        client.on_message(system.cloud.node_id, BlockProofMessage(proof=forged))
        system.run_for(5.0)
        assert not system.cloud.ledger.is_punished(edge.node_id)
        with pytest.raises(InvariantViolation, match="never-convicted"):
            assert_no_honest_disputes(system)


# ----------------------------------------------------------------------
# Every invariant can fail: one planted violation per branch
# ----------------------------------------------------------------------
def _plant_block(system, edge, block_id, payloads):
    """Append an uncertified block of client-signed *payloads* to *edge*'s
    first partition log, as a misbehaving or unlucky edge would hold it."""

    client = system.clients[0]
    entries = [
        make_entry(system.env.registry, client.node_id, 10_000 + i, payload, 0.0)
        for i, payload in enumerate(payloads)
    ]
    state = next(iter(edge._partition_states()))
    state.log.append(build_block(edge.node_id, block_id, entries, created_at=0.0))
    return state


class TestEveryInvariantCanFail:
    """Each ``raise InvariantViolation`` branch, raised by a planted
    violation (the honest-dispute branch is planted by
    ``TestHonestFleetNeverDisputes``)."""

    def test_commit_and_abort_of_one_transaction(self):
        system = build_sharded()
        txn_id = TxnId(coordinator=system.clients[0].node_id, sequence=7)
        for edge, decision in zip(system.edges, ("commit", "abort")):
            _plant_block(system, edge, 10_000, [encode_txn_decision(txn_id, decision)])
        with pytest.raises(InvariantViolation, match="lost atomicity"):
            assert_no_lost_atomicity(system.edges)

    def test_uncertified_block_after_heal(self):
        system = build_single()
        _plant_block(system, system.edge(0), 10_000, [encode_put("k", b"v")])
        with pytest.raises(InvariantViolation, match="uncertified blocks"):
            assert_full_certification(system.edges)

    def test_quarantined_partition(self):
        system = build_single()
        state = next(iter(system.edge(0)._partition_states()))
        state.quarantined = "planted corruption"
        with pytest.raises(InvariantViolation, match="quarantined"):
            assert_full_certification(system.edges)
        with pytest.raises(InvariantViolation, match="quarantined partitions"):
            assert_no_quarantines(system.edges)

    def test_unconvicted_misbehavior(self):
        system = build_single()
        with pytest.raises(InvariantViolation, match="never convicted"):
            assert_convicted(system.cloud, [system.edge(0).node_id])

    def test_conviction_of_an_honest_edge(self):
        system = build_single()
        edge = system.edge(0).node_id
        system.cloud.ledger.punish(edge, reason="planted", recorded_at=0.0)
        with pytest.raises(InvariantViolation, match="was convicted"):
            assert_no_false_convictions(system.cloud, [edge])

    def test_replicated_reads_unprobed_or_unserved(self):
        with pytest.raises(InvariantViolation, match="no probes"):
            assert_replicated_reads_served([])
        with pytest.raises(InvariantViolation, match="went unserved"):
            assert_replicated_reads_served([(1.0, 0, True), (2.0, 0, False)])

    def test_an_operation_left_waiting(self):
        # An edge that swallows every request answers nothing, so the
        # operation sent to it never settles.
        system = build_single()
        client = system.client(0)
        system.edge(0).on_message = lambda sender, message: None
        client.put("k", b"v")
        system.run_for(5.0)
        with pytest.raises(InvariantViolation, match="1 unsettled operation"):
            assert_all_settled(system)

    def test_progress_that_regresses(self):
        with pytest.raises(InvariantViolation, match="regressed from 2 to 1"):
            assert_monotone([0, 2, 1], "certified blocks")
