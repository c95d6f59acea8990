"""Unit tests for the deterministic fault-injection subsystem.

Covers the three layers of :mod:`repro.faults` in isolation from the full
protocol: :class:`RetryPolicy` arithmetic, :class:`FaultPlan` validation,
and :class:`FaultInjector` behavior on a two-node toy network (drop, delay,
duplicate, reorder, probability, crash/restart, trace determinism).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.identifiers import NodeId, NodeRole
from repro.common.regions import Region
from repro.faults import (
    CrashEvent,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RegionPartitionRule,
    RetryPolicy,
)
from repro.faults.retry import Retransmission
from repro.sim.environment import Environment
from repro.sim.events import EventScheduler


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_capped_exponential_delays(self):
        policy = RetryPolicy(base_s=0.5, factor=2.0, cap_s=4.0)
        delays = [policy.delay(attempt) for attempt in range(1, 7)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 4.0, 4.0]

    def test_constant_policy_never_grows(self):
        policy = RetryPolicy.constant(0.25, max_attempts=3)
        assert [policy.delay(n) for n in (1, 2, 3)] == [0.25, 0.25, 0.25]
        assert policy.allows(3) and not policy.allows(4)

    def test_exhaustion_budget(self):
        policy = RetryPolicy(base_s=1.0, max_attempts=2)
        assert policy.allows(2) and not policy.allows(3)
        assert RetryPolicy(base_s=1.0).allows(10 ** 6)

    def test_jitter_requires_rng_and_stays_bounded(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=1.0, jitter_fraction=0.2)

        from repro.sim.rng import DeterministicRng

        policy = RetryPolicy(
            base_s=1.0, factor=1.0, jitter_fraction=0.5, rng=DeterministicRng(3)
        )
        for _ in range(50):
            assert 0.5 <= policy.delay(1) <= 1.5

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=1.0, factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=2.0, cap_s=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=1.0, max_attempts=-1)


class TestRetransmission:
    def test_chain_walks_the_policy_until_resend_declines(self):
        scheduler = EventScheduler()
        fired = []

        def resend() -> bool:
            fired.append(scheduler.now())
            return len(fired) < 4

        Retransmission(
            scheduler.schedule_after, RetryPolicy(base_s=0.5, cap_s=2.0), resend
        )
        scheduler.run()
        assert fired == [0.5, 1.5, 3.5, 5.5]

    def test_cancel_ends_the_chain_and_budget_ends_it_too(self):
        scheduler = EventScheduler()
        fired = []
        chain = Retransmission(
            scheduler.schedule_after, RetryPolicy.constant(1.0), lambda: not fired.append(1)
        )
        scheduler.run_until(2.5)
        chain.cancel()
        scheduler.run_until(10.0)
        assert len(fired) == 2
        Retransmission(
            scheduler.schedule_after,
            RetryPolicy.constant(1.0, max_attempts=3),
            lambda: not fired.append(1),
        )
        scheduler.run()
        assert len(fired) == 5


# ----------------------------------------------------------------------
# FaultPlan validation
# ----------------------------------------------------------------------
class TestFaultPlanValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule("corrupt")

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultRule("drop", probability=0.0)
        with pytest.raises(ConfigurationError):
            FaultRule("drop", probability=1.5)

    def test_window_must_not_invert(self):
        with pytest.raises(ConfigurationError):
            FaultRule("drop", start_s=2.0, until_s=1.0)

    def test_partition_sides_disjoint_and_nonempty(self):
        with pytest.raises(ConfigurationError):
            RegionPartitionRule(frozenset(), frozenset({Region.VIRGINIA}), 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            RegionPartitionRule(
                frozenset({Region.VIRGINIA}),
                frozenset({Region.VIRGINIA}),
                0.0,
                1.0,
            )

    def test_restart_must_follow_crash(self):
        node = NodeId(NodeRole.EDGE, "edge-0")
        with pytest.raises(ConfigurationError):
            CrashEvent(node, at_s=2.0, restart_at_s=2.0)

    def test_chainable_builders_do_not_mutate(self):
        base = FaultPlan(seed=5)
        grown = base.with_rule(FaultRule("drop"))
        assert base.is_empty() and not grown.is_empty()

    def test_rule_selectors(self):
        edge = NodeId(NodeRole.EDGE, "edge-0")
        cloud = NodeId(NodeRole.CLOUD, "cloud-0")
        by_role = FaultRule("drop", dst=NodeRole.CLOUD)
        assert by_role.matches(edge, cloud, object())
        assert not by_role.matches(cloud, edge, object())
        by_id = FaultRule("drop", src=edge)
        assert by_id.matches(edge, cloud, object())
        assert not by_id.matches(cloud, edge, object())
        by_pred = FaultRule("drop", src=lambda n: n.name.endswith("-0"))
        assert by_pred.matches(edge, cloud, object())
        by_type = FaultRule("drop", message_type="Ping")
        assert by_type.matches(edge, cloud, Ping(1)) is True
        assert by_type.matches(edge, cloud, object()) is False

    def test_activity_window_half_open(self):
        rule = FaultRule("drop", start_s=1.0, until_s=2.0)
        assert not rule.active_at(0.5)
        assert rule.active_at(1.0)
        assert not rule.active_at(2.0)


# ----------------------------------------------------------------------
# Injector behavior on a toy two-node network
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Ping:
    seq: int

    @property
    def wire_size(self) -> int:
        return 32


class Recorder:
    """Minimal environment node that records deliveries."""

    def __init__(self, env: Environment, name: str, region: Region) -> None:
        self.node_id = NodeId(NodeRole.EDGE, name)
        self.region = region
        self.env = env
        self.received: list[tuple[float, int]] = []
        env.attach(self)

    def on_message(self, sender: NodeId, message: Ping) -> None:
        self.received.append((self.env.now(), message.seq))


def toy_pair(seed: int = 7):
    env = Environment(seed=seed)
    a = Recorder(env, "sender-a", Region.CALIFORNIA)
    b = Recorder(env, "receiver-b", Region.VIRGINIA)
    return env, a, b


def run_plan(env, a, b, plan, count=10):
    injector = FaultInjector(env, plan).install()
    for seq in range(count):
        env.send(a.node_id, b.node_id, Ping(seq))
    env.run_until(60.0)
    return injector


class TestFaultInjector:
    def test_drop_rule_removes_matching_messages(self):
        env, a, b = toy_pair()
        plan = FaultPlan(seed=1).with_rule(
            FaultRule("drop", message_type="Ping", max_count=3)
        )
        injector = run_plan(env, a, b, plan)
        # Per-message latency jitter may reorder arrivals; the first three
        # sends are the ones dropped (rule evaluated at send time, in order).
        assert sorted(seq for _, seq in b.received) == list(range(3, 10))
        assert injector.rule_fire_counts() == (3,)
        assert [entry[1] for entry in injector.trace] == ["drop"] * 3

    def test_delay_rule_defers_but_delivers(self):
        env, a, b = toy_pair()
        plan = FaultPlan(seed=1).with_rule(
            FaultRule("delay", delay_s=5.0, max_count=1)
        )
        run_plan(env, a, b, plan, count=2)
        assert sorted(seq for _, seq in b.received) == [0, 1]
        times = {seq: at for at, seq in b.received}
        # The delayed message lands roughly delay_s after the undelayed one.
        assert times[0] > times[1] + 4.0

    def test_duplicate_rule_delivers_twice(self):
        env, a, b = toy_pair()
        plan = FaultPlan(seed=1).with_rule(
            FaultRule("duplicate", max_count=1, spread_s=0.5)
        )
        run_plan(env, a, b, plan, count=3)
        seqs = sorted(seq for _, seq in b.received)
        assert seqs == [0, 0, 1, 2]

    def test_reorder_scatters_within_spread(self):
        env, a, b = toy_pair()
        plan = FaultPlan(seed=9).with_rule(FaultRule("reorder", spread_s=2.0))
        run_plan(env, a, b, plan, count=8)
        assert sorted(seq for _, seq in b.received) == list(range(8))
        # With a 2 s scatter over back-to-back sends, order must change.
        assert [seq for _, seq in b.received] != list(range(8))

    def test_probabilistic_rule_is_seed_deterministic(self):
        def trace_for(seed):
            env, a, b = toy_pair()
            plan = FaultPlan(seed=seed).with_rule(
                FaultRule("drop", probability=0.5)
            )
            return tuple(run_plan(env, a, b, plan, count=20).trace)

        assert trace_for(4) == trace_for(4)
        assert trace_for(4) != trace_for(5)

    def test_partition_rule_severs_both_directions(self):
        env, a, b = toy_pair()
        plan = FaultPlan(seed=1).with_partition(
            RegionPartitionRule(
                frozenset({Region.CALIFORNIA}),
                frozenset({Region.VIRGINIA}),
                start_s=0.0,
                until_s=10.0,
            )
        )
        injector = FaultInjector(env, plan).install()
        env.send(a.node_id, b.node_id, Ping(0))
        env.send(b.node_id, a.node_id, Ping(1))
        env.run_until(5.0)
        assert b.received == [] and a.received == []
        assert {entry[1] for entry in injector.trace} == {"partition-drop"}
        # After the window closes traffic flows again.
        env.run_until(12.0)
        env.send(a.node_id, b.node_id, Ping(2))
        env.run_until(20.0)
        assert [seq for _, seq in b.received] == [2]

    def test_crash_drops_sends_and_inflight_deliveries(self):
        env, a, b = toy_pair()
        plan = FaultPlan(seed=1).with_crash(
            CrashEvent(b.node_id, at_s=0.01, restart_at_s=1.0)
        )
        FaultInjector(env, plan).install()
        env.send(a.node_id, b.node_id, Ping(0))  # in flight at crash time
        env.run_until(0.5)
        assert b.received == []
        assert env.network.stats.dropped_deliveries == 1
        env.run_until(2.0)
        env.send(a.node_id, b.node_id, Ping(1))
        env.run_until(3.0)
        assert [seq for _, seq in b.received] == [1]

    def test_crash_calls_lifecycle_hooks(self):
        env, a, b = toy_pair()
        calls = []
        b.on_crash = lambda: calls.append("crash")
        b.on_restart = lambda: calls.append("restart")
        plan = FaultPlan(seed=1).with_crash(
            CrashEvent(b.node_id, at_s=0.1, restart_at_s=0.2)
        )
        FaultInjector(env, plan).install()
        env.run_until(1.0)
        assert calls == ["crash", "restart"]

    def test_double_install_rejected_and_uninstall_stops_faults(self):
        env, a, b = toy_pair()
        plan = FaultPlan(seed=1).with_rule(FaultRule("drop"))
        injector = FaultInjector(env, plan).install()
        with pytest.raises(SimulationError):
            injector.install()
        injector.uninstall()
        env.send(a.node_id, b.node_id, Ping(0))
        env.run_until(5.0)
        assert [seq for _, seq in b.received] == [0]

    def test_faults_quiet_after_covers_every_clause(self):
        node = NodeId(NodeRole.EDGE, "edge-0")
        plan = (
            FaultPlan(seed=1)
            .with_rule(FaultRule("delay", until_s=3.0, delay_s=2.0))
            .with_partition(
                RegionPartitionRule(
                    frozenset({Region.CALIFORNIA}),
                    frozenset({Region.VIRGINIA}),
                    start_s=0.0,
                    until_s=4.0,
                )
            )
            .with_crash(CrashEvent(node, at_s=1.0, restart_at_s=6.0))
        )
        env = Environment(seed=1)
        injector = FaultInjector(env, plan)
        assert injector.faults_quiet_after() == 6.0
