"""The executor that turns a :class:`~repro.faults.plan.FaultPlan` into
live network faults.

The injector composes on the two public fault surfaces of
:class:`~repro.sim.network.SimNetwork`:

* it registers one named **send hook** that evaluates the plan's partition
  and message-fault rules against every send, and
* it schedules the plan's **crash/restart** events on the simulator clock,
  flipping the network's offline gate and calling the node's
  ``on_crash``/``on_restart`` lifecycle methods (when the node defines
  them) so volatile protocol state is lost while durable state survives.
  For edges on the disk backend this routes through real storage: the
  crash truncates unsynced segment bytes, and the restart rebuilds every
  partition from its store via :mod:`repro.storage.recovery` — verified
  against the durable signed root, quarantined on corruption.
* it schedules the plan's **disk-fault** rules, arming torn-write /
  bit-flip / ENOSPC faults on the matching nodes' partition stores.

Delay, reorder, and duplicate are implemented by vetoing the original send
and re-materializing the delivery through
:meth:`~repro.sim.network.SimNetwork.inject_delivery` at a chosen time —
injected deliveries bypass hooks, so a deferred message is not
re-intercepted by the rule that deferred it.

Determinism: the injector seeds its own :class:`~repro.sim.rng.
DeterministicRng` directly from ``plan.seed`` and consumes draws only for
probabilistic rules and reorder spreads, in rule order.  Same plan + same
workload ⇒ byte-identical fault trace, which the chaos suite asserts.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..common.errors import SimulationError
from ..common.identifiers import NodeId
from ..sim.environment import Environment
from ..sim.rng import DeterministicRng
from .plan import FaultPlan

#: One fault-trace record: ``(time, action, src, dst, message_type)``.
TraceEntry = Tuple[float, str, str, str, str]


class FaultInjector:
    """Applies a :class:`FaultPlan` to a simulation :class:`Environment`."""

    def __init__(self, env: Environment, plan: FaultPlan) -> None:
        self._env = env
        self._plan = plan
        self._rng = DeterministicRng(plan.seed)
        self._hook_name = f"fault-injector:{plan.name}"
        self._rule_fired: List[int] = [0] * len(plan.rules)
        self._installed = False
        #: Chronological record of every fault action taken; the chaos
        #: suite compares traces across runs to prove determinism.
        self.trace: List[TraceEntry] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Register the send hook and schedule the plan's crash events."""

        if self._installed:
            raise SimulationError("fault injector already installed")
        self._env.network.add_send_hook(self._hook_name, self._on_send)
        now = self._env.now()
        for crash in self._plan.crashes:
            self._env.scheduler.schedule_at(
                max(crash.at_s, now),
                lambda c=crash: self._crash(c.node),
                label=f"fault:crash:{crash.node}",
            )
            if crash.restart_at_s is not None:
                self._env.scheduler.schedule_at(
                    max(crash.restart_at_s, now),
                    lambda c=crash: self._restart(c.node),
                    label=f"fault:restart:{crash.node}",
                )
        for disk in self._plan.disk_faults:
            self._env.scheduler.schedule_at(
                max(disk.at_s, now),
                lambda d=disk: self._arm_disk_fault(d),
                label=f"fault:disk:{disk.kind}",
            )
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Stop intercepting sends (scheduled crashes still fire)."""

        self._env.network.remove_send_hook(self._hook_name)
        self._installed = False

    def rule_fire_counts(self) -> Tuple[int, ...]:
        return tuple(self._rule_fired)

    def faults_quiet_after(self) -> float:
        """Earliest time by which every windowed fault clause has expired.

        Unbounded rules (no ``until_s``) are ignored — scenarios using them
        must uninstall explicitly before asserting recovery.
        """

        horizon = 0.0
        for rule in self._plan.rules:
            if rule.until_s is not None:
                horizon = max(horizon, rule.until_s + rule.delay_s + rule.spread_s)
        for part in self._plan.partitions:
            horizon = max(horizon, part.until_s)
        for crash in self._plan.crashes:
            horizon = max(horizon, crash.restart_at_s or crash.at_s)
        for disk in self._plan.disk_faults:
            horizon = max(horizon, disk.at_s)
        return horizon

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def _crash(self, node_id: NodeId) -> None:
        self._env.network.set_offline(node_id, True)
        node = self._env.node(node_id)
        on_crash = getattr(node, "on_crash", None)
        if on_crash is not None:
            on_crash()
        self._record("crash", node_id, node_id, "")

    def _restart(self, node_id: NodeId) -> None:
        self._env.network.set_offline(node_id, False)
        node = self._env.node(node_id)
        on_restart = getattr(node, "on_restart", None)
        if on_restart is not None:
            on_restart()
        self._record("restart", node_id, node_id, "")

    def _arm_disk_fault(self, rule) -> None:
        """Arm *rule* on every matching node's durable partition store(s).

        Matching uses the same selector semantics as message rules.  Nodes
        without partitions (clients, the cloud) and partitions without a
        store (the in-memory default backend) are silently skipped — the
        trace records exactly which stores were armed.
        """

        from .plan import _matches

        for node_id in self._env.node_ids():
            if not _matches(rule.node, node_id):
                continue
            node = self._env.node(node_id)
            partition_states = getattr(node, "_partition_states", None)
            if partition_states is None:
                continue
            for state in partition_states():
                if state.store is None:
                    continue
                if rule.shard_id is not None and state.shard_id != rule.shard_id:
                    continue
                state.store.arm_fault(rule.kind, rule.count)
                self._record(f"disk:{rule.kind}", node_id, node_id, "")

    # ------------------------------------------------------------------
    # The send hook
    # ------------------------------------------------------------------
    def _on_send(self, src: NodeId, dst: NodeId, message: Any) -> bool:
        now = self._env.now()

        if self._plan.partitions:
            src_region = self._env.network.node(src).region
            dst_region = self._env.network.node(dst).region
            for part in self._plan.partitions:
                if part.severs(src_region, dst_region, now):
                    self._record("partition-drop", src, dst, type(message).__name__)
                    return False

        extra_delay = 0.0
        for index, rule in enumerate(self._plan.rules):
            if not rule.active_at(now) or not rule.matches(src, dst, message):
                continue
            if rule.max_count is not None and self._rule_fired[index] >= rule.max_count:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            self._rule_fired[index] += 1
            if rule.action == "drop":
                self._record("drop", src, dst, type(message).__name__)
                return False
            if rule.action == "delay":
                extra_delay += rule.delay_s
                self._record("delay", src, dst, type(message).__name__)
            elif rule.action == "reorder":
                extra_delay += self._rng.uniform(0.0, rule.spread_s)
                self._record("reorder", src, dst, type(message).__name__)
            elif rule.action == "duplicate":
                lag = rule.spread_s or self._env.network.one_way_delay_estimate(src, dst)
                copy_at = now + self._env.network.one_way_delay_estimate(src, dst) + lag
                self._env.network.inject_delivery(src, dst, message, copy_at)
                self._record("duplicate", src, dst, type(message).__name__)

        if extra_delay > 0.0:
            # Take over the delivery: the original send is vetoed and the
            # message re-enters at the estimated arrival plus the penalty.
            arrive = now + self._env.network.one_way_delay_estimate(src, dst) + extra_delay
            self._env.network.inject_delivery(src, dst, message, arrive)
            return False
        return True

    def _record(self, action: str, src: NodeId, dst: NodeId, message_type: str) -> None:
        self.trace.append(
            (round(self._env.now(), 9), action, str(src), str(dst), message_type)
        )
        # Mirror the fault into the trace (when observability is on).  The
        # send hook runs while the sender's span is still active, so a
        # dropped or delayed message shows up *inside* the protocol span it
        # perturbed; crash/restart/disk events fire from timers and attach
        # to no span.  The tuple trace above is the determinism contract
        # and stays exactly as it was.
        obs = self._env.obs
        if obs is not None and obs.tracer is not None:
            obs.tracer.event(
                f"fault.{action}",
                src=str(src),
                dst=str(dst),
                message_type=message_type,
            )
