"""Deterministic fault injection for the simulated edge-cloud fleet.

The subsystem has four pieces:

* :mod:`~repro.faults.plan` — declarative :class:`FaultPlan` describing
  message faults (drop / duplicate / delay / reorder), region-scoped WAN
  partitions, node crash/restart events, and disk faults (torn writes,
  bit flips, ENOSPC) against durable partition stores;
* :mod:`~repro.faults.injector` — the :class:`FaultInjector` that executes
  a plan against an :class:`~repro.sim.environment.Environment` through
  the network's public send-hook and offline surfaces, producing a
  reproducible fault trace;
* :mod:`~repro.faults.retry` — the shared :class:`RetryPolicy` (capped
  exponential backoff, seeded jitter, bounded attempts) behind every
  retransmission timer in the protocol stack;
* :mod:`~repro.faults.invariants` — the convictable-invariant checks the
  chaos suite asserts once faults heal.

Everything is a strict no-op unless a plan is installed; the figure
pipelines never import this package.
"""

from .injector import FaultInjector, TraceEntry
from .invariants import (
    InvariantViolation,
    assert_all_settled,
    assert_convicted,
    assert_full_certification,
    assert_monotone,
    assert_no_false_convictions,
    assert_no_honest_disputes,
    assert_no_lost_atomicity,
    assert_no_quarantines,
    assert_replicated_reads_served,
    txn_decisions,
)
from .plan import (
    CrashEvent,
    DiskFaultRule,
    FaultPlan,
    FaultRule,
    NodeSelector,
    RegionPartitionRule,
)
from .retry import RetryPolicy

__all__ = [
    "CrashEvent",
    "DiskFaultRule",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InvariantViolation",
    "NodeSelector",
    "RegionPartitionRule",
    "RetryPolicy",
    "TraceEntry",
    "assert_all_settled",
    "assert_convicted",
    "assert_full_certification",
    "assert_monotone",
    "assert_no_false_convictions",
    "assert_no_honest_disputes",
    "assert_no_lost_atomicity",
    "assert_no_quarantines",
    "assert_replicated_reads_served",
    "txn_decisions",
]
