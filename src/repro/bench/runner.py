"""Shared machinery for running one experiment configuration.

Every figure of the paper boils down to: build one of the three systems
(WedgeChain, Cloud-only, Edge-baseline) with some placement and workload,
drive it with closed-loop clients, and collect latency/throughput/commit
statistics.  This module provides that loop once so the per-figure experiment
functions stay short and declarative.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from ..baselines.cloud_only import CloudOnlySystem
from ..baselines.edge_baseline import EdgeBaselineSystem
from ..common.config import SystemConfig, WorkloadConfig
from ..common.errors import ConfigurationError
from ..core.commit import CommitTracker
from ..core.system import WedgeChainSystem
from ..log.proofs import CommitPhase
from ..sim.parameters import SimulationParameters
from ..sim.topology import Topology
from ..workloads.driver import LoadDriver

#: The three systems compared throughout Section VI.
SYSTEM_KINDS = ("wedgechain", "cloud-only", "edge-baseline")

_SYSTEM_CLASSES = {
    "wedgechain": WedgeChainSystem,
    "cloud-only": CloudOnlySystem,
    "edge-baseline": EdgeBaselineSystem,
}

#: Pretty names used in tables (match the paper's legends).
SYSTEM_LABELS = {
    "wedgechain": "WedgeChain",
    "cloud-only": "Cloud-only",
    "edge-baseline": "Edge-baseline",
}


#: The misbehaviour counters a report table carries, each summed over one
#: kind of node: certify re-sends (edges), disputes (clients) and
#: convictions (cloud).  An honest run leaves all three at zero.
FAULT_COUNTERS = ("certify_retries", "disputes_sent", "punishments")

#: The open :func:`counting_faults` block's tally; :func:`build_system`
#: shows it every system it builds.
_open_tally: Optional["FaultTally"] = None


class FaultTally:
    """:data:`FAULT_COUNTERS` summed, and the largest Phase II lag, over
    every system built while open.

    It holds the nodes' live stats dicts and the clients' trackers, not the
    systems, so both are read after the runs end without keeping any edge's
    or cloud's state alive.
    """

    def __init__(self) -> None:
        self._stats: list[tuple[str, dict]] = []
        self._trackers: list[CommitTracker] = []

    def watch(self, system) -> None:
        for edge in system.edges:
            self._stats.append(("certify_retries", edge.stats))
        for client in system.clients:
            self._stats.append(("disputes_sent", client.stats))
        self._stats.append(("punishments", system.cloud.stats))
        self._trackers.extend(system.trackers())

    def totals(self) -> dict[str, int]:
        totals = dict.fromkeys(FAULT_COUNTERS, 0)
        for counter, stats in self._stats:
            totals[counter] += stats.get(counter, 0)
        return totals

    def phase_two_lag_s(self) -> float:
        """The largest ``phase_two_at - phase_one_at`` of any operation that
        reached Phase II (0.0 when none did).  A lag near
        ``dispute_timeout_s / 2`` would let an honest edge's first certify
        retry fire in a run with no fault."""

        return max(
            (
                record.phase_two_at - record.phase_one_at
                for tracker in self._trackers
                for record in tracker.records()
                if record.phase is CommitPhase.PHASE_TWO
            ),
            default=0.0,
        )


@contextmanager
def counting_faults() -> Iterator[FaultTally]:
    """Tally the fault counters of every :func:`build_system` call inside."""

    global _open_tally
    _open_tally = FaultTally()
    try:
        yield _open_tally
    finally:
        _open_tally = None


def build_system(
    kind: str,
    config: Optional[SystemConfig] = None,
    num_clients: int = 1,
    topology: Optional[Topology] = None,
    params: Optional[SimulationParameters] = None,
    seed: int = 7,
    **extra,
):
    """Instantiate one of the three systems by name."""

    if kind not in _SYSTEM_CLASSES:
        raise ConfigurationError(f"unknown system kind {kind!r}; use one of {SYSTEM_KINDS}")
    system_cls = _SYSTEM_CLASSES[kind]
    system = system_cls.build(
        config=config,
        num_clients=num_clients,
        topology=topology,
        params=params,
        seed=seed,
        **extra,
    )
    if _open_tally is not None:
        _open_tally.watch(system)
    return system


@dataclass(frozen=True)
class WorkloadMetrics:
    """Measurements of one (system, workload) run."""

    system: str
    num_clients: int
    operations_completed: int
    requests_sent: int
    duration_s: float
    throughput_ops_per_s: float
    mean_commit_latency_ms: float
    mean_phase_two_latency_ms: Optional[float]
    wan_bytes: int
    lan_bytes: int
    failed_operations: int

    @property
    def throughput_kops_per_s(self) -> float:
        return self.throughput_ops_per_s / 1000.0


def run_workload(
    kind: str,
    workload: WorkloadConfig,
    config: Optional[SystemConfig] = None,
    topology: Optional[Topology] = None,
    params: Optional[SimulationParameters] = None,
    seed: int = 7,
    max_time_s: float = 900.0,
    drain: bool = False,
) -> WorkloadMetrics:
    """Run one closed-loop workload against one system and collect metrics.

    ``drain=True`` keeps running after the workload finishes so that all
    Phase II certifications complete (needed for Phase II latency and the
    commit-rate experiment); throughput is always measured over the workload
    window only.
    """

    config = config if config is not None else SystemConfig.paper_default()
    system = build_system(
        kind,
        config=config,
        num_clients=workload.num_clients,
        topology=topology,
        params=params,
        seed=seed,
    )
    result = LoadDriver(system, workload).run(max_time_s=max_time_s)
    if drain:
        system.run()

    phase_two_latencies: list[float] = []
    failed = 0
    for tracker in system.trackers():
        phase_two_latencies.extend(tracker.phase_two_latencies())
        failed += tracker.count_in_phase(CommitPhase.FAILED)

    commit_latencies = result.response_times_s
    mean_commit = statistics.mean(commit_latencies) if commit_latencies else float("nan")
    mean_p2 = (
        statistics.mean(phase_two_latencies) if phase_two_latencies else None
    )
    stats = system.env.network.stats
    return WorkloadMetrics(
        system=kind,
        num_clients=workload.num_clients,
        operations_completed=result.operations_completed,
        requests_sent=result.offered,
        duration_s=result.duration_s,
        throughput_ops_per_s=result.throughput_ops_per_s,
        mean_commit_latency_ms=mean_commit * 1000.0,
        mean_phase_two_latency_ms=mean_p2 * 1000.0 if mean_p2 is not None else None,
        wan_bytes=stats.wan_bytes,
        lan_bytes=stats.lan_bytes,
        failed_operations=failed,
    )


def write_workload(
    batch_size: int,
    num_batches: int,
    num_clients: int = 1,
    key_space: int = 100_000,
    value_size: int = 100,
    read_fraction: float = 0.0,
    seed: int = 7,
) -> WorkloadConfig:
    """A workload of ``num_batches`` write batches per client (paper style)."""

    return WorkloadConfig(
        num_clients=num_clients,
        batch_size=batch_size,
        value_size=value_size,
        read_fraction=read_fraction,
        key_space=key_space,
        operations_per_client=batch_size * num_batches,
        seed=seed,
    )


def config_for_batch(
    batch_size: int,
    base: Optional[SystemConfig] = None,
) -> SystemConfig:
    """System config whose block size matches the workload batch size.

    The paper forms one block per client batch ("each batch consists of 100
    put operations" and blocks are certified per batch), so experiments keep
    the two aligned.
    """

    from ..common.config import LoggingConfig

    base = base if base is not None else SystemConfig.paper_default()
    return base.with_overrides(logging=LoggingConfig(block_size=batch_size))
