"""One experiment function per table/figure of the paper's evaluation.

Every function runs the corresponding experiment on the simulated edge-cloud
environment and returns :class:`~repro.bench.results.ResultTable` objects
whose rows mirror the series the paper plots.  The benchmark modules under
``benchmarks/`` call these functions (with reduced default scales so the
whole suite runs in minutes) and print the tables; ``EXPERIMENTS.md`` records
paper-reported versus measured values.

Scaling note: the paper runs minutes-long experiments on AWS VMs; the
defaults here use fewer batches/operations.  Every function takes explicit
scale parameters so a user can rerun at full paper scale.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

from ..common.config import (
    LoggingConfig,
    PlacementConfig,
    SecurityConfig,
    SystemConfig,
    WorkloadConfig,
)
from ..common.regions import PAPER_REGION_ORDER, Region
from ..core.system import WedgeChainSystem
from ..log.proofs import CommitPhase
from ..nodes.variants import FullDataLazyEdgeNode
from ..sim.parameters import SimulationParameters
from ..sim.topology import Topology, paper_topology
from ..workloads.driver import LoadDriver
from ..workloads.generator import KeyValueWorkload, format_key
from .results import ResultTable
from .runner import (
    SYSTEM_KINDS,
    SYSTEM_LABELS,
    build_system,
    config_for_batch,
    run_workload,
    write_workload,
)

#: Batch sizes swept by Figure 4.
FIGURE4_BATCH_SIZES = (100, 500, 1000, 1500, 2000)
#: Client counts swept by Figure 5.
FIGURE5_CLIENT_COUNTS = (1, 3, 5, 7, 9)
#: Batch sizes compared in Figure 6.
FIGURE6_BATCH_SIZES = (100, 500, 1000)


# ----------------------------------------------------------------------
# Table I — round-trip times
# ----------------------------------------------------------------------
def table1_rtt(topology: Optional[Topology] = None) -> ResultTable:
    """Table I: average RTTs (ms) between California and the other regions."""

    topology = topology if topology is not None else paper_topology()
    table = ResultTable(
        title="Table I: RTT from California (ms)",
        columns=["origin"] + [region.short_code for region in PAPER_REGION_ORDER],
        notes="California row matches the paper exactly; other pairs are "
        "filled from public AWS measurements (see repro.sim.topology).",
    )
    row = {"origin": Region.CALIFORNIA.short_code}
    row.update(topology.table_row(Region.CALIFORNIA))
    table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Figure 4 — put latency and throughput vs batch size
# ----------------------------------------------------------------------
def figure4_put_batch_size(
    batch_sizes: Sequence[int] = FIGURE4_BATCH_SIZES,
    num_batches: int = 10,
    systems: Sequence[str] = SYSTEM_KINDS,
    seed: int = 7,
) -> tuple[ResultTable, ResultTable]:
    """Figure 4(a)+(b): put commit latency and throughput vs batch size."""

    latency = ResultTable(
        title="Figure 4(a): Put commit latency vs batch size (ms)",
        columns=["batch_size"] + [SYSTEM_LABELS[kind] for kind in systems],
    )
    throughput = ResultTable(
        title="Figure 4(b): Put throughput vs batch size (K operations/s)",
        columns=["batch_size"] + [SYSTEM_LABELS[kind] for kind in systems],
    )
    for batch_size in batch_sizes:
        config = config_for_batch(batch_size)
        workload = write_workload(batch_size=batch_size, num_batches=num_batches, seed=seed)
        latency_row = {"batch_size": batch_size}
        throughput_row = {"batch_size": batch_size}
        for kind in systems:
            metrics = run_workload(kind, workload, config=config, seed=seed)
            latency_row[SYSTEM_LABELS[kind]] = metrics.mean_commit_latency_ms
            throughput_row[SYSTEM_LABELS[kind]] = metrics.throughput_kops_per_s
        latency.add_row(**latency_row)
        throughput.add_row(**throughput_row)
    return latency, throughput


# ----------------------------------------------------------------------
# Figure 5(a-c) — multi-client and mixed workloads
# ----------------------------------------------------------------------
def figure5_multi_client(
    read_fraction: float,
    client_counts: Sequence[int] = FIGURE5_CLIENT_COUNTS,
    operations_per_client: int = 600,
    batch_size: int = 100,
    systems: Sequence[str] = SYSTEM_KINDS,
    seed: int = 7,
) -> ResultTable:
    """Figures 5(a)-(c): throughput vs number of clients for one read mix."""

    labels = {0.0: "all-write", 0.5: "50% reads", 1.0: "all-read"}
    mix = labels.get(read_fraction, f"{read_fraction:.0%} reads")
    table = ResultTable(
        title=f"Figure 5 ({mix}): throughput vs number of clients (K operations/s)",
        columns=["clients"] + [SYSTEM_LABELS[kind] for kind in systems],
    )
    config = config_for_batch(batch_size)
    for count in client_counts:
        workload = WorkloadConfig(
            num_clients=count,
            batch_size=batch_size,
            read_fraction=read_fraction,
            operations_per_client=operations_per_client,
            key_space=100_000,
            seed=seed,
        )
        row = {"clients": count}
        for kind in systems:
            metrics = run_workload(kind, workload, config=config, seed=seed)
            row[SYSTEM_LABELS[kind]] = metrics.throughput_kops_per_s
        table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Figure 5(d) — best-case read latency and verification overhead
# ----------------------------------------------------------------------
def figure5d_best_case_read(
    num_preload_batches: int = 5,
    batch_size: int = 100,
    num_reads: int = 50,
    seed: int = 7,
) -> ResultTable:
    """Figure 5(d): best-case read latency with co-located client and server.

    The client, edge, and cloud are placed in the same datacenter so that
    communication is negligible and the measured latency is dominated by the
    lookup, proof construction, and client-side verification costs.
    """

    table = ResultTable(
        title="Figure 5(d): best-case read latency (ms)",
        columns=["system", "read_latency_ms", "verification_overhead_ms"],
        notes="Cloud-only reads need no verification; WedgeChain/Edge-baseline "
        "pay the proof-verification overhead at the client.",
    )
    config = config_for_batch(batch_size)
    params = SimulationParameters(latency_jitter_fraction=0.0)

    def preload_and_read(kind: str) -> tuple[float, float]:
        topology = Topology(intra_region_rtt_ms=0.1, client_edge_rtt_ms=0.1)
        colocated = config.with_overrides(
            placement=PlacementConfig(
                client_region=Region.CALIFORNIA,
                edge_region=Region.CALIFORNIA,
                cloud_region=Region.CALIFORNIA,
            )
        )
        system = build_system(
            kind, config=colocated, num_clients=1, topology=topology, params=params, seed=seed
        )
        client = system.clients[0]
        workload = KeyValueWorkload(
            WorkloadConfig(batch_size=batch_size, key_space=batch_size * num_preload_batches, seed=seed)
        )
        operations = []
        for _ in range(num_preload_batches):
            operations.append((client, client.put_batch(workload.write_batch(batch_size))))
        system.wait_for_all(operations, CommitPhase.PHASE_TWO, max_time_s=120)
        system.run()

        latencies = []
        verification = []
        for index in range(num_reads):
            key = format_key(index % (batch_size * num_preload_batches))
            verify_before = client.stats.get("verification_seconds", 0.0)
            op = client.get(key)
            system.wait_for_all([(client, op)], CommitPhase.PHASE_ONE, max_time_s=30)
            record = client.tracker.get(op)
            if record.phase_one_latency is not None:
                latencies.append(record.phase_one_latency)
            verification.append(
                max(client.stats.get("verification_seconds", 0.0) - verify_before, 0.0)
            )
        mean_latency = statistics.mean(latencies) * 1000 if latencies else float("nan")
        mean_verify = statistics.mean(verification) * 1000 if verification else 0.0
        return mean_latency, mean_verify

    for kind in SYSTEM_KINDS:
        latency_ms, verify_ms = preload_and_read(kind)
        table.add_row(
            system=SYSTEM_LABELS[kind],
            read_latency_ms=latency_ms,
            verification_overhead_ms=verify_ms,
        )
    return table


# ----------------------------------------------------------------------
# Figure 6 — Phase I vs Phase II commit rates
# ----------------------------------------------------------------------
def figure6_commit_phases(
    batch_sizes: Sequence[int] = FIGURE6_BATCH_SIZES,
    num_batches: int = 200,
    time_bin_s: float = 2.0,
    seed: int = 7,
) -> tuple[ResultTable, ResultTable]:
    """Figure 6: cumulative Phase I and Phase II commits over time.

    Returns a summary table (time to finish all Phase I vs all Phase II
    commits per batch size) and a series table (cumulative counts per time
    bin) that reproduces the plotted curves.
    """

    summary = ResultTable(
        title="Figure 6 (summary): time to commit all batches (s)",
        columns=["batch_size", "batches", "phase1_done_s", "phase2_done_s", "p2_lag_s"],
    )
    series = ResultTable(
        title="Figure 6 (series): cumulative committed batches over time",
        columns=["batch_size", "time_s", "phase1_batches", "phase2_batches"],
    )
    for batch_size in batch_sizes:
        config = config_for_batch(batch_size)
        workload = write_workload(batch_size=batch_size, num_batches=num_batches, seed=seed)
        system = build_system("wedgechain", config=config, num_clients=1, seed=seed)
        driver = LoadDriver(system, workload)
        driver.run(max_time_s=3600)
        system.run()  # drain all Phase II certifications

        phase_one_times = sorted(
            record.phase_one_at
            for tracker in system.trackers()
            for record in tracker.records()
            if record.is_write and record.phase_one_at is not None
        )
        phase_two_times = sorted(
            record.phase_two_at
            for tracker in system.trackers()
            for record in tracker.records()
            if record.is_write and record.phase_two_at is not None
        )
        p1_done = phase_one_times[-1] if phase_one_times else float("nan")
        p2_done = phase_two_times[-1] if phase_two_times else float("nan")
        summary.add_row(
            batch_size=batch_size,
            batches=len(phase_one_times),
            phase1_done_s=p1_done,
            phase2_done_s=p2_done,
            p2_lag_s=p2_done - p1_done,
        )
        horizon = max(p2_done, p1_done)
        num_bins = int(horizon / time_bin_s) + 1
        for bin_index in range(num_bins + 1):
            edge_time = bin_index * time_bin_s
            series.add_row(
                batch_size=batch_size,
                time_s=edge_time,
                phase1_batches=sum(1 for t in phase_one_times if t <= edge_time),
                phase2_batches=sum(1 for t in phase_two_times if t <= edge_time),
            )
    return summary, series


# ----------------------------------------------------------------------
# Figure 7 — effect of edge and cloud placement
# ----------------------------------------------------------------------
def figure7_vary_cloud_location(
    cloud_regions: Sequence[Region] = (
        Region.OREGON,
        Region.VIRGINIA,
        Region.IRELAND,
        Region.MUMBAI,
    ),
    batch_size: int = 100,
    num_batches: int = 10,
    systems: Sequence[str] = SYSTEM_KINDS,
    seed: int = 7,
) -> ResultTable:
    """Figure 7(a): commit latency while moving the cloud node."""

    table = ResultTable(
        title="Figure 7(a): latency vs cloud datacenter (ms); client+edge in California",
        columns=["cloud"] + [SYSTEM_LABELS[kind] for kind in systems],
    )
    for cloud_region in cloud_regions:
        config = config_for_batch(batch_size).with_overrides(
            placement=PlacementConfig(
                client_region=Region.CALIFORNIA,
                edge_region=Region.CALIFORNIA,
                cloud_region=cloud_region,
            )
        )
        workload = write_workload(batch_size=batch_size, num_batches=num_batches, seed=seed)
        row = {"cloud": cloud_region.short_code}
        for kind in systems:
            metrics = run_workload(kind, workload, config=config, seed=seed)
            row[SYSTEM_LABELS[kind]] = metrics.mean_commit_latency_ms
        table.add_row(**row)
    return table


def figure7_vary_edge_location(
    edge_regions: Sequence[Region] = PAPER_REGION_ORDER,
    cloud_region: Region = Region.MUMBAI,
    batch_size: int = 100,
    num_batches: int = 10,
    systems: Sequence[str] = SYSTEM_KINDS,
    seed: int = 7,
) -> ResultTable:
    """Figure 7(b): commit latency while moving the edge node (cloud in Mumbai)."""

    table = ResultTable(
        title="Figure 7(b): latency vs edge location (ms); client in California, cloud in Mumbai",
        columns=["edge"] + [SYSTEM_LABELS[kind] for kind in systems],
    )
    for edge_region in edge_regions:
        config = config_for_batch(batch_size).with_overrides(
            placement=PlacementConfig(
                client_region=Region.CALIFORNIA,
                edge_region=edge_region,
                cloud_region=cloud_region,
            )
        )
        workload = write_workload(batch_size=batch_size, num_batches=num_batches, seed=seed)
        row = {"edge": edge_region.short_code}
        for kind in systems:
            metrics = run_workload(kind, workload, config=config, seed=seed)
            row[SYSTEM_LABELS[kind]] = metrics.mean_commit_latency_ms
        table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Section VI-E — dataset size
# ----------------------------------------------------------------------
def section6e_dataset_size(
    key_spaces: Sequence[int] = (10_000, 100_000, 1_000_000),
    batch_size: int = 100,
    num_batches: int = 10,
    systems: Sequence[str] = SYSTEM_KINDS,
    seed: int = 7,
) -> ResultTable:
    """Section VI-E: write latency while growing the key range.

    The paper sweeps 100 K – 100 M keys; the default here sweeps a scaled-down
    range (the claim under test is that latency is flat because communication
    dominates I/O, which does not depend on the absolute sizes).
    """

    table = ResultTable(
        title="Section VI-E: put commit latency vs key-space size (ms)",
        columns=["keys"] + [SYSTEM_LABELS[kind] for kind in systems],
        notes="Paper sweeps 100K-100M keys on disk-backed stores; this "
        "reproduction sweeps a scaled key range in memory.",
    )
    for key_space in key_spaces:
        config = config_for_batch(batch_size)
        workload = write_workload(
            batch_size=batch_size,
            num_batches=num_batches,
            key_space=key_space,
            seed=seed,
        )
        row = {"keys": key_space}
        for kind in systems:
            metrics = run_workload(kind, workload, config=config, seed=seed)
            row[SYSTEM_LABELS[kind]] = metrics.mean_commit_latency_ms
        table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Batched-protocol variant of the Figure 4/5 experiments (opt-in)
# ----------------------------------------------------------------------
def _run_through_a_gossip_tick(system: WedgeChainSystem, workload: WorkloadConfig):
    """Run *workload* on a gossiping *system*, then one gossip interval more.

    A small workload finishes before the cloud's first gossip tick, so the
    extra interval is what makes "gossip enabled" true of the measured run.
    Gossip then stops and the queue drains.
    """

    result = LoadDriver(system, workload).run(max_time_s=900)
    system.run_for(system.config.security.gossip_interval_s)
    system.cloud.stop_gossip()
    system.run()
    return result


def batched_protocol_ablation(
    batch_sizes: Sequence[int] = (100, 500, 1000),
    client_counts: Sequence[int] = (1, 5, 9),
    num_batches: int = 6,
    operations_per_client: int = 400,
    certify_batch_size: int = 32,
    seed: int = 7,
) -> tuple[ResultTable, ResultTable]:
    """Figure-4/Figure-5 sweeps with signature batching switched on.

    Re-runs the WedgeChain side of the Figure 4 (batch-size) and Figure 5a
    (client-count) sweeps twice: once with the paper-exact per-block
    protocol and once with ``certify_batch_size=32`` plus
    ``gossip_batch=True`` (gossip enabled in both variants so the
    comparison is apples-to-apples; every run lasts at least one gossip
    interval, and ``gossip_batches`` counts the batched gossip rounds), and
    reports the WAN-byte and certification-CPU deltas.  Opt-in by design:
    the defaults everywhere else stay per-block so the simulated figures
    keep matching the paper's wire format byte-exactly.
    """

    def run_variant(
        workload: WorkloadConfig, block_size: int, batched: bool
    ) -> dict:
        logging = LoggingConfig(
            block_size=block_size,
            certify_batch_size=certify_batch_size if batched else 1,
        )
        security = SecurityConfig(gossip_batch=batched)
        config = SystemConfig.paper_default().with_overrides(
            logging=logging, security=security
        )
        system = build_system(
            "wedgechain",
            config=config,
            num_clients=workload.num_clients,
            seed=seed,
            enable_gossip=True,
        )
        result = _run_through_a_gossip_tick(system, workload)
        p1 = [l for t in system.trackers() for l in t.phase_one_latencies()]
        p2 = [l for t in system.trackers() for l in t.phase_two_latencies()]
        return {
            "throughput_kops": result.throughput_ops_per_s / 1000.0,
            "commit_ms": statistics.mean(p1) * 1000 if p1 else float("nan"),
            "phase2_ms": statistics.mean(p2) * 1000 if p2 else float("nan"),
            "wan_bytes": system.env.network.stats.wan_bytes,
            "certify_cpu_s": system.cloud.stats.get("certify_cpu_seconds", 0.0),
            "gossip_batches": system.cloud.stats["gossip_batches"],
        }

    figure4 = ResultTable(
        title=(
            "Figure 4 (batched variant): per-block vs certify_batch_size="
            f"{certify_batch_size} + gossip_batch"
        ),
        columns=[
            "batch_size",
            "variant",
            "commit_ms",
            "phase2_ms",
            "wan_bytes",
            "certify_cpu_s",
            "gossip_batches",
        ],
        notes="Defaults keep the per-block wire format; this ablation is the "
        "opt-in quantification of the batching savings.",
    )
    for batch_size in batch_sizes:
        workload = write_workload(
            batch_size=batch_size, num_batches=num_batches, seed=seed
        )
        for batched in (False, True):
            metrics = run_variant(workload, batch_size, batched)
            figure4.add_row(
                batch_size=batch_size,
                variant="batched" if batched else "per-block",
                commit_ms=metrics["commit_ms"],
                phase2_ms=metrics["phase2_ms"],
                wan_bytes=metrics["wan_bytes"],
                certify_cpu_s=metrics["certify_cpu_s"],
                gossip_batches=metrics["gossip_batches"],
            )

    figure5 = ResultTable(
        title=(
            "Figure 5a (batched variant): all-write throughput vs clients, "
            "per-block vs batched certification"
        ),
        columns=[
            "clients",
            "variant",
            "throughput_kops",
            "wan_bytes",
            "certify_cpu_s",
            "gossip_batches",
        ],
    )
    for count in client_counts:
        workload = WorkloadConfig(
            num_clients=count,
            batch_size=100,
            operations_per_client=operations_per_client,
            key_space=100_000,
            seed=seed,
        )
        for batched in (False, True):
            metrics = run_variant(workload, 100, batched)
            figure5.add_row(
                clients=count,
                variant="batched" if batched else "per-block",
                throughput_kops=metrics["throughput_kops"],
                wan_bytes=metrics["wan_bytes"],
                certify_cpu_s=metrics["certify_cpu_s"],
                gossip_batches=metrics["gossip_batches"],
            )
    return figure4, figure5


# ----------------------------------------------------------------------
# Pipelined-certification depth sweep (opt-in, paper-scale figure 5a)
# ----------------------------------------------------------------------
def pipeline_depth_ablation(
    depths: Sequence[int] = (1, 4, 16),
    client_counts: Sequence[int] = (1, 5, 9),
    operations_per_client: int = 400,
    batch_size: int = 100,
    certify_batch_size: int = 32,
    seed: int = 7,
) -> ResultTable:
    """Figure-5a sweep of ``certify_pipeline_depth`` on the batched protocol.

    Re-runs the all-write client sweep with ``certify_batch_size`` batching
    on and the certification pipeline at each depth.  Phase I numbers
    (throughput, commit latency) must not move — the pipeline lives entirely
    off the client-visible path — while the Phase II drain (how long after
    the last Phase I commit the last certificate lands) shrinks as deeper
    windows overlap certification round-trips instead of parking full
    batches behind one outstanding request.  ``phase2_lag_s`` is that drain
    interval; ``inflight_peak`` shows how much of the window was actually
    used; ``certify_requests`` counts certify dispatches; ``gossip_batches``
    counts batched gossip rounds (every run lasts at least one gossip
    interval).
    """

    table = ResultTable(
        title=(
            "Figure 5a (pipelined variant): certify_pipeline_depth sweep on "
            f"the batched protocol (certify_batch_size={certify_batch_size})"
        ),
        columns=[
            "clients",
            "depth",
            "throughput_kops",
            "commit_ms",
            "phase2_lag_s",
            "wan_bytes",
            "certify_cpu_s",
            "certify_requests",
            "inflight_peak",
            "gossip_batches",
        ],
        notes="Defaults keep depth 1 (and certify_batch_size 1) so the "
        "committed figures keep the paper-exact protocol; this ablation is "
        "the opt-in quantification of pipeline depth.",
    )
    for count in client_counts:
        workload = WorkloadConfig(
            num_clients=count,
            batch_size=batch_size,
            operations_per_client=operations_per_client,
            key_space=100_000,
            seed=seed,
        )
        for depth in depths:
            logging = LoggingConfig(
                block_size=batch_size,
                certify_batch_size=certify_batch_size,
                certify_pipeline_depth=depth,
            )
            config = SystemConfig.paper_default().with_overrides(
                logging=logging, security=SecurityConfig(gossip_batch=True)
            )
            system = build_system(
                "wedgechain",
                config=config,
                num_clients=count,
                seed=seed,
                enable_gossip=True,
            )
            result = _run_through_a_gossip_tick(system, workload)
            p1 = [l for t in system.trackers() for l in t.phase_one_latencies()]
            phase_one_times = [
                record.phase_one_at
                for tracker in system.trackers()
                for record in tracker.records()
                if record.is_write and record.phase_one_at is not None
            ]
            phase_two_times = [
                record.phase_two_at
                for tracker in system.trackers()
                for record in tracker.records()
                if record.is_write and record.phase_two_at is not None
            ]
            lag = (
                max(phase_two_times) - max(phase_one_times)
                if phase_one_times and phase_two_times
                else float("nan")
            )
            edge = system.edge()
            table.add_row(
                clients=count,
                depth=depth,
                throughput_kops=result.throughput_ops_per_s / 1000.0,
                commit_ms=statistics.mean(p1) * 1000 if p1 else float("nan"),
                phase2_lag_s=lag,
                wan_bytes=system.env.network.stats.wan_bytes,
                certify_cpu_s=system.cloud.stats.get("certify_cpu_seconds", 0.0),
                certify_requests=edge.stats["certify_requests"],
                inflight_peak=edge.stats.get("certify_inflight_peak", 0),
                gossip_batches=system.cloud.stats["gossip_batches"],
            )
    return table


# ----------------------------------------------------------------------
# Ablations (beyond the paper's figures)
# ----------------------------------------------------------------------
def ablation_data_free_certification(
    batch_sizes: Sequence[int] = (100, 500, 1000),
    num_batches: int = 10,
    seed: int = 7,
) -> ResultTable:
    """Data-free vs full-data lazy certification: WAN traffic and P2 latency."""

    table = ResultTable(
        title="Ablation: data-free vs full-data (lazy) certification",
        columns=[
            "batch_size",
            "variant",
            "commit_latency_ms",
            "phase2_latency_ms",
            "wan_megabytes",
        ],
    )

    def run_variant(batch_size: int, full_data: bool) -> tuple[float, float, float]:
        config = config_for_batch(batch_size)
        workload = write_workload(batch_size=batch_size, num_batches=num_batches, seed=seed)
        factory = None
        if full_data:
            def factory(env, cloud, cfg, name, region):
                return FullDataLazyEdgeNode(
                    env=env, cloud=cloud, config=cfg, name=name, region=region
                )
        system = build_system(
            "wedgechain", config=config, num_clients=1, seed=seed, edge_factory=factory
        )
        driver = LoadDriver(system, workload)
        driver.run(max_time_s=600)
        system.run()
        p1 = [
            lat for tracker in system.trackers() for lat in tracker.phase_one_latencies()
        ]
        p2 = [
            lat for tracker in system.trackers() for lat in tracker.phase_two_latencies()
        ]
        wan_mb = system.env.network.stats.wan_bytes / 1e6
        return (
            statistics.mean(p1) * 1000 if p1 else float("nan"),
            statistics.mean(p2) * 1000 if p2 else float("nan"),
            wan_mb,
        )

    for batch_size in batch_sizes:
        for full_data in (False, True):
            commit_ms, p2_ms, wan_mb = run_variant(batch_size, full_data)
            table.add_row(
                batch_size=batch_size,
                variant="full-data" if full_data else "data-free",
                commit_latency_ms=commit_ms,
                phase2_latency_ms=p2_ms,
                wan_megabytes=wan_mb,
            )
    return table


def ablation_gossip_interval(
    intervals_s: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    batch_size: int = 20,
    seed: int = 7,
) -> ResultTable:
    """Omission-attack detection latency as a function of the gossip interval.

    An omitting edge node denies a certified block; the table reports how
    long after certification the reading client is able to prove the omission
    (bounded by the gossip interval, Section IV-E).
    """

    from ..nodes.malicious import OmittingEdgeNode

    table = ResultTable(
        title="Ablation: gossip interval vs omission-detection delay",
        columns=["gossip_interval_s", "detection_delay_s", "edge_punished"],
    )
    for interval in intervals_s:
        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(block_size=batch_size),
            security=SecurityConfig(gossip_interval_s=interval, dispute_timeout_s=30.0),
        )

        def factory(env, cloud, cfg, name, region):
            return OmittingEdgeNode(env=env, cloud=cloud, config=cfg, name=name, region=region)

        system = build_system(
            "wedgechain",
            config=config,
            num_clients=2,
            seed=seed,
            edge_factory=factory,
            enable_gossip=True,
        )
        writer, reader = system.clients[0], system.clients[1]
        workload = KeyValueWorkload(WorkloadConfig(batch_size=batch_size, seed=seed))
        op = writer.put_batch(workload.write_batch(batch_size))
        system.wait_for(writer, op, CommitPhase.PHASE_TWO, max_time_s=60)
        certified_at = system.env.now()

        detection_at = None
        deadline = certified_at + 10 * interval + 30
        while system.env.now() < deadline and detection_at is None:
            read_op = reader.read(0)
            system.wait_for(
                reader, read_op, CommitPhase.PHASE_ONE, max_time_s=min(2.0, interval)
            )
            if any(event["kind"] == "omission" for event in reader.malicious_events):
                detection_at = reader.malicious_events[-1]["at"]
                break
            system.run_for(interval / 2)
        system.run_for(5.0)
        table.add_row(
            gossip_interval_s=interval,
            detection_delay_s=(detection_at - certified_at) if detection_at else float("nan"),
            edge_punished=system.cloud.ledger.is_punished(system.edge(0).node_id),
        )
    return table
