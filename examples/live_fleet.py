#!/usr/bin/env python3
"""Run a live WedgeChain fleet and drive it with open-loop load.

The same node code that powers the simulator runs here as asyncio tasks
exchanging codec-framed messages over unix sockets: start a 1-cloud/2-edge
fleet, offer it a seeded Poisson stream of put batches plus verified reads
through the same ``LoadDriver`` the simulated experiments use, print
p50/p90/p99/p999 response-time percentiles (timed from when each request was
due) and how late the generator ran, and shut down cleanly.

Run with::

    python examples/live_fleet.py
"""

from __future__ import annotations

import asyncio

from repro.common.config import WorkloadConfig
from repro.log.proofs import CommitPhase
from repro.service import LiveFleet
from repro.workloads import LoadDriver, OpenLoopSpec


async def main() -> None:
    print("== WedgeChain live fleet: 1 cloud, 2 edges, 2 clients ==")
    fleet = LiveFleet(num_edges=2, num_clients=2, seed=7)
    await fleet.start()
    print("fleet up: sockets bound, node workers running")

    # One put, followed end to end: Phase I (edge receipt) then Phase II
    # (cloud certification, lazily).
    client = fleet.client(0)
    operation = client.put_batch([("sensor-0", b"reading-1"), ("sensor-1", b"reading-2")])
    phase = await fleet.wait_for(client, operation, CommitPhase.PHASE_TWO, timeout_s=10)
    print(f"single put committed through {phase.value}")

    # A verified read: the edge answers with an LSMerkle proof the client
    # checks against the cloud-signed root.
    read = client.get("sensor-0")
    phase = await fleet.wait_for(client, read, CommitPhase.PHASE_TWO, timeout_s=10)
    print(f"verified read completed through {phase.value}")

    # Open-loop load: arrivals are fixed in advance by a seeded Poisson
    # process, so a slow fleet cannot slow the offered load — queueing
    # delay lands in the percentiles instead.
    workload = WorkloadConfig(
        num_clients=2,
        batch_size=50,
        value_size=100,
        read_fraction=0.1,
        key_space=1_000,
        operations_per_client=100,
        seed=7,
    )
    spec = OpenLoopSpec(workload=workload, num_requests=80, rate=60.0)
    print(f"offering {spec.num_requests} requests at {spec.rate:.0f} req/s (Poisson)...")
    result = await LoadDriver(fleet, spec).run_live()
    print("open-loop response times (due time to Phase I commit):")
    for line in result.report_lines():
        print(f"  {line}")

    stats = fleet.stats()
    print(
        f"fleet stats: {stats.phase_two_commits} certified operations, "
        f"{stats.blocks_formed} blocks, {stats.certifications} certifications, "
        f"{stats.frames_sent} frames ({stats.frame_bytes_sent} bytes) on the wire"
    )
    await fleet.stop()
    print("clean shutdown")


if __name__ == "__main__":
    asyncio.run(main())
