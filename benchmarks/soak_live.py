"""Live soak: closed-loop puts against a live fleet, reported per interval.

Drives one client's ``put_batch(100)`` stream through the closed-loop
``LoadDriver`` against a ``LiveFleet`` (1 cloud, 1 edge, unix sockets,
paper defaults with ``block_size=100``) and prints one line per interval:

* RSS: the peak (``ru_maxrss``) and the current value (``/proc/self/statm``);
* the interval's put p50 and p90, issue to Phase I;
* generation-2 collections in the interval and the time they took, timed
  through ``gc.callbacks`` — whether the put tail has a GC component that
  grows with the heap.
* how many objects the edge's and the cloud's held sets hold
  (``len(node.held.objects())``): the edge's are a merge's inputs while it
  is in flight, the cloud's the records of the upper levels it last
  answered with, bounded by those levels' thresholds.

Informational: it asserts nothing about timings and exits 1 only if a put
fails.  Usage::

    python benchmarks/soak_live.py                       # 10 min, per minute
    python benchmarks/soak_live.py --seconds 20 --interval 5
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import os
import resource
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench.runner import config_for_batch  # noqa: E402  (path bootstrap above)
from repro.common.config import WorkloadConfig  # noqa: E402
from repro.obs.metrics import Histogram  # noqa: E402
from repro.service import LiveFleet  # noqa: E402
from repro.workloads import LoadDriver  # noqa: E402

BATCH = 100
#: Put batches per driver run; an interval runs whole driver runs.
BATCHES_PER_RUN = 20
KEY_SPACE = 20_000
SEED = 7


class FullCollections:
    """Counts and times generation-2 collections through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.count += 1
            self.seconds += time.perf_counter() - self._started


def rss_mb() -> tuple[float, float]:
    """``(peak, current)`` resident set size in MB; current is NaN off Linux."""

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return peak, float("nan")
    return peak, pages * os.sysconf("SC_PAGE_SIZE") / 2**20


async def soak(seconds: float, interval: float) -> int:
    fleet = LiveFleet(config=config_for_batch(BATCH), seed=SEED)
    await fleet.start()
    collections = FullCollections()
    gc.callbacks.append(collections)
    failed = 0
    runs = 0
    start = time.perf_counter()
    try:
        print(
            "elapsed_s    puts  put_p50_ms  put_p90_ms  maxrss_mb  rss_mb  "
            "gc2_count  gc2_ms  edge_held  cloud_held",
            flush=True,
        )
        while time.perf_counter() - start < seconds:
            interval_end = time.perf_counter() + interval
            latencies = Histogram()
            gc_count, gc_seconds = collections.count, collections.seconds
            puts = 0
            while time.perf_counter() < interval_end:
                workload = WorkloadConfig(
                    batch_size=BATCH,
                    key_space=KEY_SPACE,
                    operations_per_client=BATCH * BATCHES_PER_RUN,
                    seed=SEED + runs,
                )
                runs += 1
                result = await LoadDriver(fleet, workload).run_live()
                failed += result.failed
                for latency in result.response_times_s:
                    latencies.observe(latency)
                puts += result.operations_completed
            peak, current = rss_mb()
            print(
                f"{time.perf_counter() - start:9.1f}  {puts:6d}  "
                f"{latencies.percentile(0.5) * 1e3:10.2f}  "
                f"{latencies.percentile(0.9) * 1e3:10.2f}  "
                f"{peak:9.1f}  {current:6.1f}  "
                f"{collections.count - gc_count:9d}  "
                f"{(collections.seconds - gc_seconds) * 1e3:6.1f}  "
                f"{len(fleet.edge(0).held.objects()):9d}  "
                f"{len(fleet.cloud.held.objects()):10d}",
                flush=True,
            )
    finally:
        gc.callbacks.remove(collections)
        await fleet.stop()
    if failed:
        print(f"{failed} put request(s) failed", flush=True)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=600.0, help="soak length")
    parser.add_argument("--interval", type=float, default=60.0, help="report period")
    args = parser.parse_args(argv)
    return asyncio.run(soak(args.seconds, args.interval))


if __name__ == "__main__":
    sys.exit(main())
