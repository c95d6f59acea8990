"""End-to-end benchmark runner: one workload per invocation.

    python benchmarks/e2e/run.py --workload live_put --seed 7

drives the public surface of the system (``LiveFleet``, ``Client.put_batch``
/ ``Client.get``, ``CommitTracker.on_phase_change``; ``build_system`` +
``ClosedLoopDriver`` for the simulator), checks every output against the
benchmark's own map, prints each metric by name and unit, and ends with one
JSON line.  ``--trace 1`` makes the separate traced run that yields the
per-layer metrics; end-to-end metrics always come from ``--trace 0``.
See ``README.md`` beside this file for the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def _pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` so set order never varies a run."""

    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _parse(argv) -> argparse.Namespace:
    from wedgebench import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out", default=None, help="span file of the traced run (JSON)"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrinks preload and sample sizes; for the smoke test only",
    )
    parser.add_argument(
        "--spec", action="store_true", help="print the content of BENCHMARK.json"
    )
    args = parser.parse_args(argv)
    if not args.spec and args.workload is None:
        parser.error("--workload is required")
    return args


def _report(args, metrics: dict, units: dict, notes: list[str], outcome) -> int:
    """Print the table, then the one JSON line the driver reads."""

    width = max(len(name) for name in metrics)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6f} {units[name]}")
    for note in notes:
        print(f"  {note}")
    correct = outcome.failed == 0
    for error in outcome.errors:
        print(f"  CHECK FAILED: {error}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        # Never fall back to an installed copy: the benchmark measures this checkout.
        sys.exit(f"{__file__}: the system under test is missing ({SRC}/repro)")
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    args = _parse(argv)
    from wedgebench import spec

    if args.spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0

    from wedgebench.workloads import run_traced, run_untraced

    # Sockets and the span file stay inside the checkout.
    run_dir = os.path.join(HERE, ".run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.trace:
            trace_out = args.trace_out or os.path.join(
                HERE, ".run", f"trace-{args.workload}.json"
            )
            metrics, notes, outcome = run_traced(args, run_dir, trace_out)
            units = spec.PER_LAYER_UNITS
        else:
            metrics, notes, outcome = run_untraced(args, run_dir)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            units = spec.END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from the declared set: {sorted(set(metrics) ^ set(units))}")
    return _report(args, {name: metrics[name] for name in units}, units, notes, outcome)


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
