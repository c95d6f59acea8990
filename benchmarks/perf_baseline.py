"""Hot-path performance baseline driver.

Runs the seeded micro-benchmark suite in :mod:`repro.bench.perf` and writes
``BENCH_hotpath.json`` at the repository root — the first point of the perf
trajectory later PRs ratchet against.  Usage::

    PYTHONPATH=src python benchmarks/perf_baseline.py --mode quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench.perf import (  # noqa: E402  (path bootstrap above)
    format_summary,
    run_perf_suite,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("quick", "full"), default="quick")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default="BENCH_hotpath.json")
    args = parser.parse_args(argv)

    summary = run_perf_suite(mode=args.mode, seed=args.seed)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(format_summary(summary))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
