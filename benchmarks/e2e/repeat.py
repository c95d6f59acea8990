"""Back-to-back runs of one workload: medians, quartiles, spread against the bound.

    python benchmarks/e2e/repeat.py --workload live_put --runs 10

Each run is a fresh ``run.py`` process with another seed from ``SEEDS``
(``--same-seed`` repeats one seed instead, to show which counts repeat
exactly).  The spread is the inter-quartile distance as a share of the
median; a bound is only meaningful while the spread stays well inside it.
The last column is the spread the same runs show on the raw wall clock,
before the host clock (``wedgebench/hostclock.py``) takes host noise out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from wedgebench import spec  # noqa: E402  (path bootstrap above)
from wedgebench.stats import quartile_spread  # noqa: E402

#: Fixed seed list (the seed-list idiom of SNIPPETS.md snippet 1).
SEEDS = (1, 293, 287844, 2902, 944, 9573, 102903, 193, 456, 71)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"run failed (seed {seed}):\n{completed.stdout}\n{completed.stderr}"
        )
    lines = completed.stdout.strip().splitlines()
    outcome = json.loads(lines[-1])
    # The untraced runner also prints its times as raw wall-clock.
    outcome["raw"] = {
        name: float(value)
        for line in lines
        if line.strip().startswith("raw wall-clock:")
        for name, value in (item.split("=") for item in line.split(":", 1)[1].split())
    }
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--same-seed", type=int, default=None)
    parser.add_argument("--json", default=None, help="also write every run here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {name: bound for name, _u, _b, bound in spec.END_TO_END}
    runs = []
    for index in range(args.runs):
        seed = args.same_seed if args.same_seed is not None else SEEDS[index % len(SEEDS)]
        outcome = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, **outcome})
        print(f"run {index + 1}/{args.runs} seed {seed}: correct={outcome['correct']} "
              f"failed={outcome['failed']}/{outcome['attempted']}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(
        f"{'metric':<38}{'q1':>14}{'median':>14}{'q3':>14}{'spread':>9}{'bound':>8}"
        f"{'':>6}{'raw spread':>12}"
    )
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        bound = bounds.get(name)
        spread = quartile_spread(values) if q2 else 0.0
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
        raw = [run["raw"][name] for run in runs if name in run["raw"]]
        print(
            f"{name:<38}{q1:>14.4f}{q2:>14.4f}{q3:>14.4f}{spread:>9.2%}"
            f"{'' if bound is None else format(bound, '>8.0%')}{flag:>6}"
            f"{format(quartile_spread(raw), '>12.2%') if len(raw) == len(runs) else ''}"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
