"""Perf-regression gate: diff a fresh perf run against the committed baseline.

Compares the ``ops_per_s`` of every metric present in the *baseline* file
(the committed ``BENCH_hotpath.json``) against the same metric in the
*current* run and fails when any of them regressed by more than the
threshold (25% by default) relative to the run as a whole.

The committed baseline is recorded on one specific machine while CI runners
(and loaded laptops) run uniformly slower or faster, so raw ops/s ratios
would flag every metric at once on different hardware.  The gate therefore
calibrates first: it takes the **median** current/baseline ratio across all
shared metrics as the machine-speed factor and fails a metric only when its
own ratio falls more than the threshold below that median.  A targeted
regression (one hot path got slower) barely moves the median of the other
metrics and is caught; a uniformly slower runner shifts every ratio equally
and passes.  ``--raw`` disables the calibration for same-machine
comparisons.  Metrics that only exist in the current run (newly added
benchmarks) are reported but never gate.

New-row convention, made explicit: a baseline may carry a top-level
``non_gating`` list naming rows that are *recorded but not yet enforced* —
a row enters the baseline and that list in the PR that adds it (its first
number is measured on one machine, with no history to ratchet against) and
leaves the list in the next PR, becoming gated.  Non-gating rows are
reported, excluded from the machine-speed median, and never fail the gate.

``--current`` takes one result file or several.  With several the gate
judges each row by its **median** ``ops_per_s`` across them, so one run in
which a host stall halved a single row cannot fail the build (CI passes
three); a row missing from any of the files is missing.  Usage::

    for i in 1 2 3; do python benchmarks/perf_baseline.py --mode quick --output /tmp/BENCH_$i.json; done
    python benchmarks/check_perf_regression.py --baseline BENCH_hotpath.json --current /tmp/BENCH_1.json /tmp/BENCH_2.json /tmp/BENCH_3.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _read_summary(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _results_of(summary: dict, path: str) -> dict[str, dict]:
    results = summary.get("results")
    if not isinstance(results, dict) or not results:
        raise SystemExit(f"{path}: no results section — not a perf summary")
    return results


def _non_gating_of(summary: dict, path: str) -> frozenset[str]:
    names = summary.get("non_gating", ())
    if not isinstance(names, (list, tuple)):
        raise SystemExit(f"{path}: non_gating must be a list of metric names")
    return frozenset(names)


def load_results(path: str) -> dict[str, dict]:
    return _results_of(_read_summary(path), path)


def load_median_results(paths: list[str]) -> dict[str, dict]:
    """Every row's median ``ops_per_s`` across the runs in *paths*.

    A row without a number in any one run is left out, which the gate
    reports as missing.
    """

    runs = [load_results(path) for path in paths]
    return {
        name: {"ops_per_s": statistics.median(run[name]["ops_per_s"] for run in runs)}
        for name in runs[0]
        if all(run.get(name, {}).get("ops_per_s") for run in runs)
    }


def load_non_gating(path: str) -> frozenset[str]:
    """Rows the baseline marks as recorded-but-not-yet-enforced."""

    return _non_gating_of(_read_summary(path), path)


def compare(
    baseline: dict[str, dict],
    current: dict[str, dict],
    threshold: float,
    normalize: bool = True,
    non_gating: frozenset[str] = frozenset(),
) -> tuple[list[str], list[str]]:
    """Return (report lines, regression lines) for the two result sets."""

    ratios: dict[str, float] = {}
    observed: dict[str, float] = {}
    missing: list[str] = []
    lines: list[str] = []
    for name, reference in baseline.items():
        reference_ops = reference.get("ops_per_s")
        if not reference_ops:
            continue
        fresh = current.get(name)
        if fresh is None or not fresh.get("ops_per_s"):
            if name in non_gating:
                # Still *reported*: a new row that silently stopped
                # producing numbers must be visible even though it
                # cannot fail the gate yet.
                lines.append(
                    f"{name:<20}{reference_ops:>16,.0f}{'(missing)':>16}"
                    f"{'':>19}  non-gating"
                )
            else:
                missing.append(f"{name}: missing from the current run")
            continue
        observed[name] = fresh["ops_per_s"] / reference_ops
        if name not in non_gating:
            # Non-gating rows have exactly one recorded point; keeping them
            # out of the calibration means a noisy first measurement cannot
            # shift the machine-speed median the gated rows are judged by.
            ratios[name] = observed[name]

    speed_factor = 1.0
    if normalize and ratios:
        speed_factor = statistics.median(ratios.values())

    regressions: list[str] = list(missing)
    for name, ratio in observed.items():
        relative = ratio / speed_factor
        status = "ok"
        if name in non_gating:
            status = "non-gating"
        elif relative < 1.0 - threshold:
            status = "REGRESSION"
            regressions.append(
                f"{name}: {current[name]['ops_per_s']:,.0f} ops/s is "
                f"{(1.0 - relative) * 100.0:.1f}% below the run median "
                f"(baseline {baseline[name]['ops_per_s']:,.0f} ops/s, "
                f"machine-speed factor {speed_factor:.2f}x)"
            )
        lines.append(
            f"{name:<20}{baseline[name]['ops_per_s']:>16,.0f}"
            f"{current[name]['ops_per_s']:>16,.0f}"
            f"{ratio:>9.2f}x{relative:>9.2f}x  {status}"
        )
    for name in sorted(set(current) - set(baseline)):
        ops = current[name].get("ops_per_s")
        if ops:
            lines.append(f"{name:<20}{'(new)':>16}{ops:>16,.0f}{'':>19}  new")
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_hotpath.json")
    parser.add_argument(
        "--current",
        required=True,
        nargs="+",
        help="one or several result files; several are gated on the per-row median",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum allowed fractional regression (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--raw",
        action="store_true",
        help="compare raw ops/s without the median machine-speed calibration",
    )
    args = parser.parse_args(argv)

    baseline_summary = _read_summary(args.baseline)
    baseline = _results_of(baseline_summary, args.baseline)
    non_gating = _non_gating_of(baseline_summary, args.baseline)
    current = load_median_results(args.current)
    lines, regressions = compare(
        baseline,
        current,
        args.threshold,
        normalize=not args.raw,
        non_gating=non_gating,
    )

    print(
        f"{'benchmark':<20}{'baseline ops/s':>16}{'current ops/s':>16}"
        f"{'ratio':>10}{'adjusted':>9}"
    )
    for line in lines:
        print(line)
    if not args.raw:
        shared = [
            current[name]["ops_per_s"] / reference["ops_per_s"]
            for name, reference in baseline.items()
            if name not in non_gating
            and reference.get("ops_per_s")
            and current.get(name, {}).get("ops_per_s")
        ]
        if shared and statistics.median(shared) < 1.0 - args.threshold:
            # Known blind spot of the calibration: a regression hitting the
            # *majority* of metrics (a shared substrate like the canonical
            # encoder) moves the median with it and passes per-metric
            # checks.  The gate cannot distinguish that from a slower
            # machine, so it warns loudly instead of failing; compare with
            # --raw on the baseline's own hardware to disambiguate.
            print(
                f"\nWARNING: the median ratio is "
                f"{statistics.median(shared):.2f}x — either this machine is "
                "uniformly slower than the one that recorded the baseline, "
                "or a shared-substrate regression hit most metrics at once. "
                "Re-check with --raw on comparable hardware."
            )
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} metric(s) regressed more than "
            f"{args.threshold:.0%} vs {args.baseline}:"
        )
        for regression in regressions:
            print(f"  - {regression}")
        return 1
    print(f"\nOK: no metric regressed more than {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
