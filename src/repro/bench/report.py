"""Generate EXPERIMENTS.md: paper-reported vs measured results.

Run with::

    python -m repro.bench.report [output-path] [--scale N]

The report runs every experiment of the evaluation at a configurable scale,
renders the measured tables, and places them next to the values the paper
reports together with the shape criteria that must hold for the reproduction
to count as successful.
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from . import experiments
from .results import ResultTable
from .runner import counting_faults

PAPER_SUMMARY = {
    "figure4_latency": (
        "WedgeChain 15→20 ms, Cloud-only 78→83 ms, Edge-baseline 109→213 ms "
        "as batches grow from 100 to 2000 operations."
    ),
    "figure4_throughput": (
        "WedgeChain 6.6K→~100K ops/s (≈15×), Cloud-only ≈18.5× increase, "
        "Edge-baseline only ≈2× increase."
    ),
    "figure5a": (
        "All-write: +22–30% for WedgeChain and Edge-baseline from 1→9 clients, "
        "+433% for Cloud-only (which nearly catches up to WedgeChain)."
    ),
    "figure5b": (
        "50% reads: WedgeChain ≈4K ops/s, Edge-baseline ≈1.3K, Cloud-only ≈270 ops/s."
    ),
    "figure5c": (
        "All-read: WedgeChain ≈ Edge-baseline, both far above Cloud-only."
    ),
    "figure5d": (
        "Best-case read latency 0.71 ms at the edge (0.19 ms of which is client "
        "verification) vs 0.5 ms at the cloud with no verification."
    ),
    "figure6": (
        "4000 batches: Phase I completes within ~60 s for every batch size; "
        "Phase II keeps up at B=100 but lags by tens of seconds at B=500/1000."
    ),
    "figure7a": (
        "Moving the cloud (O/V/I/M): WedgeChain stays at 15–17 ms; Cloud-only "
        "37–247 ms; Edge-baseline 59–321 ms."
    ),
    "figure7b": (
        "Moving the edge (cloud in Mumbai): WedgeChain tracks the client-edge RTT "
        "(17–247 ms); Cloud-only is flat; all systems converge when edge = cloud."
    ),
    "section6e": (
        "Growing the key range 100K→100M leaves write latency flat for all systems "
        "(WedgeChain 15–16 ms, Edge-baseline 88–95 ms, Cloud-only 78–79 ms)."
    ),
}


def _emit(out: TextIO, text: str = "") -> None:
    out.write(text + "\n")


def _emit_table(out: TextIO, table: ResultTable) -> None:
    _emit(out, "```")
    _emit(out, table.format())
    _emit(out, "```")
    _emit(out)


def report_tables(scale: float = 1.0) -> dict[str, ResultTable]:
    """Run every experiment the report renders; tables keyed by section.

    The one table builder behind both :func:`generate_report` and the
    committed full-precision golden (``tests/test_paper_golden.py``).
    Experiments run in report order.  Each table's ``counters`` are the
    fault counters summed over every system its experiment built, and its
    ``phase_two_lag_s`` the largest Phase II lag among their operations.
    """

    batches = max(int(6 * scale), 3)
    ops_small = max(int(300 * scale), 60)
    tables: dict[str, ResultTable] = {}

    def run(keys, experiment, *args, **kwargs) -> None:
        # *keys* names the experiment's tables in order; ``None`` drops one.
        with counting_faults() as tally:
            produced = experiment(*args, **kwargs)
        if isinstance(produced, ResultTable):
            produced = (produced,)
        for key, table in zip(keys, produced):
            if key is not None:
                table.counters = tally.totals()
                table.phase_two_lag_s = tally.phase_two_lag_s()
                tables[key] = table

    run(("table1",), experiments.table1_rtt)
    run(
        ("figure4_latency", "figure4_throughput"),
        experiments.figure4_put_batch_size,
        num_batches=batches,
    )
    for fraction, key in ((0.0, "figure5a"), (0.5, "figure5b"), (1.0, "figure5c")):
        run(
            (key,),
            experiments.figure5_multi_client,
            fraction,
            operations_per_client=ops_small,
        )
    run(("figure5d",), experiments.figure5d_best_case_read)
    run(
        ("figure6", None),
        experiments.figure6_commit_phases,
        num_batches=max(int(120 * scale), 40),
    )
    run(("figure7a",), experiments.figure7_vary_cloud_location, num_batches=batches)
    run(("figure7b",), experiments.figure7_vary_edge_location, num_batches=batches)
    run(("section6e",), experiments.section6e_dataset_size, num_batches=batches)
    run(
        ("ablation_data_free",),
        experiments.ablation_data_free_certification,
        num_batches=batches,
    )
    run(("ablation_gossip",), experiments.ablation_gossip_interval)
    return tables


def generate_report(out: TextIO, scale: float = 1.0) -> None:
    """Run every experiment and write the markdown report to *out*."""

    tables = report_tables(scale)

    _emit(out, "# EXPERIMENTS — paper vs. measured")
    _emit(out)
    _emit(
        out,
        "Every table below was produced by this repository's simulator "
        "(`python -m repro.bench.report`). The paper's numbers come from AWS "
        "m5d.xlarge VMs; ours come from a calibrated discrete-event model, so "
        "absolute values are not expected to match — the acceptance criteria "
        "are the *shapes*: orderings between systems, trends across the swept "
        "parameter, and crossover points. Deviations are called out explicitly.",
    )
    _emit(out)

    # ----------------------------------------------------------- Table I
    _emit(out, "## Table I — round-trip times")
    _emit(out)
    _emit(out, "Paper: California to C/O/V/I/M = 0/19/61/141/238 ms.")
    _emit(out, "Measured (simulator topology, used by every experiment below):")
    _emit(out)
    _emit_table(out, tables["table1"])
    _emit(out, "The California row is embedded verbatim; pairs the paper does not "
               "report are filled from public AWS measurements (DESIGN.md §5).")
    _emit(out)

    # ----------------------------------------------------------- Figure 4
    _emit(out, "## Figure 4 — put latency and throughput vs batch size")
    _emit(out)
    _emit(out, f"Paper: {PAPER_SUMMARY['figure4_latency']}")
    _emit(out, f"Paper: {PAPER_SUMMARY['figure4_throughput']}")
    _emit(out)
    _emit_table(out, tables["figure4_latency"])
    _emit_table(out, tables["figure4_throughput"])
    _emit(
        out,
        "Shape check: WedgeChain commits at edge latency and is nearly flat; "
        "Cloud-only sits near its round trip; Edge-baseline is the slowest and "
        "degrades the most with batch size; WedgeChain's throughput grows by "
        "roughly an order of magnitude and dominates both baselines. "
        "Deviation: our Edge-baseline throughput still grows with batch size "
        "(the paper reports only ≈2×) because the simulated WAN pipe is the "
        "only shared bottleneck we model.",
    )
    _emit(out)

    # ----------------------------------------------------------- Figure 5
    _emit(out, "## Figure 5 — multi-client and mixed workloads")
    _emit(out)
    for key in ("figure5a", "figure5b", "figure5c"):
        _emit(out, f"Paper: {PAPER_SUMMARY[key]}")
        _emit(out)
        _emit_table(out, tables[key])
    _emit(
        out,
        "Shape check: every system gains from concurrency; Cloud-only gains the "
        "most in relative terms; with interactive reads in the mix Cloud-only "
        "collapses while WedgeChain and Edge-baseline serve reads from the edge. "
        "Deviations: (1) our WedgeChain scales with clients more than the paper's "
        "22–30% because the paper's edge node saturates on per-request work we "
        "do not model; (2) the WedgeChain-to-Cloud-only gap in the 50% mix is "
        "≈4–5× rather than ≈15× because our calibrated client-edge RTT (12 ms) "
        "is larger than the paper's testbed.",
    )
    _emit(out)

    _emit(out, f"Paper: {PAPER_SUMMARY['figure5d']}")
    _emit(out)
    _emit_table(out, tables["figure5d"])
    _emit(
        out,
        "Shape check: co-located reads complete in well under 10 ms of simulated "
        "time; Cloud-only needs no verification; the edge systems pay a small, "
        "non-dominant verification overhead at the client.",
    )
    _emit(out)

    # ----------------------------------------------------------- Figure 6
    _emit(out, "## Figure 6 — Phase I vs Phase II commit rates")
    _emit(out)
    _emit(out, f"Paper: {PAPER_SUMMARY['figure6']}")
    _emit(out)
    _emit_table(out, tables["figure6"])
    _emit(
        out,
        "Shape check: the time to finish Phase I is essentially independent of "
        "the batch size, while the Phase II lag grows with the batch size — the "
        "client-visible commit rate is unaffected by certification falling "
        "behind, which is the point of lazy certification.",
    )
    _emit(out)

    # ----------------------------------------------------------- Figure 7
    _emit(out, "## Figure 7 — edge and cloud placement")
    _emit(out)
    _emit(out, f"Paper: {PAPER_SUMMARY['figure7a']}")
    _emit(out)
    _emit_table(out, tables["figure7a"])
    _emit(out, f"Paper: {PAPER_SUMMARY['figure7b']}")
    _emit(out)
    _emit_table(out, tables["figure7b"])
    _emit(
        out,
        "Shape check: WedgeChain is flat as the cloud moves (the cloud is off the "
        "commit path) and tracks the client-edge RTT as the edge moves; the "
        "baselines track the cloud distance; the three designs converge when the "
        "edge is co-located with the cloud in Mumbai.",
    )
    _emit(out)

    # ----------------------------------------------------------- Section VI-E
    _emit(out, "## Section VI-E — dataset size")
    _emit(out)
    _emit(out, f"Paper: {PAPER_SUMMARY['section6e']}")
    _emit(out)
    _emit_table(out, tables["section6e"])
    _emit(
        out,
        "Shape check: latency is flat across a 100× growth of the key range for "
        "all three systems (communication dominates I/O). The sweep is scaled "
        "down from the paper's 100K–100M keys to 10K–1M in-memory keys.",
    )
    _emit(out)

    # ----------------------------------------------------------- Ablations
    _emit(out, "## Ablations (beyond the paper's figures)")
    _emit(out)
    _emit_table(out, tables["ablation_data_free"])
    _emit(
        out,
        "Data-free certification leaves the client-visible commit latency "
        "untouched but cuts WAN traffic by a factor that grows with the batch "
        "size — the quantitative version of the paper's Section IV-B argument.",
    )
    _emit(out)
    _emit_table(out, tables["ablation_gossip"])
    _emit(
        out,
        "The omission-attack detection delay is bounded by (a small multiple of) "
        "the gossip interval, matching the Section IV-E analysis.",
    )
    _emit(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    with open(args.output, "w", encoding="utf-8") as handle:
        generate_report(handle, scale=args.scale)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
