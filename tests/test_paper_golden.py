"""The reproduction's figures, pinned at full precision.

``tests/data/paper_golden.json`` holds every row of every table that
``python -m repro.bench.report`` renders, at ``--scale 0.25``, with floats
written as their ``repr``, and each table's fault counters: certify
retries, disputes sent and punishments summed over every system its
experiment built, and beside them the largest Phase II lag any of those
systems' operations saw.  The report rounds to 3–4 significant figures;
the golden does not, so a moved modelled byte or microsecond fails here.
The shape assertions in ``benchmarks/test_figure*.py`` check the paper's
claims; this file checks that the reproduction's own numbers did not move.

A change that moves a figure on purpose regenerates the file::

    PYTHONPATH=src python tests/test_paper_golden.py --regenerate

and shows the old and new rows side by side in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench.report import report_tables
from repro.bench.runner import FAULT_COUNTERS
from repro.common.config import SecurityConfig

GOLDEN = pathlib.Path(__file__).parent / "data" / "paper_golden.json"
SCALE = 0.25


def golden_text(tables) -> str:
    """The golden file's text: one table per key, one JSON row per line."""

    blocks = []
    for key, table in tables.items():
        rows = ",\n".join(
            "        " + json.dumps([row.get(column) for column in table.columns])
            for row in table.rows
        )
        blocks.append(
            f"    {json.dumps(key)}: {{\n"
            f"      \"title\": {json.dumps(table.title)},\n"
            f"      \"columns\": {json.dumps(list(table.columns))},\n"
            f"      \"counters\": {json.dumps(table.counters)},\n"
            f"      \"phase_two_lag_s\": {json.dumps(table.phase_two_lag_s)},\n"
            f"      \"rows\": [\n{rows}\n      ]\n    }}"
        )
    return (
        f'{{\n  "scale": {SCALE!r},\n  "tables": {{\n'
        + ",\n".join(blocks)
        + "\n  }\n}\n"
    )


def _load(text: str) -> dict:
    # NaN cells (an experiment with no samples) load as the string "NaN" so
    # that equal files compare equal.
    return json.loads(text, parse_constant=str)


def test_report_tables_match_the_committed_golden():
    current = _load(golden_text(report_tables(SCALE)))
    committed = _load(GOLDEN.read_text(encoding="utf-8"))
    assert current["scale"] == committed["scale"]
    assert list(current["tables"]) == list(committed["tables"])
    for key, table in committed["tables"].items():
        assert current["tables"][key] == table, f"table {key!r} moved"


def test_fault_counters_are_zero_unless_the_experiment_runs_an_adversary():
    # The comparison above pins the counters; this states what they must be.
    committed = _load(GOLDEN.read_text(encoding="utf-8"))
    for key, table in committed["tables"].items():
        counters = table["counters"]
        if key == "ablation_gossip":
            # One omitting edge per gossip interval (one row each): the
            # reader disputes the omission once and the cloud convicts once.
            rows = len(table["rows"])
            assert counters == {
                "certify_retries": 0,
                "disputes_sent": rows,
                "punishments": rows,
            }, key
        else:
            assert counters == dict.fromkeys(FAULT_COUNTERS, 0), key


def test_phase_two_lag_leaves_headroom_below_the_first_certify_retry():
    # An edge re-sends a certify request dispute_timeout_s / 2 after it
    # (no knob), so an honest run's Phase II lag must stay below that or
    # the retry counters above would stop being zero.  The paper default
    # is the shortest timeout any experiment runs with.
    first_retry_s = SecurityConfig().dispute_timeout_s / 2
    committed = _load(GOLDEN.read_text(encoding="utf-8"))
    for key, table in committed["tables"].items():
        assert first_retry_s - table["phase_two_lag_s"] > 0, key


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the committed golden"
    )
    args = parser.parse_args(argv)
    text = golden_text(report_tables(SCALE))
    if args.regenerate:
        GOLDEN.write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN}")
        return 0
    same = text == GOLDEN.read_text(encoding="utf-8")
    print("golden matches" if same else "golden differs (use --regenerate)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
