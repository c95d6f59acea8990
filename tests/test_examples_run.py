"""Smoke tests: every example script runs to completion and prints what it
promises.  The examples are part of the public deliverable, so regressions in
them should fail the test suite, not surprise a reader."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

CASES = [
    ("quickstart.py", ["Phase I", "Phase II", "get('sensor-003')"]),
    ("smart_traffic.py", ["Phase I", "bandwidth", "punishments recorded: 0"]),
    ("iot_fleet_logging.py", ["LSMerkle level page counts", "merges completed"]),
    ("malicious_edge_audit.py", ["punishments recorded", "Omission attack"]),
    ("baseline_comparison.py", ["WedgeChain", "Edge-baseline", "wan_megabytes"]),
    (
        "cross_shard_txn.py",
        [
            "committed (all participants prepared)",
            "verified reads after commit: 4/4",
            "orphaned writes visible: 0",
        ],
    ),
    (
        "observability_report.py",
        [
            "causal chain for the first Phase II certificate",
            "certify.absorb",
            "fault.delay",
            "=== WedgeChain fleet health report ===",
        ],
    ),
    (
        "replicated_fleet.py",
        [
            "replica shipments installed",
            "replica promotions: 2",
            "countersigned map v",
            "verified read from promoted replica",
            "punishments recorded: 0",
        ],
    ),
    (
        "durable_edge.py",
        [
            "crash -> recover -> verified get",
            "root verified: True",
            "get('sensor-003')",
        ],
    ),
    (
        "sharded_fleet.py",
        [
            "handoffs granted/completed: 1/1",
            "phase_two from",
            "fleet stats: {'shard_redirects'",
        ],
    ),
    (
        "live_fleet.py",
        [
            "single put committed through phase_two",
            "verified read completed through phase_two",
            "p99=",
            "p999=",
            "clean shutdown",
        ],
    ),
]


@pytest.mark.parametrize("script,expected_fragments", CASES, ids=[c[0] for c in CASES])
def test_example_runs_and_reports(script, expected_fragments):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    for fragment in expected_fragments:
        assert fragment in completed.stdout, (
            f"{script} output missing {fragment!r}\n--- stdout ---\n"
            f"{completed.stdout[-2000:]}"
        )


def test_every_example_has_a_case():
    assert sorted(case[0] for case in CASES) == sorted(
        path.name for path in EXAMPLES_DIR.glob("*.py")
    )
