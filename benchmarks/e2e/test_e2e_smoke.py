"""Smoke test of the end-to-end benchmark: the contract, not the numbers.

Every workload runs once at a tiny scale through the same command line the
driver uses, and the output is held against ``BENCHMARK.json``: every
declared metric present with its unit, nothing undeclared, checks passing.
Timings are never asserted.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def smoke(workload: str, *extra: str) -> subprocess.CompletedProcess:
    # live_get preloads enough blocks (12) for merges to happen before its
    # window, so "no merge inside the window" is a real assertion.
    scale = "0.25" if workload == "live_get" else "0.02"
    return run(
        "--workload", workload, "--seed", "7", "--seconds", "0.3", "--scale", scale, *extra
    )


def assert_metrics(result: dict, declared: list[dict]) -> None:
    units = {entry["name"]: entry["unit"] for entry in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_is_what_the_runner_declares():
    assert json.loads(run("--spec").stdout) == DECLARED
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert len(WORKLOADS) == 4
    names = WORKLOADS + [
        entry["name"] for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    bounds = {entry["name"]: entry["bound"] for entry in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_end_to_end_metric(workload):
    completed = smoke(workload)
    result = result_of(completed)
    assert_metrics(result, DECLARED["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    if workload == "live_get":
        merges = re.search(r"(\d+) merges in the window, (\d+) in its set-up", completed.stdout)
        assert merges and int(merges.group(1)) == 0 and int(merges.group(2)) >= 1


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    spans = tmp_path / "spans.json"
    completed = smoke("live_put", "--trace", "1", "--trace-out", str(spans))
    assert_metrics(result_of(completed), DECLARED["per_layer"])
    assert "reconcile put" in completed.stdout
    written = json.loads(spans.read_text())
    assert written["spans"] and written["columns"][0] == "name"


def test_same_seed_sim_runs_repeat_their_modelled_outputs():
    first, second = (result_of(smoke("sim_mixed"))["metrics"] for _ in range(2))
    for name in ("put_p1_p50_ms", "get_p50_ms", "wire_bytes_per_op", "wan_bytes_per_put"):
        assert first[name]["value"] == second[name]["value"], name
