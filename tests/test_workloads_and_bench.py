"""Unit tests for workload generation, the closed-loop driver, and the
benchmark harness plumbing (result tables, runner helpers)."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

from repro.common import ConfigurationError, WorkloadConfig
from repro.common.config import SystemConfig
from repro.bench.results import ResultTable
from repro.bench.runner import (
    SYSTEM_KINDS,
    build_system,
    config_for_batch,
    run_workload,
    write_workload,
)
from repro.sim.rng import DeterministicRng
from repro.workloads.driver import ClosedLoopDriver
from repro.workloads.generator import KeySpace, KeyValueWorkload, ReadOp, WriteOp, format_key


class TestKeySpace:
    def test_sample_stays_in_range(self):
        space = KeySpace(size=50)
        rng = DeterministicRng(1)
        for _ in range(200):
            key = space.sample(rng)
            index = int(key.removeprefix("key"))
            assert 0 <= index < 50

    def test_zipfian_is_skewed_towards_small_indices(self):
        space = KeySpace(size=10_000, distribution="zipfian", zipf_theta=0.99)
        rng = DeterministicRng(2)
        draws = [int(space.sample(rng).removeprefix("key")) for _ in range(2000)]
        head = sum(1 for value in draws if value < 1000)
        assert head > len(draws) * 0.25  # far more than the uniform 10 %

    def test_sequential_wraps_around(self):
        space = KeySpace(size=3)
        generator = space.sequential()
        keys = [next(generator) for _ in range(5)]
        assert keys[0] == keys[3]

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            KeySpace(size=0)
        with pytest.raises(ConfigurationError):
            KeySpace(size=5, distribution="normal")


class TestKeyValueWorkload:
    def test_deterministic_given_seed(self):
        config = WorkloadConfig(seed=42, read_fraction=0.3)
        first = [type(op).__name__ for op in KeyValueWorkload(config).operations(50)]
        second = [type(op).__name__ for op in KeyValueWorkload(config).operations(50)]
        assert first == second

    def test_a_seed_is_the_whole_experiment_under_any_hash_seed(self):
        """Forked streams (per-client keys, arrival processes) must not pass
        through the per-process salted ``hash()``: the same seeded
        experiment prints the same bytes whatever ``PYTHONHASHSEED`` is."""

        code = (
            "from repro.bench import figure5_multi_client, print_tables\n"
            "print_tables([figure5_multi_client(read_fraction=0.5,\n"
            "    client_counts=(1,), operations_per_client=60)])\n"
        )
        repo_src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("1", "22"):
            completed = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                timeout=120,
                env={
                    "PYTHONPATH": repo_src,
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                },
            )
            assert completed.returncode == 0, completed.stderr[-2000:]
            outputs.append(completed.stdout)
        assert "WedgeChain" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_clients_get_independent_streams(self):
        config = WorkloadConfig(seed=42)
        a = KeyValueWorkload(config, client_index=0).write_batch(5)
        b = KeyValueWorkload(config, client_index=1).write_batch(5)
        assert a != b

    def test_read_fraction_respected_roughly(self):
        config = WorkloadConfig(seed=1, read_fraction=0.5, operations_per_client=400)
        ops = list(KeyValueWorkload(config).operations())
        reads = sum(1 for op in ops if isinstance(op, ReadOp))
        assert 0.35 * len(ops) < reads < 0.65 * len(ops)

    def test_all_write_workload_has_no_reads(self):
        config = WorkloadConfig(seed=1, read_fraction=0.0)
        ops = list(KeyValueWorkload(config).operations(100))
        assert all(isinstance(op, WriteOp) for op in ops)

    def test_values_have_configured_size_and_are_unique(self):
        config = WorkloadConfig(seed=1, value_size=64)
        workload = KeyValueWorkload(config)
        values = [workload.next_value() for _ in range(10)]
        assert all(len(value) == 64 for value in values)
        assert len(set(values)) == 10

    def test_preload_items_are_sequential(self):
        workload = KeyValueWorkload(WorkloadConfig(seed=1, key_space=100))
        items = workload.preload_items(5)
        assert [key for key, _ in items] == [format_key(i) for i in range(5)]


class TestClosedLoopDriver:
    def _run(self, kind: str, read_fraction: float = 0.0):
        config = config_for_batch(10)
        workload = WorkloadConfig(
            num_clients=2,
            batch_size=10,
            operations_per_client=40,
            read_fraction=read_fraction,
            key_space=200,
            seed=3,
        )
        system = build_system(kind, config=config, num_clients=2)
        driver = ClosedLoopDriver(system, workload)
        result = driver.run(max_time_s=600)
        return result

    @pytest.mark.parametrize("kind", SYSTEM_KINDS)
    def test_all_operations_complete_on_every_system(self, kind):
        result = self._run(kind)
        assert result.all_finished
        assert result.operations_completed == 80
        assert result.throughput_ops_per_s > 0

    def test_mixed_workload_counts_reads_and_writes(self):
        result = self._run("wedgechain", read_fraction=0.5)
        assert result.all_finished
        assert 0 < result.operations_completed <= 80
        assert result.requests_sent >= result.operations_completed / 10


class TestResultTable:
    def test_add_row_and_column_access(self):
        table = ResultTable(title="T", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a=2, b=3.5)
        assert table.column("a") == [1, 2]
        assert table.rows_where(a=2)[0]["b"] == 3.5

    def test_unknown_column_rejected(self):
        table = ResultTable(title="T", columns=["a"])
        with pytest.raises(ConfigurationError):
            table.add_row(z=1)
        with pytest.raises(ConfigurationError):
            table.column("z")

    def test_format_contains_title_and_values(self):
        table = ResultTable(title="Latency", columns=["system", "ms"], notes="demo")
        table.add_row(system="WedgeChain", ms=15.2)
        rendered = table.format()
        assert "Latency" in rendered
        assert "WedgeChain" in rendered
        assert "note: demo" in rendered

    def test_to_csv(self):
        table = ResultTable(title="T", columns=["a", "b"])
        table.add_row(a=1, b=2)
        csv = table.to_csv()
        assert csv.splitlines()[0] == "a,b"
        assert csv.splitlines()[1] == "1,2"


class TestRunner:
    def test_build_system_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            build_system("mainframe")

    def test_write_workload_shape(self):
        workload = write_workload(batch_size=50, num_batches=4, num_clients=2)
        assert workload.operations_per_client == 200
        assert workload.read_fraction == 0.0

    def test_config_for_batch_aligns_block_size(self):
        config = config_for_batch(500)
        assert config.logging.block_size == 500
        assert isinstance(config, SystemConfig)

    def test_run_workload_produces_metrics(self):
        workload = write_workload(batch_size=20, num_batches=3)
        metrics = run_workload("wedgechain", workload, config=config_for_batch(20), drain=True)
        assert metrics.operations_completed == 60
        assert metrics.mean_commit_latency_ms > 0
        assert metrics.mean_phase_two_latency_ms > metrics.mean_commit_latency_ms
        assert metrics.failed_operations == 0
        assert metrics.wan_bytes > 0

    def test_wedgechain_commits_faster_than_baselines(self):
        workload = write_workload(batch_size=50, num_batches=3)
        config = config_for_batch(50)
        wedge = run_workload("wedgechain", workload, config=config)
        cloud = run_workload("cloud-only", workload, config=config)
        edge_baseline = run_workload("edge-baseline", workload, config=config)
        assert wedge.mean_commit_latency_ms < cloud.mean_commit_latency_ms
        assert cloud.mean_commit_latency_ms < edge_baseline.mean_commit_latency_ms
