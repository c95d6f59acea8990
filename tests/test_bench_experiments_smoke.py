"""Smoke tests for every experiment function at a tiny scale.

The full-size runs live under ``benchmarks/``; these tests only check that
each experiment function produces a well-formed table with the expected
series so that harness regressions are caught by the ordinary test suite.
"""

from __future__ import annotations

from repro.bench import experiments
from repro.bench.results import ResultTable
from repro.common import Region


def _assert_table(table: ResultTable, expected_rows: int | None = None) -> None:
    assert isinstance(table, ResultTable)
    assert table.rows, f"table {table.title!r} has no rows"
    if expected_rows is not None:
        assert len(table.rows) == expected_rows
    rendered = table.format()
    assert table.title in rendered


class TestExperimentSmoke:
    def test_table1(self):
        table = experiments.table1_rtt()
        _assert_table(table, expected_rows=1)
        assert table.rows[0]["V"] == 61.0

    def test_figure4(self):
        latency, throughput = experiments.figure4_put_batch_size(
            batch_sizes=(50, 100), num_batches=2
        )
        _assert_table(latency, expected_rows=2)
        _assert_table(throughput, expected_rows=2)
        for row in latency.rows:
            assert row["WedgeChain"] < row["Cloud-only"]

    def test_figure5(self):
        table = experiments.figure5_multi_client(
            0.5, client_counts=(1, 2), operations_per_client=40, batch_size=20
        )
        _assert_table(table, expected_rows=2)
        assert table.rows[1]["WedgeChain"] >= table.rows[0]["WedgeChain"]

    def test_figure5d(self):
        table = experiments.figure5d_best_case_read(
            num_preload_batches=2, batch_size=20, num_reads=5
        )
        _assert_table(table, expected_rows=3)
        systems = {row["system"] for row in table.rows}
        assert systems == {"WedgeChain", "Cloud-only", "Edge-baseline"}

    def test_figure6(self):
        summary, series = experiments.figure6_commit_phases(
            batch_sizes=(50,), num_batches=10, time_bin_s=0.5
        )
        _assert_table(summary, expected_rows=1)
        _assert_table(series)
        assert summary.rows[0]["phase2_done_s"] >= summary.rows[0]["phase1_done_s"]

    def test_figure7a(self):
        table = experiments.figure7_vary_cloud_location(
            cloud_regions=(Region.OREGON, Region.MUMBAI), num_batches=2
        )
        _assert_table(table, expected_rows=2)
        assert table.rows[1]["Cloud-only"] > table.rows[0]["Cloud-only"]

    def test_figure7b(self):
        table = experiments.figure7_vary_edge_location(
            edge_regions=(Region.CALIFORNIA, Region.MUMBAI), num_batches=2
        )
        _assert_table(table, expected_rows=2)
        assert table.rows[1]["WedgeChain"] > table.rows[0]["WedgeChain"]

    def test_section6e(self):
        table = experiments.section6e_dataset_size(
            key_spaces=(1_000, 10_000), num_batches=2
        )
        _assert_table(table, expected_rows=2)

    def test_ablation_data_free(self):
        table = experiments.ablation_data_free_certification(
            batch_sizes=(50,), num_batches=3
        )
        _assert_table(table, expected_rows=2)
        data_free = table.rows_where(variant="data-free")[0]
        full_data = table.rows_where(variant="full-data")[0]
        assert full_data["wan_megabytes"] > data_free["wan_megabytes"]

    def test_ablation_gossip(self):
        table = experiments.ablation_gossip_interval(intervals_s=(0.5,), batch_size=5)
        _assert_table(table, expected_rows=1)
        assert table.rows[0]["edge_punished"] is True


class TestReportGeneration:
    def test_report_writes_markdown(self, tmp_path):
        from repro.bench.report import main

        target = tmp_path / "experiments.md"
        assert main([str(target), "--scale", "0.3"]) == 0
        text = target.read_text()
        assert "# EXPERIMENTS" in text
        assert "Figure 4" in text
        assert "Figure 7" in text
        assert "Ablation" in text
