"""Unit tests for the CI perf-regression gate (`check_perf_regression`)."""

from __future__ import annotations

import json

import pytest

from check_perf_regression import compare, load_non_gating, load_results, main


def result(ops_per_s: float) -> dict:
    return {"ops_per_s": ops_per_s}


def metrics(**values: float) -> dict:
    return {name: result(ops) for name, ops in values.items()}


class TestCompare:
    def test_no_regression_within_threshold(self):
        baseline = metrics(a=100.0, b=1000.0, c=50.0)
        current = metrics(a=90.0, b=1100.0, c=48.0)
        lines, regressions = compare(baseline, current, threshold=0.25)
        assert regressions == []
        assert len(lines) == 3

    def test_targeted_regression_flagged(self):
        baseline = metrics(a=100.0, b=1000.0, c=50.0, d=20.0, e=70.0)
        current = metrics(a=100.0, b=1000.0, c=50.0, d=20.0, e=30.0)
        _, regressions = compare(baseline, current, threshold=0.25)
        assert len(regressions) == 1
        assert regressions[0].startswith("e:")

    def test_uniformly_slower_machine_passes(self):
        """The median machine-speed calibration: a runner where *every*
        metric is 2x slower is not a regression."""

        baseline = metrics(a=100.0, b=1000.0, c=50.0, d=20.0)
        current = metrics(a=50.0, b=500.0, c=25.0, d=10.0)
        _, regressions = compare(baseline, current, threshold=0.25)
        assert regressions == []

    def test_raw_mode_flags_uniform_slowdown(self):
        baseline = metrics(a=100.0, b=1000.0)
        current = metrics(a=50.0, b=500.0)
        _, regressions = compare(baseline, current, threshold=0.25, normalize=False)
        assert len(regressions) == 2

    def test_missing_metric_counts_as_regression(self):
        baseline = metrics(a=100.0)
        _, regressions = compare(baseline, {}, threshold=0.25)
        assert regressions == ["a: missing from the current run"]

    def test_new_metrics_never_gate(self):
        baseline = metrics(a=100.0, b=100.0)
        current = metrics(a=100.0, b=100.0, shiny_new=5.0)
        lines, regressions = compare(baseline, current, threshold=0.25)
        assert regressions == []
        assert any("shiny_new" in line and "new" in line for line in lines)

    def test_exact_threshold_passes(self):
        baseline = metrics(a=100.0, b=100.0, c=100.0)
        current = metrics(a=75.0, b=100.0, c=100.0)
        _, regressions = compare(baseline, current, threshold=0.25)
        assert regressions == []

    def test_non_gating_row_never_fails(self):
        """A row on the baseline's non_gating list is reported but cannot
        regress the build — even when it cratered or went missing."""

        baseline = metrics(a=100.0, b=100.0, fresh=50.0)
        cratered = metrics(a=100.0, b=100.0, fresh=5.0)
        lines, regressions = compare(
            baseline, cratered, threshold=0.25, non_gating=frozenset({"fresh"})
        )
        assert regressions == []
        assert any("fresh" in line and "non-gating" in line for line in lines)
        lines, regressions = compare(
            baseline,
            metrics(a=100.0, b=100.0),
            threshold=0.25,
            non_gating=frozenset({"fresh"}),
        )
        assert regressions == []
        # ... but its absence is still visible in the report.
        assert any(
            "fresh" in line and "(missing)" in line and "non-gating" in line
            for line in lines
        )

    def test_non_gating_row_excluded_from_calibration(self):
        """A wild first measurement of a new row must not shift the median
        the gated rows are judged against."""

        baseline = metrics(a=100.0, b=100.0, c=100.0, fresh=10.0)
        current = metrics(a=100.0, b=100.0, c=70.0, fresh=1000.0)
        _, regressions = compare(
            baseline, current, threshold=0.25, non_gating=frozenset({"fresh"})
        )
        assert len(regressions) == 1
        assert regressions[0].startswith("c:")

    def test_rows_off_the_list_gate_normally(self):
        """The flip: a row that left non_gating regresses the build again —
        how the cert_pipeline_* rows are enforced once they graduate."""

        baseline = metrics(a=100.0, b=100.0, cert_pipeline_d8=100.0)
        current = metrics(a=100.0, b=100.0, cert_pipeline_d8=40.0)
        _, regressions = compare(
            baseline, current, threshold=0.25, non_gating=frozenset()
        )
        assert len(regressions) == 1
        assert regressions[0].startswith("cert_pipeline_d8:")

    def test_committed_baseline_gates_every_tracked_row(self):
        """Both committed baselines hold exactly the suite's rows, so a row
        added or deleted in one place and not the others fails here without
        running the suite.  Everything gates except the wall-clock open-loop
        put p99 (parked by ROADMAP until a capacity-relative row replaces
        it) and ``frame_transfer``, new with the transport's frame
        receiver, which enters through ``non_gating``; ``get_receive_cold``
        (a client's first get after a merge), ``get_serve`` and
        ``get_receive`` gate, as do the other receive rows and the rows
        that time real nodes."""

        import pathlib

        from repro.bench.perf import BENCHMARKS

        root = pathlib.Path(__file__).resolve().parent.parent
        quick = str(root / "BENCH_hotpath.json")
        full = str(root / "benchmarks" / "BENCH_hotpath_full.json")
        rows = {bench.__name__[len("bench_"):] for bench in BENCHMARKS}
        assert set(load_results(quick)) == set(load_results(full)) == rows
        assert load_non_gating(quick) == {"live_put_p99", "frame_transfer"}
        assert load_non_gating(full) == {"frame_transfer"}


class TestCli:
    def write(self, path, results):
        payload = {"schema": 1, "results": results}
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_codes(self, tmp_path, capsys):
        baseline = self.write(
            tmp_path / "baseline.json", metrics(a=100.0, b=100.0, c=100.0)
        )
        good = self.write(tmp_path / "good.json", metrics(a=95.0, b=90.0, c=100.0))
        bad = self.write(tmp_path / "bad.json", metrics(a=10.0, b=100.0, c=100.0))
        assert main(["--baseline", baseline, "--current", good]) == 0
        assert main(["--baseline", baseline, "--current", bad]) == 1
        output = capsys.readouterr().out
        assert "REGRESSION" in output

    def test_several_current_files_gate_on_the_per_row_median(self, tmp_path, capsys):
        """One noisy run of three cannot fail the build; a row that is low
        in every run still does."""

        baseline = self.write(
            tmp_path / "baseline.json", metrics(a=100.0, b=100.0, c=100.0)
        )
        steady = metrics(a=100.0, b=100.0, c=100.0)
        low = metrics(a=60.0, b=100.0, c=100.0)
        runs = [
            self.write(tmp_path / f"run{i}.json", results)
            for i, results in enumerate([steady, low, steady])
        ]
        assert main(["--baseline", baseline, "--current", runs[1]]) == 1
        assert main(["--baseline", baseline, "--current", *runs]) == 0
        capsys.readouterr()
        runs = [
            self.write(tmp_path / f"low{i}.json", low) for i in range(3)
        ]
        assert main(["--baseline", baseline, "--current", *runs]) == 1
        assert "a: 60 ops/s" in capsys.readouterr().out

    def test_row_missing_from_any_current_file_is_missing(self, tmp_path, capsys):
        baseline = self.write(tmp_path / "baseline.json", metrics(a=100.0, b=100.0))
        full = self.write(tmp_path / "full.json", metrics(a=100.0, b=100.0))
        partial = self.write(tmp_path / "partial.json", metrics(a=100.0))
        assert main(["--baseline", baseline, "--current", full, partial, full]) == 1
        assert "b: missing from the current run" in capsys.readouterr().out

    def test_malformed_summary_rejected(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        with pytest.raises(SystemExit):
            load_results(str(empty))
