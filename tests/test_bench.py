"""Benchmark suite / runner / Table-I harness tests."""

import json

import pytest

from repro.bench.runner import (
    Algorithm,
    InstanceOutcome,
    SuiteReport,
    default_algorithms,
    run_suite,
)
from repro.bench.suites import (
    NPN4_CLASSES_HEX,
    SUITE_SIZES,
    get_suite,
    npn4_suite,
)
from repro.bench.table1 import format_row, main, print_table, summarize
from repro.truthtable import is_fully_dsd, is_partially_dsd


class TestSuites:
    def test_npn4_size(self):
        assert len(NPN4_CLASSES_HEX) == 222
        assert len(npn4_suite()) == 222
        assert len(npn4_suite(10)) == 10

    def test_suite_sizes_match_paper(self):
        assert SUITE_SIZES == {
            "npn4": 222,
            "fdsd6": 1000,
            "fdsd8": 100,
            "pdsd6": 1000,
            "pdsd8": 100,
        }

    def test_get_suite_counts_and_arity(self):
        for name, n in [("fdsd6", 6), ("pdsd6", 6), ("fdsd8", 8)]:
            suite = get_suite(name, 3)
            assert len(suite) == 3
            assert all(t.num_vars == n for t in suite)

    def test_suite_structure(self):
        assert all(is_fully_dsd(t) for t in get_suite("fdsd6", 3))
        assert all(is_partially_dsd(t) for t in get_suite("pdsd6", 2))

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            get_suite("npn9")

    def test_deterministic(self):
        assert get_suite("fdsd6", 4, seed=1) == get_suite(
            "fdsd6", 4, seed=1
        )


class TestRunner:
    def test_report_aggregation(self):
        report = SuiteReport("X", "s")
        report.outcomes = [
            InstanceOutcome("a", True, 1.0, 3, 4),
            InstanceOutcome("b", True, 3.0, 2, 2),
            InstanceOutcome("c", False, 60.0),
        ]
        assert report.num_ok == 2
        assert report.num_timeouts == 1
        assert report.mean_time == pytest.approx(2.0)
        assert report.total_time == pytest.approx(4.0)
        assert report.mean_solutions == pytest.approx(3.0)
        assert report.mean_time_per_solution == pytest.approx(2 / 3)

    def test_empty_report(self):
        report = SuiteReport("X", "s")
        assert report.num_ok == 0
        assert report.mean_solutions == 0.0

    def test_run_suite_small(self):
        functions = get_suite("fdsd6", 2)
        algorithms = [
            a for a in default_algorithms(max_solutions=8)
            if a.name == "STP"
        ]
        reports = run_suite("fdsd6", functions, algorithms, timeout=30.0)
        assert len(reports) == 1
        assert reports[0].num_ok == 2
        assert reports[0].mean_solutions >= 1

    def test_default_algorithms(self):
        names = [a.name for a in default_algorithms()]
        assert names == ["BMS", "FEN", "ABC", "STP"]

    def test_timeout_is_recorded(self):
        functions = get_suite("pdsd6", 1)
        algorithms = [
            Algorithm("STP", default_algorithms()[3].run, True)
        ]
        # The instance takes ~13 ms warm; the budget stays ~50x below it.
        reports = run_suite(
            "pdsd6", functions, algorithms, timeout=2e-4
        )
        assert reports[0].num_timeouts == 1


class TestTable1Harness:
    def _fake_reports(self):
        reports = []
        for name in ("BMS", "FEN", "ABC", "STP"):
            report = SuiteReport(name, "npn4")
            report.outcomes = [
                InstanceOutcome("x", True, 0.5, 3, 4),
                InstanceOutcome("y", name == "STP", 0.7, 3, 2),
            ]
            reports.append(report)
        return {"npn4": reports}

    def test_format_row_contains_columns(self):
        reports = self._fake_reports()["npn4"]
        row = format_row(reports)
        assert "npn4" in row
        assert "BMS" in row and "STP" in row
        assert "number=" in row and "#t/o=" in row

    def test_summarize_headline(self):
        summary = summarize(self._fake_reports())
        assert "npn4" in summary["suites"]
        headline = summary["headline"]
        assert headline["best_timeout_reduction_vs"]["BMS"] == 1.0
        assert "best_speedup_vs" in headline

    def test_print_table_smoke(self, capsys):
        print_table(self._fake_reports())
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_cli_smoke(self, tmp_path, capsys):
        """Tiny end-to-end CLI run: one suite, one algorithm."""
        json_path = tmp_path / "summary.json"
        code = main(
            [
                "--suite", "fdsd6",
                "--count", "2",
                "--timeout", "30",
                "--algorithms", "STP",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data["suites"]["fdsd6"]["STP"]["ok"] == 2
        out = capsys.readouterr().out
        assert "fdsd6" in out

    def test_memory_cap_without_a_worker_is_a_usage_error(self, capsys):
        """A jobs=1 run without --isolate is in-process, where no
        RLIMIT_AS cap applies: refuse it instead of dropping it."""
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "--suite", "fdsd6",
                    "--count", "1",
                    "--algorithms", "STP",
                    "--memory-limit-mb", "256",
                ]
            )
        assert exit_info.value.code == 2
        assert "--isolate" in capsys.readouterr().err
