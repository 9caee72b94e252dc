"""Table I regenerator — the paper's whole evaluation as a CLI.

Prints the same columns as the paper's Table I for any subset of the
suites: per baseline (BMS, FEN, ABC) the mean solve time, timeout and
solved counts; for STP additionally the total time, the mean time per
solution and the average number of solutions.

Pure-Python engines are 1–3 orders of magnitude slower than the
paper's C++ (see EXPERIMENTS.md), so the default run uses scaled-down
instance counts and timeouts; ``--full`` restores the paper's sizes.

Examples::

    python -m repro.bench.table1 --suite npn4 --count 20 --timeout 60
    python -m repro.bench.table1 --suite fdsd6 fdsd8 --count 25
    python -m repro.bench.table1 --summary results.json
    python -m repro.bench.table1 --suite npn4 --jobs 4 --store chains.db
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .runner import SuiteReport, default_algorithms, run_suite
from .suites import SUITE_NAMES, SUITE_SIZES, get_suite

__all__ = ["main", "format_row", "print_table", "summarize"]

#: Scaled-down defaults (per suite) for laptop-speed pure-Python runs.
DEFAULT_COUNTS: dict[str, int] = {
    "npn4": 30,
    "fdsd6": 50,
    "fdsd8": 20,
    "pdsd6": 20,
    "pdsd8": 8,
}
DEFAULT_TIMEOUT = 60.0


def format_row(reports: Sequence[SuiteReport]) -> str:
    """One Table-I line: suite | per-algorithm columns | STP extras."""
    suite = reports[0].suite if reports else "?"
    cells = [f"{suite:7s}"]
    stp = None
    for report in reports:
        if report.algorithm == "STP":
            stp = report
            continue
        cells.append(
            f"{report.algorithm}: mean={report.mean_time:8.3f}s "
            f"#t/o={report.num_timeouts:3d} #ok={report.num_ok:4d}"
        )
    if stp is not None:
        cells.append(
            f"STP: total={stp.total_time:9.3f}s "
            f"mean={stp.mean_time:8.3f}s "
            f"mean/sol={stp.mean_time_per_solution:8.4f}s "
            f"#t/o={stp.num_timeouts:3d} #ok={stp.num_ok:4d} "
            f"number={stp.mean_solutions:6.1f}"
        )
    return " | ".join(cells)


def print_table(all_reports: dict[str, list[SuiteReport]]) -> None:
    """Print every collected suite row."""
    print("=" * 100)
    print("Table I — exact synthesis comparison (this reproduction)")
    print("=" * 100)
    for reports in all_reports.values():
        print(format_row(reports))
    print("=" * 100)


def summarize(all_reports: dict[str, list[SuiteReport]]) -> dict:
    """Headline metrics in the style of the paper's abstract: best
    speedup of STP over each baseline and the timeout reduction."""
    summary: dict = {"suites": {}, "headline": {}}
    best_speedup: dict[str, float] = {}
    timeout_reduction: dict[str, float] = {}
    for suite, reports in all_reports.items():
        by_name = {r.algorithm: r for r in reports}
        stp = by_name.get("STP")
        row: dict = {}
        for name, report in by_name.items():
            row[name] = {
                "mean_s": report.mean_time,
                "timeouts": report.num_timeouts,
                "ok": report.num_ok,
            }
            if name == "STP":
                row[name]["total_s"] = report.total_time
                row[name]["mean_per_solution_s"] = (
                    report.mean_time_per_solution
                )
                row[name]["mean_solutions"] = report.mean_solutions
        summary["suites"][suite] = row
        if stp is None or stp.mean_time != stp.mean_time:
            continue
        for name, report in by_name.items():
            if name == "STP":
                continue
            if stp.mean_time > 0 and report.mean_time == report.mean_time:
                speedup = report.mean_time / stp.mean_time
                best_speedup[name] = max(
                    best_speedup.get(name, 0.0), speedup
                )
            if report.num_timeouts:
                reduction = (
                    (report.num_timeouts - stp.num_timeouts)
                    / report.num_timeouts
                )
                timeout_reduction[name] = max(
                    timeout_reduction.get(name, 0.0), reduction
                )
    summary["headline"]["best_speedup_vs"] = best_speedup
    summary["headline"]["best_timeout_reduction_vs"] = timeout_reduction
    return summary


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (also exposed as the ``repro-table1`` script)."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's Table I."
    )
    parser.add_argument(
        "--suite",
        nargs="+",
        default=list(SUITE_NAMES),
        choices=SUITE_NAMES,
        help="suites to run (default: all five)",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="instances per suite (default: scaled-down per-suite counts)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_TIMEOUT,
        help="per-instance timeout in seconds (paper: 180)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's instance counts and 180 s timeout",
    )
    parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["BMS", "FEN", "ABC", "STP"],
        help="subset of algorithms to run",
    )
    parser.add_argument(
        "--max-solutions",
        type=int,
        default=256,
        help="cap on STP's all-solutions set",
    )
    parser.add_argument(
        "--seed", type=int, default=2023, help="suite generator seed"
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="write the summary JSON to this path",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="per-instance progress"
    )
    parser.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="JSONL checkpoint path; completed instances are streamed "
        "here and replayed on restart (resume support)",
    )
    parser.add_argument(
        "--isolate",
        action="store_true",
        help="run each instance in a killable worker process "
        "(hard timeouts)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run up to N instances concurrently through the batch "
        "scheduler (implies per-instance process isolation)",
    )
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        help="persistent chain-store path (SQLite); solved classes "
        "are served from the store and written back on miss",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries per engine after a worker crash",
    )
    parser.add_argument(
        "--memory-limit-mb",
        type=int,
        default=None,
        help="per-worker RLIMIT_AS cap (requires --isolate or "
        "--jobs > 1)",
    )
    args = parser.parse_args(argv)
    if args.memory_limit_mb is not None and not (
        args.isolate or args.jobs > 1
    ):
        parser.error("--memory-limit-mb requires --isolate or --jobs > 1")

    wanted = {name.upper() for name in args.algorithms}
    algorithms = [
        a
        for a in default_algorithms(max_solutions=args.max_solutions)
        if a.name in wanted
    ]
    if not algorithms:
        parser.error(f"no known algorithms among {sorted(wanted)}")

    timeout = 180.0 if args.full else args.timeout
    all_reports: dict[str, list[SuiteReport]] = {}
    for suite_name in args.suite:
        if args.full:
            count = SUITE_SIZES[suite_name]
        elif args.count is not None:
            count = args.count
        else:
            count = DEFAULT_COUNTS[suite_name]
        functions = get_suite(suite_name, count, seed=args.seed)
        print(
            f"running {suite_name}: {len(functions)} instances, "
            f"timeout {timeout:.0f}s, algorithms "
            f"{[a.name for a in algorithms]}",
            file=sys.stderr,
        )
        try:
            reports = run_suite(
                suite_name,
                functions,
                algorithms,
                timeout,
                verbose=args.verbose,
                checkpoint_path=args.checkpoint,
                isolate=args.isolate,
                max_retries=args.retries,
                memory_limit_mb=args.memory_limit_mb,
                jobs=args.jobs,
                store_path=args.store,
            )
        except KeyboardInterrupt:
            print(
                "interrupted — completed instances are checkpointed"
                + (f" in {args.checkpoint}" if args.checkpoint else ""),
                file=sys.stderr,
            )
            return 130
        all_reports[suite_name] = reports
        if args.store:
            served = sum(r.num_store_hits for r in reports)
            print(
                f"chain store served {served} of "
                f"{sum(len(r.outcomes) for r in reports)} instances",
                file=sys.stderr,
            )

    print_table(all_reports)
    summary = summarize(all_reports)
    print(json.dumps(summary["headline"], indent=2))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
