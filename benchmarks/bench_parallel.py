"""jobs=1 vs jobs=N wall-clock comparison on an NPN4 subset.

Runs the same suite twice through :func:`repro.bench.run_suite` — once
sequentially, once through the parallel batch scheduler — with
process isolation in both runs so the only variable is the
scheduling.  Asserts that the aggregate counters (solved/timeout
counts, gate counts, solution counts) are identical across the two
runs, and writes a JSON report with both wall clocks, the speedup and
the number of worker processes each run forked::

    python benchmarks/bench_parallel.py --jobs 2 --count 10 \
        --json BENCH_parallel_npn4.json

Workers are resident: each algorithm's executor forks at most ``jobs``
of them while no instance crashes or times out.  A run whose every
instance was solved but that forked more than ``jobs`` workers per
algorithm exits nonzero — a regression that silently retires every
worker shows here.  CI runs this with ``--jobs 2`` and uploads the JSON
as an artifact; ``--min-speedup`` turns an insufficient speedup into a
nonzero exit (left off by default — single-core containers cannot
speed up).
"""

import argparse
import json
import multiprocessing
import sys
import time

from repro.bench.runner import default_algorithms, run_suite
from repro.bench.suites import get_suite


def _fingerprint(reports):
    """Order-stable aggregate counters for the determinism check."""
    return [
        {
            "algorithm": r.algorithm,
            "solved": r.num_ok,
            "timeouts": r.num_timeouts,
            "gates": [o.num_gates for o in r.outcomes],
            "solutions": [o.num_solutions for o in r.outcomes],
        }
        for r in reports
    ]


def _timed_run(functions, algorithms, timeout, jobs):
    """(wall seconds, reports, worker processes forked) of one run."""
    process_cls = multiprocessing.get_context("fork").Process
    original = process_cls.start
    forks = 0

    def start(process):
        nonlocal forks
        forks += 1
        original(process)

    process_cls.start = start
    try:
        started = time.perf_counter()
        reports = run_suite(
            "npn4",
            functions,
            algorithms,
            timeout,
            jobs=jobs,
            isolate=True,
        )
        wall = time.perf_counter() - started
    finally:
        process_cls.start = original
    return wall, reports, forks


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the parallel batch scheduler."
    )
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument(
        "--algorithms", nargs="+", default=["FEN", "STP"]
    )
    parser.add_argument(
        "--json", type=str, default="BENCH_parallel_npn4.json"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless jobs=N is at least this much faster",
    )
    args = parser.parse_args(argv)

    functions = get_suite("npn4", args.count)
    wanted = {name.upper() for name in args.algorithms}
    algorithms = [
        a for a in default_algorithms(max_solutions=16) if a.name in wanted
    ]
    if not algorithms:
        parser.error(f"no known algorithms among {sorted(wanted)}")

    print(
        f"npn4[{args.count}] x {[a.name for a in algorithms]}, "
        f"jobs=1 then jobs={args.jobs}",
        file=sys.stderr,
    )
    sequential_wall, sequential, sequential_forks = _timed_run(
        functions, algorithms, args.timeout, jobs=1
    )
    parallel_wall, parallel, parallel_forks = _timed_run(
        functions, algorithms, args.timeout, jobs=args.jobs
    )

    identical = _fingerprint(sequential) == _fingerprint(parallel)
    speedup = sequential_wall / parallel_wall if parallel_wall else 0.0
    report = {
        "benchmark": "parallel_npn4",
        "suite": "npn4",
        "count": args.count,
        "algorithms": [a.name for a in algorithms],
        "timeout": args.timeout,
        "jobs": args.jobs,
        "wall_seconds": {
            "jobs_1": round(sequential_wall, 4),
            f"jobs_{args.jobs}": round(parallel_wall, 4),
        },
        "speedup": round(speedup, 4),
        "worker_forks": {
            "jobs_1": sequential_forks,
            f"jobs_{args.jobs}": parallel_forks,
        },
        "identical_counters": identical,
        "counters": _fingerprint(parallel),
    }
    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2)
    print(
        f"jobs=1: {sequential_wall:.2f}s  jobs={args.jobs}: "
        f"{parallel_wall:.2f}s  speedup: {speedup:.2f}x  "
        f"counters identical: {identical}  worker forks: "
        f"{sequential_forks} / {parallel_forks}",
        file=sys.stderr,
    )
    if not identical:
        print("error: aggregate counters diverged", file=sys.stderr)
        return 1
    # Each algorithm's executor keeps its own pool of up to ``jobs``
    # workers; only a crash or a timeout retires one.
    status = 0
    for jobs, forks, reports in (
        (1, sequential_forks, sequential),
        (args.jobs, parallel_forks, parallel),
    ):
        solved_all = all(r.num_ok == len(r.outcomes) for r in reports)
        if solved_all and forks > jobs * len(algorithms):
            print(
                f"error: jobs={jobs} solved every instance but forked "
                f"{forks} workers for {len(algorithms)} algorithm(s); "
                "resident workers fork at most jobs per algorithm",
                file=sys.stderr,
            )
            status = 1
    if status:
        return status
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"error: speedup {speedup:.2f}x below "
            f"--min-speedup {args.min_speedup}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
