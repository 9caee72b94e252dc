"""Racing vs single-engine baseline on an NPN4 subset.

Runs the same suite twice through :func:`repro.bench.run_suite` — once
with the single-engine fault-tolerant executor (the baseline), once
with ``race=True`` (concurrent engine lanes, first verified exact
answer wins) — and writes a JSON report with the solve rates, the
p50/p99 per-instance wall clocks, and the loser-cancellation latency
distribution::

    python benchmarks/bench_racing.py --count 10 \
        --json BENCH_racing_npn4.json

The run **gates** on solve rate: racing must solve at least as many
instances as the baseline (it races a superset of the baseline's
engines, so losing instances would mean the cancellation or
degradation machinery ate a result).  CI runs this on a small subset
and uploads the JSON as an artifact.
"""

import argparse
import json
import sys
import time

from repro.bench.runner import Algorithm, run_suite
from repro.bench.suites import get_suite
from repro.engine import run_engine
from repro.runtime.executor import FaultTolerantExecutor
from repro.runtime.racing import DEFAULT_RACE_ENGINES, RACE_WIDTH


def _percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(
        len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1)))
    )
    return ordered[index]


def _suite_metrics(report):
    runtimes = [o.runtime for o in report.outcomes]
    return {
        "solved": report.num_ok,
        "timeouts": report.num_timeouts,
        "degraded": report.num_degraded,
        "instances": len(report.outcomes),
        "p50_seconds": round(_percentile(runtimes, 0.50), 4),
        "p99_seconds": round(_percentile(runtimes, 0.99), 4),
    }


def _baseline_algorithm(engine):
    from functools import partial

    return Algorithm(
        engine.upper(),
        partial(run_engine, engine),
        engines=(engine,),
    )


def _cancellation_latencies(functions, timeout):
    """Direct racing runs that surface per-loser cancellation times."""
    executor = FaultTolerantExecutor(DEFAULT_RACE_ENGINES, width=RACE_WIDTH)
    latencies = []
    for function in functions:
        executor.run(function, timeout)
        latencies.extend(
            c.seconds for c in executor.last_cancellations
        )
    return latencies


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark engine racing against a single engine."
    )
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument(
        "--engine",
        default="fen",
        help="single-engine baseline lane (default: fen)",
    )
    parser.add_argument(
        "--json", type=str, default="BENCH_racing_npn4.json"
    )
    args = parser.parse_args(argv)

    functions = get_suite("npn4", args.count)
    baseline_algo = _baseline_algorithm(args.engine)
    race_algo = Algorithm(
        "RACE",
        baseline_algo.run,
        engines=tuple(
            dict.fromkeys((args.engine,) + DEFAULT_RACE_ENGINES)
        ),
    )

    print(
        f"npn4[{args.count}]: baseline {args.engine} vs race "
        f"{race_algo.engines}",
        file=sys.stderr,
    )
    started = time.perf_counter()
    baseline = run_suite(
        "npn4", functions, [baseline_algo], args.timeout, isolate=True
    )[0]
    baseline_wall = time.perf_counter() - started

    started = time.perf_counter()
    raced = run_suite(
        "npn4", functions, [race_algo], args.timeout, race=True
    )[0]
    race_wall = time.perf_counter() - started

    latencies = _cancellation_latencies(functions[:5], args.timeout)
    report = {
        "benchmark": "racing_npn4",
        "suite": "npn4",
        "count": args.count,
        "timeout": args.timeout,
        "baseline_engine": args.engine,
        "race_engines": list(race_algo.engines),
        "baseline": _suite_metrics(baseline),
        "race": _suite_metrics(raced),
        "wall_seconds": {
            "baseline": round(baseline_wall, 4),
            "race": round(race_wall, 4),
        },
        "cancellation": {
            "count": len(latencies),
            "p50_seconds": round(_percentile(latencies, 0.50), 6),
            "p99_seconds": round(_percentile(latencies, 0.99), 6),
            "max_seconds": round(max(latencies), 6) if latencies else 0.0,
        },
    }
    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2)
    print(
        f"baseline: {report['baseline']['solved']}/"
        f"{report['baseline']['instances']} solved "
        f"(p50 {report['baseline']['p50_seconds']}s)  "
        f"race: {report['race']['solved']}/"
        f"{report['race']['instances']} solved "
        f"(p50 {report['race']['p50_seconds']}s, "
        f"{report['race']['degraded']} degraded)  "
        f"cancellation p99 {report['cancellation']['p99_seconds']}s",
        file=sys.stderr,
    )
    if report["race"]["solved"] < report["baseline"]["solved"]:
        print(
            "error: racing solved fewer instances than the "
            "single-engine baseline",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
