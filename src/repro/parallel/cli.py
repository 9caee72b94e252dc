"""Command-line batch synthesis.

Installed as ``repro-batch`` (also ``python -m repro.parallel.cli``)::

    repro-batch --suite npn4 --count 30 --jobs 4
    repro-batch --suite npn4 --jobs 4 --store chains.db --checkpoint ck.jsonl
    repro-batch --functions funcs.hex --vars 4 --jobs 8 --engine stp

Runs a batch of synthesis instances through the parallel scheduler:
every instance executes in its own isolated, rlimit-capped worker
process with a hard wall-clock kill, at most ``--jobs`` alive at once.
Instances come from a named benchmark suite or from a file of hex
truth tables (one per line, ``#`` comments allowed).  With ``--store``
the persistent chain store is consulted before synthesizing and
written back on miss; with ``--checkpoint`` completed instances
survive interrupts and are replayed on restart.

Per-instance results stream to stdout as JSON lines; the final
summary (aggregate counters, per-worker accounting, wall clock) goes
to stderr, or to ``--json`` as a machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from ..bench.runner import Algorithm, run_suite
from ..bench.suites import SUITE_NAMES, get_suite
from ..engine import engine_names, run_engine
from ..truthtable import from_hex
from ..truthtable.table import TruthTable

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-batch`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-batch",
        description="Parallel batch exact synthesis with a persistent "
        "chain store.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--suite",
        choices=SUITE_NAMES,
        help="benchmark suite to draw instances from",
    )
    source.add_argument(
        "--functions",
        type=str,
        help="file of hex truth tables, one per line (requires --vars)",
    )
    parser.add_argument(
        "--vars",
        type=int,
        default=None,
        help="number of inputs for --functions entries",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="cap on the number of instances (default: all)",
    )
    parser.add_argument(
        "--engine",
        choices=engine_names(),
        default="stp",
        help="primary synthesis engine (default: stp)",
    )
    parser.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the CNF fence-engine fallback on crashes",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="concurrent instances"
    )
    parser.add_argument(
        "--race",
        action="store_true",
        help="race the engine lanes concurrently per instance (first "
        "verified exact answer wins); exhausted instances degrade to "
        "stored upper bounds instead of bare timeouts",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-instance budget in seconds",
    )
    parser.add_argument(
        "--max-solutions", type=int, default=64, help="solution cap"
    )
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        help="persistent chain-store path (SQLite)",
    )
    parser.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="JSONL checkpoint path (resume support)",
    )
    parser.add_argument(
        "--seed", type=int, default=2023, help="suite generator seed"
    )
    parser.add_argument(
        "--memory-limit-mb",
        type=int,
        default=None,
        help="per-worker RLIMIT_AS cap",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="write the machine-readable summary to this path",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="live progress on stderr"
    )
    return parser


def _load_functions(args) -> tuple[str, list[TruthTable]]:
    if args.suite:
        return args.suite, get_suite(args.suite, args.count, seed=args.seed)
    if args.vars is None:
        raise SystemExit("--functions requires --vars")
    functions = []
    with open(args.functions, "r", encoding="utf-8") as handle:
        for line in handle:
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            functions.append(from_hex(text, args.vars))
    if args.count is not None:
        functions = functions[: args.count]
    return "batch", functions


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        batch_name, functions = _load_functions(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65
    if not functions:
        print("error: no instances to run", file=sys.stderr)
        return 65

    from functools import partial

    engines: tuple[str, ...] = (args.engine,)
    if args.race:
        from ..runtime.racing import DEFAULT_RACE_ENGINES

        engines = tuple(dict.fromkeys(engines + DEFAULT_RACE_ENGINES))
    elif not args.no_fallback and args.engine != "fen":
        engines = (args.engine, "fen")
    kwargs = {"max_solutions": args.max_solutions}
    algorithm = Algorithm(
        args.engine.upper(),
        partial(run_engine, args.engine, **kwargs),
        engines=engines,
        engine_kwargs={name: dict(kwargs) for name in engines},
    )

    started = time.perf_counter()
    try:
        reports = run_suite(
            batch_name,
            functions,
            [algorithm],
            args.timeout,
            verbose=args.verbose,
            checkpoint_path=args.checkpoint,
            isolate=args.jobs == 1,
            memory_limit_mb=args.memory_limit_mb,
            jobs=args.jobs,
            store_path=args.store,
            race=args.race,
        )
    except KeyboardInterrupt:
        print(
            "interrupted — completed instances are checkpointed"
            + (f" in {args.checkpoint}" if args.checkpoint else ""),
            file=sys.stderr,
        )
        return 130
    wall = time.perf_counter() - started

    report = reports[0]
    for outcome in report.outcomes:
        print(json.dumps(outcome.to_record(outcome.function_hex)))
    summary = {
        "batch": batch_name,
        "engine": args.engine,
        "jobs": args.jobs,
        "instances": len(report.outcomes),
        "solved": report.num_ok,
        "timeouts": report.num_timeouts,
        "degraded": report.num_degraded,
        "store_hits": report.num_store_hits,
        "wall_seconds": round(wall, 6),
        "workers": {
            str(worker): stats
            for worker, stats in sorted(report.worker_summary().items())
        },
    }
    print(
        f"{summary['solved']}/{summary['instances']} solved, "
        f"{summary['timeouts']} timeouts, "
        f"{summary['degraded']} degraded, "
        f"{summary['store_hits']} store hits, "
        f"{wall:.2f}s wall with jobs={args.jobs}",
        file=sys.stderr,
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
