"""Command-line exact synthesis.

Installed as ``repro-synth`` (also ``python -m repro.cli``)::

    repro-synth 8ff8 --vars 4                 # all optimal chains
    repro-synth 8ff8 --vars 4 --engine fen    # baseline comparison
    repro-synth e8 --vars 3 --cost depth --best-only
    repro-synth 8ff8 --vars 4 --blif out.blif # export the best chain
    repro-synth 8ff8 --vars 4 --isolate       # hard-timeout worker
    repro-synth 8ff8 --vars 4 --store db.sqlite  # lookup-before-synthesize

Synthesis runs through the fault-tolerant runtime: by default the
selected engine degrades to the CNF fence baseline on a crash, and the
per-engine trail is printed on stderr.  When every engine of the chain
fails, a run with ``--store`` *degrades* to the store's best-known
upper bound.  Failures map to distinct exit codes so scripts can
branch on them, and tell "non-optimal answer served" from "no answer
at all":

====  =============================================
code  meaning
====  =============================================
0     solved
2     budget exceeded (timeout)
3     worker crashed / engine unavailable
4     infeasible within the gate cap
5     degraded: non-exact upper bound served
65    malformed input (bad hex / arity), or
      ``--memory-limit-mb`` without ``--isolate``
====  =============================================
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .chain.costs import COST_MODELS, rank_solutions
from .network import LogicNetwork, network_to_blif
from .engine import engine_names
from .runtime.executor import FaultTolerantExecutor, format_trail
from .runtime.faults import FaultPlan, FaultSpec
from .truthtable import from_hex

#: Exit codes for the structured failure modes.
EXIT_OK = 0
EXIT_TIMEOUT = 2
EXIT_CRASH = 3
EXIT_INFEASIBLE = 4
EXIT_DEGRADED = 5
EXIT_BAD_INPUT = 65

_STATUS_EXIT_CODES = {
    "ok": EXIT_OK,
    "timeout": EXIT_TIMEOUT,
    "crash": EXIT_CRASH,
    "unavailable": EXIT_CRASH,
    "corrupt": EXIT_CRASH,
    "infeasible": EXIT_INFEASIBLE,
    "degraded": EXIT_DEGRADED,
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-synth`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-synth",
        description="Exact synthesis of a Boolean function into "
        "optimal 2-LUT chains.",
    )
    parser.add_argument(
        "function",
        help="truth table in hexadecimal (e.g. 8ff8)",
    )
    parser.add_argument(
        "--vars", type=int, required=True, help="number of inputs"
    )
    parser.add_argument(
        "--engine",
        choices=engine_names(),
        default="stp",
        help="synthesis engine (default: stp)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="seconds"
    )
    parser.add_argument(
        "--max-solutions", type=int, default=64, help="solution cap"
    )
    parser.add_argument(
        "--max-gates",
        type=int,
        default=None,
        help="gate cap (exit 4 when no chain fits)",
    )
    parser.add_argument(
        "--cost",
        choices=sorted(COST_MODELS),
        default="gates",
        help="ranking cost for the solution list",
    )
    parser.add_argument(
        "--best-only",
        action="store_true",
        help="print only the cheapest chain",
    )
    parser.add_argument(
        "--blif",
        type=str,
        default=None,
        help="write the best chain as BLIF to this path",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print search counters, per-stage timings, and cache "
        "hit/miss counts after the solutions",
    )
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        help="persistent chain-store path (SQLite): serve the "
        "function's NPN class from the store when present, write "
        "back after synthesizing on a miss",
    )
    parser.add_argument(
        "--isolate",
        action="store_true",
        help="run the engine in a killable worker process "
        "(hard wall-clock timeout)",
    )
    parser.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the CNF fence-engine fallback on crashes",
    )
    parser.add_argument(
        "--memory-limit-mb",
        type=int,
        default=None,
        help="per-worker RLIMIT_AS cap (requires --isolate)",
    )
    parser.add_argument(
        "--inject-fault",
        choices=("hang", "crash", "hard-crash", "corrupt", "timeout"),
        default=None,
        help=argparse.SUPPRESS,  # test hook: fault the primary engine
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        target = from_hex(args.function, args.vars)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    engines: tuple[str, ...] = (args.engine,)
    if not args.no_fallback and args.engine != "fen":
        engines = (args.engine, "fen")
    engine_kwargs = {
        name: {
            "max_solutions": args.max_solutions,
            "max_gates": args.max_gates,
        }
        for name in engines
    }
    fault_plan = None
    if args.inject_fault:
        fault_plan = FaultPlan(
            {
                target.to_hex(): FaultSpec(
                    kind=args.inject_fault,
                    engine=args.engine,
                    times=None,
                )
            }
        )
    store = None
    if args.store:
        from .store import ChainStore

        store = ChainStore(args.store)
    try:
        executor = FaultTolerantExecutor(
            engines,
            isolate=args.isolate,
            memory_limit_mb=args.memory_limit_mb,
            fault_plan=fault_plan,
            engine_kwargs=engine_kwargs,
            store=store,
        )
    except ValueError as exc:  # a memory cap without a worker
        if store is not None:
            store.close()
        print(
            f"error: --memory-limit-mb requires --isolate ({exc})",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    store_counters = None
    try:
        outcome = executor.run(target, timeout=args.timeout)
        if store is not None:
            store_counters = store.counters()
    finally:
        executor.close()
        if store is not None:
            store.close()

    # The engine trail goes to stderr so stdout stays parseable; each
    # hop names the engine, the error class, and the seconds it cost.
    for record, line in zip(outcome.trail, format_trail(outcome.trail)):
        if record.status != "ok":
            print(line, file=sys.stderr)
    if outcome.fallback_from:
        print(
            f"fell back: {outcome.fallback_from} -> {outcome.engine}",
            file=sys.stderr,
        )

    if not outcome.solved and not outcome.degraded:
        print(
            f"{outcome.status}: {outcome.error or 'synthesis failed'} "
            f"[after {outcome.runtime:.3f}s, "
            f"{outcome.attempts} attempt(s)]",
            file=sys.stderr,
        )
        return _STATUS_EXIT_CODES.get(outcome.status, EXIT_CRASH)

    result = outcome.result
    if outcome.degraded:
        print(
            "degraded: the engine walk found no answer; "
            f"serving a verified upper bound g<={result.num_gates} "
            f"[{outcome.engine}]",
            file=sys.stderr,
        )
        print(
            f"0x{target.to_hex()}: upper bound {result.num_gates} "
            f"gates (NOT proven optimal), {result.num_solutions} "
            f"solution(s) in {outcome.runtime:.3f}s [{outcome.engine}]"
        )
        for rank, (cost, chain) in enumerate(
            rank_solutions(result.chains, args.cost)[:1], start=1
        ):
            print(f"-- solution {rank} ({args.cost}={cost:g})")
            print(chain.format())
        return EXIT_DEGRADED
    ranked = rank_solutions(result.chains, args.cost)
    shown = ranked[:1] if args.best_only else ranked
    print(
        f"0x{target.to_hex()}: optimum {result.num_gates} gates, "
        f"{result.num_solutions} solution(s) in {result.runtime:.3f}s "
        f"[{outcome.engine}]"
    )
    for rank, (cost, chain) in enumerate(shown, start=1):
        print(f"-- solution {rank} ({args.cost}={cost:g})")
        print(chain.format())

    if args.stats:
        from .stats import stats_snapshot

        _print_stats(
            stats_snapshot(
                stats=result.stats, store_counters=store_counters
            )
        )

    if args.blif and ranked:
        network = LogicNetwork.from_chain(
            ranked[0][1], name=f"f{target.to_hex()}"
        )
        with open(args.blif, "w") as handle:
            handle.write(network_to_blif(network))
        print(f"wrote {args.blif}")
    return EXIT_OK


def _print_stats(snapshot: dict) -> None:
    """Render a :func:`repro.stats.stats_snapshot` dict on stdout.

    The same merged snapshot backs the serving layer's ``/metrics``
    endpoint; here it is flattened to greppable lines.
    """
    print("-- stats")
    record = snapshot.get("synthesis")
    if record:
        print(
            "search: "
            f"fences={record['fences_examined']} "
            f"dags={record['dags_examined']} "
            f"candidates={record['candidates_generated']} "
            f"verified={record['candidates_verified']} "
            f"verify_failures={record['verification_failures']}"
        )
        for stage, seconds in sorted(record["stage_seconds"].items()):
            print(f"stage {stage}: {seconds:.4f}s")
        hits = record["cache_hits"]
        misses = record["cache_misses"]
        for cache in sorted(set(hits) | set(misses)):
            print(
                f"cache {cache}: hits={hits.get(cache, 0)} "
                f"misses={misses.get(cache, 0)}"
            )
        calls = record.get("kernel_calls", {})
        seconds = record.get("kernel_seconds", {})
        for kernel in sorted(set(calls) | set(seconds)):
            line = f"kernel {kernel}: calls={calls.get(kernel, 0)}"
            if kernel in seconds:
                line += f" time={seconds[kernel]:.4f}s"
            print(line)
    store = snapshot.get("store")
    if store:
        print(
            "store: "
            + " ".join(f"{k}={store[k]}" for k in sorted(store))
        )


if __name__ == "__main__":
    raise SystemExit(main())
