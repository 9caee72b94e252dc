"""Command-line store-backed network rewriting.

Installed as ``repro-rewrite`` (also ``python -m repro.network.cli``)::

    repro-rewrite circuit.blif --store db.sqlite        # rewrite + report
    repro-rewrite circuit.blif --out smaller.blif       # write the result
    repro-rewrite circuit.blif --passes 3 --json r.json # converge + record

Each pass enumerates k-feasible cuts, serves every cut function from
the persistent chain store (inverse NPN transform on a hit) or
synthesizes it through the fault-tolerant runtime on a miss (the fresh
optimum is written back), and replaces the node when the optimal chain
is smaller than the logic it makes dead.  Every pass is verified by
packed simulation before it is committed; an unverifiable pass is
rolled back and reported.

====  =============================================
code  meaning
====  =============================================
0     rewritten (or nothing to improve)
5     a pass failed verification and was rolled back
65    malformed input (unreadable/invalid BLIF)
====  =============================================
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .blif import blif_to_network, network_to_blif
from .rewrite import rewrite_with_store

EXIT_OK = 0
EXIT_UNVERIFIED = 5
EXIT_BAD_INPUT = 65


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-rewrite`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-rewrite",
        description="Exact-synthesis network rewriting backed by a "
        "persistent chain store.",
    )
    parser.add_argument("blif", help="input circuit (BLIF)")
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        help="persistent chain-store path (SQLite); a temporary "
        "throwaway store is used when omitted",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        help="write the rewritten network as BLIF to this path",
    )
    parser.add_argument(
        "--engine",
        type=str,
        default="stp",
        help="synthesis engine for store misses (default: stp)",
    )
    parser.add_argument(
        "--cut-size",
        type=int,
        default=4,
        help="cut leaf limit (<= 4, the exact-NPN range)",
    )
    parser.add_argument(
        "--passes",
        type=int,
        default=1,
        help="maximum rewriting passes (stops early at zero gain)",
    )
    parser.add_argument(
        "--timeout-per-cut",
        type=float,
        default=5.0,
        help="synthesis budget per cache miss, seconds",
    )
    parser.add_argument(
        "--zero-gain",
        action="store_true",
        help="also accept size-preserving replacements",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the per-pass packed-simulation equivalence check",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="write the per-pass report as JSON to this path",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        with open(args.blif) as handle:
            network = blif_to_network(handle.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    from ..store import ChainStore

    if args.store:
        store = ChainStore(args.store)
        tmp_dir = None
    else:
        import tempfile

        tmp_dir = tempfile.TemporaryDirectory(prefix="repro-rewrite-")
        store = ChainStore(f"{tmp_dir.name}/store.db")

    passes: list[dict] = []
    unverified = False
    started = time.perf_counter()
    try:
        for index in range(max(1, args.passes)):
            result = rewrite_with_store(
                network,
                store,
                cut_size=args.cut_size,
                zero_gain=args.zero_gain,
                engines=(args.engine,),
                timeout_per_cut=args.timeout_per_cut,
                verify=not args.no_verify,
            )
            passes.append(
                {
                    "pass": index + 1,
                    "gates_before": result.gates_before,
                    "gates_after": result.gates_after,
                    "replacements": result.replacements,
                    "cuts_tried": result.cuts_tried,
                    "store_hits": result.store_hits,
                    "store_misses": result.store_misses,
                    "synthesis_calls": result.synthesis_calls,
                    "verified": result.verified,
                }
            )
            print(
                f"pass {index + 1}: {result.gates_before} -> "
                f"{result.gates_after} gates "
                f"({result.replacements} replacement(s), "
                f"{result.store_hits} store hit(s), "
                f"{result.synthesis_calls} synthesis call(s))"
            )
            if not args.no_verify and not result.verified:
                print(
                    "pass failed packed-simulation verification; "
                    "rolled back",
                    file=sys.stderr,
                )
                unverified = True
                break
            if result.gain <= 0:
                break
        counters = store.counters()
    finally:
        store.close()
        if tmp_dir is not None:
            tmp_dir.cleanup()

    total_before = passes[0]["gates_before"]
    total_after = passes[-1]["gates_after"]
    print(
        f"total: {total_before} -> {total_after} gates in "
        f"{time.perf_counter() - started:.3f}s "
        f"(store: {counters['hits']} hit(s), "
        f"{counters['writes']} write(s))"
    )

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(network_to_blif(network))
        print(f"wrote {args.out}")
    if args.json:
        report = {
            "input": args.blif,
            "gates_before": total_before,
            "gates_after": total_after,
            "passes": passes,
            "store": counters,
        }
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return EXIT_UNVERIFIED if unverified else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
