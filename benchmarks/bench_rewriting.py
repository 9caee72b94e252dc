"""Store-backed rewriting benchmark over the checked-in BLIF suite.

Runs every circuit in ``benchmarks/circuits/`` through
:func:`repro.network.rewrite.rewrite_with_store` twice — once against
a cold (empty) chain store and once against the store the cold pass
just warmed — and writes a JSON report with gate-count reductions,
wall clocks, and store traffic (each pass's store lookups beside its
``store_hits``)::

    python benchmarks/bench_rewriting.py --json BENCH_rewriting.json

The run **gates** on four invariants:

* every rewriting pass passes the packed-simulation equivalence check
  (post-rewrite networks compute the same PO functions);
* the warm replay issues **zero** synthesis calls (every cut class is
  served from the store);
* the warm replay rewrites each circuit to the same BLIF text as the
  cold pass (the store replays the identical rewrite);
* at least one circuit shrinks (the suite is built to be reducible —
  no gain anywhere means the rewriting or store path regressed).

CI runs this on every push and uploads the JSON as an artifact.
"""

import argparse
import glob
import json
import os
import sys
import tempfile
import time

from repro.network import blif_to_network, network_to_blif, rewrite_with_store
from repro.store import ChainStore

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_CIRCUITS = os.path.join(ROOT, "benchmarks", "circuits")


def _load(path):
    with open(path) as handle:
        return blif_to_network(handle.read())


def _lookups(store):
    counters = store.counters()
    return counters["hits"] + counters["misses"]


def _run_pass(path, store, args):
    """(report row, rewritten BLIF text) of one pass over ``path``."""
    network = _load(path)
    lookups = _lookups(store)
    started = time.perf_counter()
    result = rewrite_with_store(
        network,
        store,
        cut_size=args.cut_size,
        timeout_per_cut=args.timeout_per_cut,
    )
    seconds = time.perf_counter() - started
    row = {
        "gates_before": result.gates_before,
        "gates_after": result.gates_after,
        "gain": result.gain,
        "replacements": result.replacements,
        "cuts_tried": result.cuts_tried,
        "store_hits": result.store_hits,
        "store_lookups": _lookups(store) - lookups,
        "store_misses": result.store_misses,
        "synthesis_calls": result.synthesis_calls,
        "verified": result.verified,
        "seconds": round(seconds, 4),
    }
    return row, network_to_blif(network)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark store-backed network rewriting "
        "(cold vs warm store)."
    )
    parser.add_argument(
        "--circuits",
        default=DEFAULT_CIRCUITS,
        help="directory of BLIF circuits",
    )
    parser.add_argument("--cut-size", type=int, default=4)
    parser.add_argument("--timeout-per-cut", type=float, default=30.0)
    parser.add_argument("--json", default=None, help="report path")
    args = parser.parse_args(argv)

    paths = sorted(glob.glob(os.path.join(args.circuits, "*.blif")))
    if not paths:
        print(f"no circuits under {args.circuits}", file=sys.stderr)
        return 1

    rows = []
    failures = []
    with tempfile.TemporaryDirectory(prefix="bench-rewriting-") as tmp:
        with ChainStore(os.path.join(tmp, "store.db")) as store:
            for path in paths:
                name = os.path.splitext(os.path.basename(path))[0]
                cold, cold_blif = _run_pass(path, store, args)
                warm, warm_blif = _run_pass(path, store, args)
                rows.append({"circuit": name, "cold": cold, "warm": warm})
                print(
                    f"{name}: {cold['gates_before']} -> "
                    f"{cold['gates_after']} gates "
                    f"(cold {cold['seconds']:.3f}s / "
                    f"{cold['synthesis_calls']} synth, "
                    f"warm {warm['seconds']:.3f}s / "
                    f"{warm['synthesis_calls']} synth)"
                )
                if not (cold["verified"] and warm["verified"]):
                    failures.append(f"{name}: equivalence check failed")
                if warm["synthesis_calls"] != 0:
                    failures.append(
                        f"{name}: warm replay hit the synthesizer "
                        f"{warm['synthesis_calls']} time(s)"
                    )
                if warm_blif != cold_blif:
                    failures.append(
                        f"{name}: warm replay rewrote to a different "
                        f"network than the cold pass"
                    )
            counters = store.counters()

    if not any(row["cold"]["gain"] > 0 for row in rows):
        failures.append("no circuit shrank: rewriting found zero gains")

    total_before = sum(r["cold"]["gates_before"] for r in rows)
    total_after = sum(r["cold"]["gates_after"] for r in rows)
    cold_seconds = sum(r["cold"]["seconds"] for r in rows)
    warm_seconds = sum(r["warm"]["seconds"] for r in rows)
    report = {
        "suite": os.path.relpath(os.path.abspath(args.circuits), ROOT),
        "circuits": rows,
        "total_gates_before": total_before,
        "total_gates_after": total_after,
        "total_reduction_pct": round(
            100.0 * (total_before - total_after) / max(1, total_before),
            2,
        ),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(
            cold_seconds / warm_seconds if warm_seconds > 0 else 0.0, 2
        ),
        "store": counters,
        "gate_failures": failures,
    }
    print(
        f"total: {total_before} -> {total_after} gates "
        f"({report['total_reduction_pct']}% smaller), "
        f"warm replay {report['warm_speedup']}x faster"
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")

    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
