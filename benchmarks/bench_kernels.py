"""Old-vs-new kernel benchmark: packed bit-parallel kernels against the
original pure-Python implementations (``repro.kernels.reference``).

Produces ``BENCH_kernels_npn4.json`` with these sections:

* ``chain_allsat`` — the headline microbenchmark: tuple-cube AllSAT vs
  the packed two-plane solver on random chains of several shapes, plus
  the aggregate speedup the CI gate checks;
* ``verify_chain`` — end-to-end verification old/new on the same shapes;
* ``chain_simulate`` — per-row chain simulation plus don't-care
  canonicalization vs the word-parallel ``lut_apply`` path, on the same
  shapes plus one 8-input shape, with its aggregate speedup;
* ``solution_set_check`` — the store's and the executor's check of a
  whole solution set: one ``verify_chain`` AllSAT per chain vs one
  ``check_solution_set`` over the set's records, on seeded FDSD6 and
  PDSD6 solution sets, with its aggregate speedup;
* ``micro`` — onset expansion and exact NPN canonicalization old/new;
* ``npn4`` — end-to-end pipeline wall-clock over an NPN4 subset at
  ``jobs=1``, with the folded per-kernel stats, and an old-vs-new
  ``verify_chain`` agreement check over every solved chain.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --out BENCH_kernels_npn4.json --min-allsat-speedup 1.0 \
        --min-simulate-speedup 1.0 --min-set-check-speedup 1.0

``--min-allsat-speedup`` turns the report into a regression gate: the
process exits non-zero when the geometric-mean AllSAT speedup falls
below the threshold (CI pins 1.0 — packed must never be slower).
``--min-simulate-speedup`` gates the ``chain_simulate`` geomean the
same way, and ``--min-set-check-speedup`` the ``solution_set_check``
geomean.
``--max-npn4-wall`` gates the end-to-end section the same way: CI pins
it at half the seed's recorded wall (40.0s for the 8-class subset →
20.0s).  Nearly all of that wall is the STP search on the 0x0016 /
0x0017 all-solutions stragglers, so the gate fails the build when the
search or its factorization queries get slower.  ``--histogram-out``
additionally writes the per-kernel call-count histogram of the NPN4 run
as its own artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time

from repro.bench.suites import get_suite
from repro.chain import BooleanChain
from repro.core import SynthesisSpec, chain_all_sat, run_pipeline, verify_chain
from repro.core.circuit_sat import cubes_to_onset
from repro.core.pipeline import canonicalize_dont_cares
from repro.engine import run_engine
from repro.kernels import (
    KERNEL_STATS,
    check_solution_set,
    npn_minimum,
    packed_all_sat,
)
from repro.kernels.reference import (
    canonicalize_dont_cares_ref,
    chain_all_sat_ref,
    cubes_to_onset_ref,
    npn_apply_ref,
    simulate_signals_ref,
    verify_chain_ref,
)
from repro.runtime.errors import BudgetExceeded


def random_chain(rnd, num_inputs: int, num_gates: int) -> BooleanChain:
    """A random chain (same construction as the property-test helper)."""
    chain = BooleanChain(num_inputs)
    for _ in range(num_gates):
        hi = chain.num_signals
        a = rnd.randrange(hi)
        b = rnd.randrange(hi)
        while b == a:
            b = rnd.randrange(hi)
        chain.add_gate(rnd.randrange(16), (a, b))
    chain.set_output(chain.num_signals - 1, bool(rnd.getrandbits(1)))
    return chain


#: (num_inputs, num_gates, min #solutions, #chains, #repeats) per
#: microbenchmark shape.  The min-solution filter rejects chains whose
#: output constant-collapses — their AllSAT is a dictionary lookup and
#: measures nothing.
ALLSAT_SHAPES = [
    (4, 7, 4, 15, 5),
    (5, 9, 8, 15, 4),
    (6, 14, 32, 10, 4),
    (7, 14, 64, 10, 4),
]


#: (num_inputs, num_gates, #chains, #repeats) per simulation shape: the
#: AllSAT shapes plus one 8-input shape.
SIMULATE_SHAPES = [
    (n, gates, count, repeats) for n, gates, _, count, repeats in ALLSAT_SHAPES
] + [(8, 16, 10, 4)]


def _time(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _solution_heavy_chains(n, gates, min_solutions, count):
    rnd = random.Random(n * 100 + gates)
    chains = []
    while len(chains) < count:
        chain = random_chain(rnd, num_inputs=n, num_gates=gates)
        if len(chain_all_sat_ref(chain)) >= min_solutions:
            chains.append(chain)
    return chains


def bench_chain_allsat() -> list[dict]:
    """Tuple-cube AllSAT vs the packed solver, per chain shape.

    ``new_s`` times :func:`repro.kernels.packed_all_sat` — the entry
    the synthesis core dispatches through (``verify_chain`` never
    round-trips to tuples).  ``tuple_api_s`` times the compatibility
    adapter :func:`repro.core.chain_all_sat`, whose unpack step gives
    back roughly half the win.
    """
    rows = []
    for n, gates, min_solutions, count, repeats in ALLSAT_SHAPES:
        chains = _solution_heavy_chains(n, gates, min_solutions, count)

        def run_old():
            for chain in chains:
                chain_all_sat_ref(chain)

        def run_new():
            for chain in chains:
                packed_all_sat(chain)

        def run_tuple_api():
            for chain in chains:
                chain_all_sat(chain)

        # Equivalence before timing — a fast wrong kernel is worthless.
        for chain in chains:
            assert chain_all_sat(chain) == chain_all_sat_ref(chain)
        old_s = _time(run_old, repeats)
        new_s = _time(run_new, repeats)
        tuple_s = _time(run_tuple_api, repeats)
        rows.append(
            {
                "shape": f"{n}in{gates}g",
                "chains": count,
                "old_s": round(old_s, 6),
                "new_s": round(new_s, 6),
                "tuple_api_s": round(tuple_s, 6),
                "speedup": round(old_s / new_s, 3),
            }
        )
    return rows


def bench_verify() -> list[dict]:
    """End-to-end verification (AllSAT + onset expansion) old vs new."""
    rows = []
    for n, gates, min_solutions, count, repeats in ALLSAT_SHAPES:
        pairs = [
            (chain, chain.simulate_output())
            for chain in _solution_heavy_chains(
                n, gates, min_solutions, count
            )
        ]

        def run_old():
            for chain, function in pairs:
                verify_chain_ref(chain, function)

        def run_new():
            for chain, function in pairs:
                verify_chain(chain, function)

        old_s = _time(run_old, repeats)
        new_s = _time(run_new, repeats)
        rows.append(
            {
                "shape": f"{n}in{gates}g",
                "chains": count,
                "old_s": round(old_s, 6),
                "new_s": round(new_s, 6),
                "speedup": round(old_s / new_s, 3),
            }
        )
    return rows


def bench_chain_simulate() -> list[dict]:
    """Chain simulation plus don't-care canonicalization, per shape:
    the per-row references against ``simulate_signals`` and
    ``canonicalize_dont_cares``, which evaluate every gate with one
    word-parallel :func:`repro.kernels.lut_apply`."""
    rows = []
    for n, gates, count, repeats in SIMULATE_SHAPES:
        rnd = random.Random(n * 100 + gates)
        chains = [random_chain(rnd, n, gates) for _ in range(count)]

        def run_old():
            for chain in chains:
                simulate_signals_ref(chain)
                canonicalize_dont_cares_ref(chain)

        def run_new():
            for chain in chains:
                chain.simulate_signals()
                canonicalize_dont_cares(chain)

        for chain in chains:
            assert chain.simulate_signals() == simulate_signals_ref(chain)
            assert canonicalize_dont_cares(
                chain
            ) == canonicalize_dont_cares_ref(chain)
        old_s = _time(run_old, repeats)
        new_s = _time(run_new, repeats)
        rows.append(
            {
                "shape": f"{n}in{gates}g",
                "chains": count,
                "old_s": round(old_s, 6),
                "new_s": round(new_s, 6),
                "speedup": round(old_s / new_s, 3),
            }
        )
    return rows


#: (suite, #instances, #repeats) per solution-set shape: every optimal
#: chain of the first instances of each seeded suite.
SET_CHECK_SUITES = [("fdsd6", 8, 5), ("pdsd6", 8, 3)]


def bench_solution_set_check() -> list[dict]:
    """Checking a whole solution set, per suite: one ``verify_chain``
    AllSAT per chain (the store's old write-back check) against one
    ``check_solution_set`` call over the set's records."""
    rows = []
    for suite, count, repeats in SET_CHECK_SUITES:
        solutions = [
            (function, run_engine("hier", function, 60.0).chains)
            for function in get_suite(suite, count)
        ]
        sets = [
            (function, [chain.signature() for chain in chains])
            for function, chains in solutions
        ]

        def run_old():
            for function, chains in solutions:
                for chain in chains:
                    verify_chain(chain, function)

        def run_new():
            for function, records in sets:
                check_solution_set(records, [function.bits], function.num_vars)

        # Same verdicts before timing, on each set and on a corrupt
        # copy of it (every chain's first gate complemented).
        for function, records in sets:
            corrupt = []
            for n, gates, outputs in records:
                op, fanins = gates[0]
                op ^= (1 << (1 << len(fanins))) - 1
                corrupt.append((n, ((op, fanins),) + gates[1:], outputs))
            assert check_solution_set(
                records + corrupt, [function.bits], function.num_vars
            ) == [
                verify_chain(BooleanChain.from_record(record), function)
                for record in records + corrupt
            ]
        old_s = _time(run_old, repeats)
        new_s = _time(run_new, repeats)
        rows.append(
            {
                "suite": suite,
                "sets": len(sets),
                "chains": sum(len(records) for _, records in sets),
                "old_s": round(old_s, 6),
                "new_s": round(new_s, 6),
                "speedup": round(old_s / new_s, 3),
            }
        )
    return rows


def bench_micro() -> dict:
    rnd = random.Random(42)
    n = 8
    cube_sets = [
        [
            tuple(rnd.choice((None, 0, 1)) for _ in range(n))
            for _ in range(16)
        ]
        for _ in range(50)
    ]
    for cubes in cube_sets:
        assert cubes_to_onset(cubes, n) == cubes_to_onset_ref(cubes, n)
    onset_old = _time(
        lambda: [cubes_to_onset_ref(c, n) for c in cube_sets], 5
    )
    onset_new = _time(
        lambda: [cubes_to_onset(c, n) for c in cube_sets], 5
    )

    import itertools

    tables = [rnd.getrandbits(16) for _ in range(20)]
    transforms = [
        (perm, flips, out)
        for perm in itertools.permutations(range(4))
        for flips in range(16)
        for out in (False, True)
    ]

    def npn_old():
        for bits in tables:
            min(
                npn_apply_ref(bits, 4, perm, flips, out)
                for perm, flips, out in transforms
            )

    def npn_new():
        for bits in tables:
            npn_minimum(bits, 4)

    npn_old_s = _time(npn_old, 3)
    npn_new_s = _time(npn_new, 3)
    return {
        "cubes_to_onset": {
            "old_s": round(onset_old, 6),
            "new_s": round(onset_new, 6),
            "speedup": round(onset_old / onset_new, 3),
        },
        "npn_canonical": {
            "old_s": round(npn_old_s, 6),
            "new_s": round(npn_new_s, 6),
            "speedup": round(npn_old_s / npn_new_s, 3),
        },
    }


def bench_npn4(count: int, timeout: float) -> dict:
    functions = get_suite("npn4", count)
    snap = KERNEL_STATS.snapshot()
    start = time.perf_counter()
    solved = 0
    verify_checked = 0
    for function in functions:
        try:
            result = run_pipeline(
                SynthesisSpec(function=function, timeout=timeout)
            )
        except BudgetExceeded:
            continue  # counts as unsolved, like a runner timeout
        if result.chains:
            solved += 1
        for chain in result.chains[:4]:
            assert verify_chain(chain, function)
            if chain.num_gates > 0:
                # Old and new verification must agree chain-by-chain.
                # (Trivial constant chains are excluded: the old tuple
                # solver mishandled constant outputs — a bug the packed
                # solver fixes, see repro.kernels.allsat.)
                assert verify_chain_ref(chain, function)
                verify_checked += 1
    wall_s = time.perf_counter() - start
    calls, seconds = KERNEL_STATS.since(snap)
    return {
        "functions": len(functions),
        "solved": solved,
        "verify_chains_checked": verify_checked,
        "wall_s": round(wall_s, 3),
        "kernel_calls": calls,
        "kernel_seconds": {k: round(v, 6) for k, v in seconds.items()},
    }


def kernel_histogram(npn4: dict) -> dict:
    """Per-kernel call-count histogram of the NPN4 run, largest first.

    ``fact_quartering`` counts the quartering checks: one per
    disjoint-cone factorization query the search reaches, each solved
    on first use and memoized.
    """
    calls = npn4.get("kernel_calls", {})
    seconds = npn4.get("kernel_seconds", {})
    ranked = sorted(calls.items(), key=lambda kv: -kv[1])
    return {
        "benchmark": "kernel_call_histogram",
        "npn4_functions": npn4.get("functions"),
        "npn4_wall_s": npn4.get("wall_s"),
        "kernels": [
            {
                "kernel": name,
                "calls": count,
                "seconds": round(seconds.get(name, 0.0), 6),
            }
            for name, count in ranked
        ],
    }


def print_histogram(histogram: dict, width: int = 40) -> None:
    rows = histogram["kernels"]
    if not rows:
        return
    top = rows[0]["calls"] or 1
    print("kernel call histogram (npn4 subset):")
    for row in rows:
        bar = "#" * max(1, round(width * row["calls"] / top))
        print(
            f"  {row['kernel']:<24} {row['calls']:>10,} "
            f"{row['seconds']:>9.3f}s {bar}"
        )


def _geomean(rows: list[dict]) -> float:
    return math.exp(
        sum(math.log(r["speedup"]) for r in rows) / len(rows)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_kernels_npn4.json", help="output JSON path"
    )
    parser.add_argument(
        "--npn4-count",
        type=int,
        default=20,
        help="NPN4 subset size for the end-to-end section",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-instance synthesis timeout (s)",
    )
    parser.add_argument(
        "--min-allsat-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when the geometric-mean AllSAT speedup "
        "drops below this value",
    )
    parser.add_argument(
        "--min-simulate-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when the geometric-mean chain simulation "
        "speedup drops below this value",
    )
    parser.add_argument(
        "--min-set-check-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when the geometric-mean solution-set check "
        "speedup over per-chain AllSAT drops below this value",
    )
    parser.add_argument(
        "--max-npn4-wall",
        type=float,
        default=None,
        help="fail (exit 1) when the end-to-end NPN4 wall clock "
        "exceeds this many seconds",
    )
    parser.add_argument(
        "--histogram-out",
        default=None,
        help="also write the per-kernel call-count histogram of the "
        "NPN4 run to this JSON path",
    )
    args = parser.parse_args(argv)

    allsat_rows = bench_chain_allsat()
    geomean = _geomean(allsat_rows)
    simulate_rows = bench_chain_simulate()
    simulate_geomean = _geomean(simulate_rows)
    set_check_rows = bench_solution_set_check()
    set_check_geomean = _geomean(set_check_rows)
    report = {
        "benchmark": "kernels_npn4",
        "chain_allsat": allsat_rows,
        "chain_allsat_speedup_geomean": round(geomean, 3),
        "chain_allsat_speedup_min": min(
            r["speedup"] for r in allsat_rows
        ),
        "verify_chain": bench_verify(),
        "chain_simulate": simulate_rows,
        "chain_simulate_speedup_geomean": round(simulate_geomean, 3),
        "solution_set_check": set_check_rows,
        "solution_set_check_speedup_geomean": round(set_check_geomean, 3),
        "micro": bench_micro(),
        "npn4": bench_npn4(args.npn4_count, args.timeout),
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    for row in allsat_rows:
        print(
            f"chain_allsat {row['shape']}: {row['old_s']:.4f}s -> "
            f"{row['new_s']:.4f}s ({row['speedup']:.2f}x)"
        )
    print(f"chain_allsat geomean speedup: {geomean:.2f}x")
    for row in report["verify_chain"]:
        print(
            f"verify_chain {row['shape']}: {row['old_s']:.4f}s -> "
            f"{row['new_s']:.4f}s ({row['speedup']:.2f}x)"
        )
    for row in simulate_rows:
        print(
            f"chain_simulate {row['shape']}: {row['old_s']:.4f}s -> "
            f"{row['new_s']:.4f}s ({row['speedup']:.2f}x)"
        )
    print(f"chain_simulate geomean speedup: {simulate_geomean:.2f}x")
    for row in set_check_rows:
        print(
            f"solution_set_check {row['suite']} ({row['chains']} chains): "
            f"{row['old_s']:.4f}s -> {row['new_s']:.4f}s "
            f"({row['speedup']:.2f}x)"
        )
    print(f"solution_set_check geomean speedup: {set_check_geomean:.2f}x")
    micro = report["micro"]
    for name, entry in micro.items():
        print(
            f"{name}: {entry['old_s']:.4f}s -> {entry['new_s']:.4f}s "
            f"({entry['speedup']:.2f}x)"
        )
    npn4 = report["npn4"]
    print(
        f"npn4 subset: {npn4['solved']}/{npn4['functions']} solved in "
        f"{npn4['wall_s']:.2f}s; verify agreement on "
        f"{npn4['verify_chains_checked']} chains"
    )
    histogram = kernel_histogram(npn4)
    print_histogram(histogram)
    if args.histogram_out:
        with open(args.histogram_out, "w") as handle:
            json.dump(histogram, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.histogram_out}")
    print(f"wrote {args.out}")

    failed = False
    if (
        args.min_allsat_speedup is not None
        and geomean < args.min_allsat_speedup
    ):
        print(
            f"FAIL: AllSAT geomean speedup {geomean:.2f}x is below the "
            f"required {args.min_allsat_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if (
        args.min_simulate_speedup is not None
        and simulate_geomean < args.min_simulate_speedup
    ):
        print(
            f"FAIL: chain simulation geomean speedup "
            f"{simulate_geomean:.2f}x is below the required "
            f"{args.min_simulate_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if (
        args.min_set_check_speedup is not None
        and set_check_geomean < args.min_set_check_speedup
    ):
        print(
            f"FAIL: solution-set check geomean speedup "
            f"{set_check_geomean:.2f}x is below the required "
            f"{args.min_set_check_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if (
        args.max_npn4_wall is not None
        and npn4["wall_s"] > args.max_npn4_wall
    ):
        print(
            f"FAIL: NPN4 wall clock {npn4['wall_s']:.2f}s exceeds the "
            f"allowed {args.max_npn4_wall:.2f}s",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
