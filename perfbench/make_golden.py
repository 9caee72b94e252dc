"""Regenerate the golden files the benchmark checks its answers against.

    python3 perfbench/make_golden.py npn4 --work .perfbench/golden-work
    python3 perfbench/make_golden.py dsd --work .perfbench/golden-work

``npn4`` writes ``perfbench/golden/npn4.json``: for every one of the 222
NPN4 classes, the optimum gate count found by the FEN engine and
confirmed by CEGIS (both independent of the STP engine under test), one
verified optimum chain (used to fill the serving store), and the
class's STP solve time from one fresh-process scan in suite order
(``stp_scan_s``; the benchmark picks its class pool from these).

``dsd`` writes ``perfbench/golden/dsd.json`` for the DSD instance pool:
FDSD optima are ``support - 1`` (every n-input function needs n-1
two-input gates, and a fully DSD function is built from exactly that
many); PDSD optima come from FEN where it finishes within its budget,
and are otherwise null: those instances are checked by verifying the
returned chains, against the ``support - 1`` lower bound, and against
the size the STP scan found (``stp_gates``).  The scan also records
each instance's isolated STP solve time (``stp_scan_s``).

Each step appends one JSON line per item to ``--work``, so an
interrupted run resumes where it stopped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
GOLDEN = os.path.join(ROOT, "perfbench", "golden")

#: The DSD pool: the first ``count`` instances of each paper suite
#: (``repro.bench.suites.get_suite``, default seed).
DSD_POOL = {"fdsd6": 150, "fdsd8": 30, "pdsd6": 60, "pdsd8": 16}


def _resume(path: str) -> dict:
    done = {}
    if os.path.exists(path):
        with open(path) as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    done[record["key"]] = record
    return done


def _step(work: str, name: str, items, compute) -> dict:
    """Run ``compute(item)`` for each ``(key, item)`` not yet on disk."""
    path = os.path.join(work, f"{name}.jsonl")
    done = _resume(path)
    with open(path, "a") as handle:
        for key, item in items:
            if key in done:
                continue
            record = {"key": key, **compute(item)}
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            done[key] = record
            print(name, key, {k: v for k, v in record.items() if k != "chain"}, flush=True)
    return done


def _exact(engine: str, table, budget: float) -> dict:
    from repro.core.circuit_sat import verify_chain
    from repro.engine import run_engine
    from repro.store.serialize import chain_to_record

    started = time.perf_counter()
    try:
        result = run_engine(engine, table, budget)
    except Exception as exc:  # timeouts and infeasibility alike
        return {"gates": None, "error": type(exc).__name__,
                "s": round(time.perf_counter() - started, 3)}
    if not verify_chain(result.best, table):
        raise SystemExit(f"{engine} returned a wrong chain for {table.to_hex()}")
    return {"gates": result.num_gates, "chain": chain_to_record(result.best),
            "s": round(time.perf_counter() - started, 3)}


def npn4(work: str, budget: float, confirm_budget: float) -> None:
    from repro.bench.runner import default_algorithms
    from repro.bench.suites import npn4_suite
    from repro.core.circuit_sat import verify_chain
    from repro.runtime.executor import FaultTolerantExecutor
    from repro.store.serialize import chain_to_record

    tables = npn4_suite()
    stp = next(a for a in default_algorithms() if a.name == "STP")
    executor = FaultTolerantExecutor(stp.engines, engine_kwargs=stp.engine_kwargs)

    def scan(table):
        outcome = executor.run(table, 20.0)
        record = {"solved": outcome.solved, "s": round(outcome.runtime, 4)}
        if outcome.solved:
            best = outcome.result.best
            assert verify_chain(best, table)
            record.update(gates=outcome.result.num_gates,
                          solutions=outcome.result.num_solutions,
                          chain=chain_to_record(best))
        return record

    # One fresh process, suite order: the same cache history every time.
    stp_rows = _step(work, "npn4_stp", ((t.to_hex(), t) for t in tables), scan)
    # Cheap classes first so an interrupted run still covers the pool.
    order = sorted(tables, key=lambda t: stp_rows[t.to_hex()]["s"])
    fen = _step(work, "npn4_fen", ((t.to_hex(), t) for t in order),
                lambda t: _exact("fen", t, budget))
    cegis = _step(work, "npn4_cegis", ((t.to_hex(), t) for t in order),
                  lambda t: _exact("cegis", t, confirm_budget))

    classes = []
    for table in tables:
        key = table.to_hex()
        f, c, s = fen[key], cegis[key], stp_rows[key]
        if f["gates"] is not None and c["gates"] is not None and f["gates"] != c["gates"]:
            raise SystemExit(f"fen and cegis disagree on 0x{key}")
        optimum = f["gates"] if f["gates"] is not None else c["gates"]
        chain = f.get("chain") or c.get("chain") or s.get("chain")
        classes.append({
            "hex": key,
            "optimum": optimum,
            "fen": f["gates"],
            "cegis": c["gates"],
            "stp_gates": s.get("gates"),
            "stp_scan_s": s["s"],
            "chain": chain,
            "chain_source": "fen" if f.get("chain") else "cegis" if c.get("chain") else "stp" if chain else None,
        })
    _write("npn4.json", {
        "about": "NPN4 optimum gate counts (FEN, confirmed by CEGIS where it "
                 "finished) and the STP scan times the class pool is drawn from",
        "fen_budget_s": budget,
        "cegis_budget_s": confirm_budget,
        "stp_scan_timeout_s": 20.0,
        "classes": classes,
    })


def dsd(work: str, budget: float) -> None:
    from repro.bench.runner import default_algorithms
    from repro.bench.suites import get_suite
    from repro.core.circuit_sat import verify_chain
    from repro.runtime.executor import FaultTolerantExecutor

    items = []
    for suite, count in DSD_POOL.items():
        for index, table in enumerate(get_suite(suite, count)):
            items.append((f"{suite}:{index}", (suite, table)))
    stp = next(a for a in default_algorithms() if a.name == "STP")
    # Isolated, like every instance of the table1-dsd workload.
    executor = FaultTolerantExecutor(
        stp.engines, isolate=True, engine_kwargs=stp.engine_kwargs
    )

    def scan(item):
        suite, table = item
        outcome = executor.run(table, 60.0)
        if not outcome.solved:
            return {"solved": False, "s": round(outcome.runtime, 4)}
        result = outcome.result
        assert all(verify_chain(chain, table) for chain in result.chains)
        return {"solved": True, "s": round(outcome.runtime, 4),
                "gates": result.num_gates, "solutions": result.num_solutions}

    def exact(item):
        suite, table = item
        if suite.startswith("fdsd"):
            return {"optimum": table.support_size() - 1, "source": "support-1"}
        found = _exact("fen", table, budget)
        if found["gates"] is not None:
            return {"optimum": found["gates"], "source": "fen"}
        return {"optimum": None, "source": "chain verification only"}

    stp_rows = _step(work, "dsd_stp", items, scan)
    exact_rows = _step(work, "dsd_exact", items, exact)
    instances = []
    for key, (suite, table) in items:
        row, found = stp_rows[key], exact_rows[key]
        instances.append({
            "suite": suite,
            "hex": table.to_hex(),
            "vars": table.num_vars,
            "optimum": found["optimum"],
            "source": found["source"],
            "lower_bound": table.support_size() - 1,
            "stp_gates": row.get("gates"),
            "stp_scan_s": row["s"],
        })
    _write("dsd.json", {
        "about": "DSD pool (first instances of each paper suite): optimum gate "
                 "counts (support-1 for FDSD, FEN for PDSD where it finished), "
                 "the support-1 lower bound, and one isolated STP scan",
        "pool": DSD_POOL,
        "fen_budget_s": budget,
        "instances": instances,
    })


def _write(name: str, payload: dict) -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    with open(os.path.join(GOLDEN, name), "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print("wrote", os.path.join(GOLDEN, name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("which", choices=("npn4", "dsd"))
    parser.add_argument("--work", default=os.path.join(ROOT, ".perfbench", "golden-work"))
    parser.add_argument("--budget", type=float, default=40.0)
    parser.add_argument("--confirm-budget", type=float, default=15.0)
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    if args.which == "npn4":
        npn4(args.work, args.budget, args.confirm_budget)
    else:
        dsd(args.work, args.budget)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
