"""A fresh program process for the table1 and rewrite workloads.

    python3 perfbench/child.py JOB.json

Imports the program, prepares the job, prints ``ready`` and waits for
``go`` or ``quit`` on stdin.  On ``go`` it runs the job, checks every
answer, writes a JSON result to ``job["out"]`` and prints ``done``.
Times are reported both as measured (``raw_*``) and normalized to the
reference host speed (``hostspeed.py``), segment by segment.  With
``job["trace"]`` set to a path, the layer wrappers are installed before
``ready``, the spans are written there and the result carries the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time

import hostspeed
import layers


def prepare_table1(job: dict):
    """The paper's STP contender, as ``default_algorithms()`` sets it."""
    from repro.bench.runner import default_algorithms
    from repro.truthtable.table import from_hex

    stp = next(a for a in default_algorithms(max_solutions=256) if a.name == "STP")
    tables = [from_hex(entry["hex"], entry["vars"]) for entry in job["instances"]]
    return stp, tables


def run_npn4(job: dict, probe: layers.Probe) -> dict:
    """One instance after another, in-process, no store, no isolation:
    what ``run_suite(jobs=1)`` does, keeping the chains for the check."""
    from repro.kernels import KERNEL_STATS
    from repro.runtime.executor import FaultTolerantExecutor

    stp, tables = prepare_table1(job)
    executor = FaultTolerantExecutor(stp.engines, engine_kwargs=stp.engine_kwargs)
    probe.ready()
    speed = hostspeed.HostSpeed()
    outcomes = []
    kernel_calls = []
    factors = []
    walls = []
    for table in tables:
        before = KERNEL_STATS.snapshot()
        started = time.perf_counter()
        outcomes.append(executor.run(table, job["timeout"]))
        walls.append(time.perf_counter() - started)
        factor = speed.end()
        # A timeout lasts the wall-clock budget whatever the host speed.
        factors.append(1.0 if outcomes[-1].status == "timeout" else factor)
        kernel_calls.append(KERNEL_STATS.since(before)[0])
    probe.finish(sum(walls))
    records = []
    for table, outcome, calls, factor in zip(tables, outcomes, kernel_calls, factors):
        records.append(layers.instance_record(table, outcome, calls))
        normalize(records[-1], factor)
    return {
        "raw_wall_s": probe.wall,
        "wall_s": sum(wall * factor for wall, factor in zip(walls, factors)),
        "instances": records,
    }


def normalize(record: dict, factor: float) -> None:
    """Keep an instance's measured time as ``raw_s`` and store its
    host-speed-normalized time as ``s``."""
    record["raw_s"] = record["s"]
    record["s"] *= factor


def run_dsd(job: dict, probe: layers.Probe) -> dict:
    """``run_suite(jobs=2, store_path=fresh)``: isolated, rlimit-capped
    workers, results written back to the store.  The workers use every
    CPU, so a host-speed sampler runs pinned to each one meanwhile."""
    import repro.bench.runner as runner

    stp, tables = prepare_table1(job)
    captured = layers.capture_scheduler(runner, probe)
    probe.ready()
    samplers = []
    samples = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            samplers.append(hostspeed.Sampler(cpu))
        started = time.perf_counter()
        reports = runner.run_suite(
            "table1-dsd",
            tables,
            [stp],
            job["timeout"],
            jobs=job["jobs"],
            store_path=job["store"],
        )
        ended = time.perf_counter()
    finally:
        for sampler in samplers:
            samples += sampler.stop()
    probe.finish(ended - started)
    records = []
    for index, (table, summary) in enumerate(zip(tables, reports[0].outcomes)):
        outcome, done = captured.get(index, (None, ended))
        records.append(layers.instance_record(table, outcome, None))
        records[-1]["s"] = summary.runtime
        # The probes of both CPUs nearest the instance: it ran on one of
        # them, and its own window is often shorter than the period.
        window = (done - summary.runtime, done)
        normalize(records[-1], hostspeed.sampled_factor(samples, *window, least=6))
    wall = probe.wall * hostspeed.sampled_factor(samples, started, ended)
    probe.count_prime_blocks(tables)
    return {"raw_wall_s": probe.wall, "wall_s": wall, "instances": records}


def run_rewrite(job: dict, probe: layers.Probe) -> dict:
    """A cold pass over every circuit against a fresh store, then warm
    replays against the store the cold pass filled."""
    import repro.network.rewrite as rewrite_mod
    from repro.network import blif_to_network
    from repro.store import ChainStore

    texts = []
    for path in job["circuits"]:
        with open(path) as handle:
            texts.append(handle.read())
    store = ChainStore(job["store"])
    probe.ready()
    speed = hostspeed.HostSpeed()
    raw_s = []

    def one_pass():
        """(normalized seconds, rows) of one pass over every circuit."""
        rows = []
        seconds = 0.0
        networks = [blif_to_network(text) for text in texts]
        references = [[t.bits for t in network.simulate()] for network in networks]
        speed.begin()
        for network, reference in zip(networks, references):
            started = time.perf_counter()
            result = rewrite_mod.rewrite_with_store(
                network, store, timeout_per_cut=30.0
            )
            seconds += time.perf_counter() - started
            rows.append({
                "before": result.gates_before,
                "after": result.gates_after,
                "verified": bool(result.verified),
                "equivalent": [t.bits for t in network.simulate()] == reference,
                "hits": result.store_hits,
                "misses": result.store_misses,
                "synthesis_calls": result.synthesis_calls,
            })
        raw_s.append(seconds)
        return seconds * speed.end(), rows

    cold_s, cold_rows = one_pass()
    warm = [one_pass() for _ in range(job["warm_replays"])]
    probe.finish(sum(raw_s))
    store.close()
    return {
        "raw_s": raw_s,
        "cold_s": cold_s,
        "cold": cold_rows,
        "warm_s": [seconds for seconds, _ in warm],
        "warm": [rows for _, rows in warm],
    }


JOBS = {"npn4": run_npn4, "dsd": run_dsd, "rewrite": run_rewrite}


def main() -> int:
    with open(sys.argv[1]) as handle:
        job = json.load(handle)
    probe = layers.Probe(job)
    result = JOBS[job["kind"]](job, probe)
    result["layers"] = probe.report()
    with open(job["out"], "w") as handle:
        json.dump(result, handle)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
