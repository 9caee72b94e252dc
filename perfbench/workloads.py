"""The workloads, parent side: inputs from the seed, fresh program
processes, the answer checks and the metrics.

Every workload reports the same end-to-end metrics (``E2E``); what each
one means per workload is in ``perfbench/README.md``.  Their times are
normalized to the reference host speed (``hostspeed.py``); the measured
times are printed beside them.  A traced run repeats the workload with
the layer wrappers installed, on the same inputs, and reports the
per-layer metrics (measured, not normalized) plus the tracing overhead.
"""

from __future__ import annotations

import glob
import os
import random
from dataclasses import dataclass, field

import common
import hostspeed

E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "quality_frac": "ratio",
    "peak_rss_mb": "MB",
}

# table1-npn4: classes on both sides of the timeout, far from it.  The
# engine-wide memos make an instance's time depend on the instances run
# before it and on the orbit member asked for: from seed to seed, a
# seeded sample moved the wall by 11 %, a seeded order the median by
# 15 %, seeded orbit members the median by 13 %.  So the solved classes
# run as their suite representatives, in suite order, as repro-table1
# runs them; the seed picks the orbit members of the hard classes.
NPN4_TIMEOUT_S = 2.0
#: Classes whose scan time is under this (102 of 222) are all run...
NPN4_SOLVED_MAX_S = 0.35
#: ...then the first of the 12 classes no engine solved in 20 s.
NPN4_HARD = 2

# table1-dsd: instances drawn per (suite, optimum size) stratum.  Sizes
# track solve time closely here (PDSD6: 6 gates ~0.6 s, 7 gates ~2 s).
DSD_TIMEOUT_S = 30.0
DSD_JOBS = 2
DSD_MIX = {
    ("fdsd6", 5): 140,
    ("fdsd8", 7): 16,
    ("pdsd6", 6): 16,
    ("pdsd6", 7): 4,
    ("pdsd8", 8): 2,
    ("pdsd8", 9): 2,
}

# rewrite-blif: fresh processes, each one cold pass plus warm replays.
REWRITE_PAIRS = 10
REWRITE_WARM_REPLAYS = 10


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    metrics: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    def add_checks(self, attempted: int, failed: int, wrong: int) -> None:
        self.attempted += attempted
        self.failed += failed
        self.wrong += wrong

    def final(self) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


def orbit_member(rng, hex_string: str, num_vars: int) -> str:
    """A random member of the function's NPN orbit (the request form)."""
    from bench_serving import _random_orbit_member
    from repro.truthtable.table import from_hex

    return _random_orbit_member(rng, from_hex(hex_string, num_vars)).to_hex()


# ----------------------------------------------------------------------
# table1-npn4 / table1-dsd
# ----------------------------------------------------------------------
def npn4_instances(seed: int) -> list[dict]:
    """The solved pool in suite order, then the hard classes last (a
    timed-out search leaves the in-process caches in a state that
    depends on where it stopped)."""
    classes = common.load_golden("npn4.json")["classes"]
    rng = random.Random(seed)
    solved = [
        {"hex": c["hex"], "class": c}
        for c in classes
        if c["stp_gates"] is not None and c["stp_scan_s"] < NPN4_SOLVED_MAX_S
    ]
    hard = [
        {"hex": orbit_member(rng, c["hex"], 4), "class": c}
        for c in classes
        if c["stp_gates"] is None
    ][:NPN4_HARD]
    return [
        {
            "hex": entry["hex"],
            "vars": 4,
            "class": entry["class"]["hex"],
            "lo": entry["class"]["optimum"],
            "hi": entry["class"]["optimum"],
        }
        for entry in solved + hard
    ]


def dsd_instances(seed: int) -> list[dict]:
    pool = common.load_golden("dsd.json")["instances"]
    rng = random.Random(seed)
    picked = []
    for (suite, size), count in DSD_MIX.items():
        stratum = [
            entry for entry in pool
            if entry["suite"] == suite and entry["stp_gates"] == size
        ]
        picked += rng.sample(stratum, count)
    # Slowest first, so the run does not end on one worker finishing a
    # 2 s instance while the other idles (the seeded order moved the
    # wall by the length of that instance).
    picked.sort(key=lambda entry: -entry["stp_scan_s"])
    out = []
    for entry in picked:
        if entry["optimum"] is not None:
            lo = hi = entry["optimum"]
        else:  # PDSD without an independent optimum
            lo, hi = entry["lower_bound"], entry["stp_gates"]
        out.append({
            "hex": orbit_member(rng, entry["hex"], entry["vars"]),
            "vars": entry["vars"],
            "class": f"{entry['suite']}:{entry['hex']}",
            "lo": lo,
            "hi": hi,
        })
    return out


def check_table1(instances, records):
    """(failed, wrong): crashes, failing chains, sizes off the golden."""
    failed = wrong = 0
    for instance, record in zip(instances, records):
        if record["status"] not in ("ok", "timeout"):
            failed += 1
            continue
        if not record["solved"]:
            continue
        size_ok = instance["lo"] is None or instance["lo"] <= record["gates"] <= instance["hi"]
        if not (record["chains_ok"] and size_ok):
            failed += 1
            wrong += 1
    return failed, wrong


def determinism_mismatches(first, second) -> int:
    """Instances whose size, solution count or kernel call counts differ
    between two runs of the same inputs."""
    mismatches = 0
    for a, b in zip(first, second):
        keys = ("status", "gates", "solutions")
        if any(a[k] != b[k] for k in keys):
            mismatches += 1
        elif a["solved"] and a.get("kernel_calls") != b.get("kernel_calls"):
            mismatches += 1
    return mismatches


def table1(kind: str, seed: int, trace: bool, work: str, label: str) -> Result:
    instances = npn4_instances(seed) if kind == "npn4" else dsd_instances(seed)
    job = {
        "kind": kind,
        "instances": instances,
        "timeout": NPN4_TIMEOUT_S if kind == "npn4" else DSD_TIMEOUT_S,
        "jobs": DSD_JOBS,
    }
    speed = hostspeed.HostSpeed()
    result = Result()
    setups: list = []
    runs = []
    for traced in ([False, True] if trace else [False]):
        job["store"] = os.path.join(work, f"dsd-{len(runs)}.db")
        if traced:
            job["trace"] = trace_path(label, seed)
        process = common.start_program(
            job, work, f"{kind}-{len(runs)}", setups, speed, spares=0 if trace else 4
        )
        runs.append(process.run())
        records = runs[-1]["instances"]
        failed, wrong = check_table1(instances, records)
        result.add_checks(len(records), failed, wrong)

    plain = runs[0]
    times = [record["s"] for record in plain["instances"]]
    solved = sum(record["solved"] for record in plain["instances"])
    e2e = {
        "setup_s": common.median(setups),
        "wall_s": plain["wall_s"],
        "p50_ms": 1000.0 * common.percentile(times, 0.50),
        "tail_ms": 1000.0 * common.percentile(times, 0.90),
        "quality_frac": solved / len(times),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    result.lines.append(
        f"{label}: {len(times)} instances, {solved} solved; "
        f"wall_s={e2e['wall_s']:.3f} s (measured {plain['raw_wall_s']:.3f} s) "
        f"instance_s.p50={e2e['p50_ms'] / 1000:.4f} s "
        f"instance_s.p90={e2e['tail_ms'] / 1000:.4f} s "
        f"solved_frac={e2e['quality_frac']:.4f} ratio "
        f"failed_frac={result.failed / max(1, result.attempted):.4f} ratio "
        f"peak_rss_mb={e2e['peak_rss_mb']:.1f} MB setup_s={e2e['setup_s']:.3f} s"
    )
    if not trace:
        result.metrics, result.units = e2e, dict(E2E)
        return result
    traced = runs[1]
    layers = traced["layers"]["metrics"]
    layers["unattributed_s"] = max(0.0, traced["raw_wall_s"] - traced["layers"]["root_s"])
    layers["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    mismatches = determinism_mismatches(plain["instances"], traced["instances"])
    layers["determinism.mismatches"] = mismatches
    result.lines.append(
        f"{label}: determinism: {mismatches} instance(s) differ between the "
        "plain and the traced run (sizes, solution counts, kernel calls)"
    )
    return finish_traced(result, layers, label, seed)


# ----------------------------------------------------------------------
# rewrite-blif
# ----------------------------------------------------------------------
def rewrite(seed: int, trace: bool, work: str, label: str) -> Result:
    circuits = sorted(glob.glob(os.path.join(common.ROOT, "benchmarks", "circuits", "*.blif")))
    rng = random.Random(seed)
    speed = hostspeed.HostSpeed()
    result = Result()
    setups: list = []
    runs = []
    plan = [False, True] if trace else [False] * REWRITE_PAIRS
    order = list(circuits)
    for index, traced in enumerate(plan):
        if index == 0 or not trace:  # a traced run replays the plain order
            rng.shuffle(order)
        job = {
            "kind": "rewrite",
            "circuits": order,
            "store": os.path.join(work, f"rewrite-{index}.db"),
            "warm_replays": REWRITE_WARM_REPLAYS,
        }
        if traced:
            job["trace"] = trace_path(label, seed)
        process, seconds = common.timed_setup(
            speed, lambda: common.ProgramProcess(job, work, f"rewrite-{index}")
        )
        setups.append(seconds)
        runs.append(process.run())
        rows = runs[-1]["cold"] + [row for replay in runs[-1]["warm"] for row in replay]
        bad = sum(not (row["verified"] and row["equivalent"]) for row in rows)
        result.add_checks(len(rows), bad, bad)

    plain = runs[0]
    plain_runs = runs[:1] if trace else runs
    before = sum(row["before"] for row in plain["cold"])
    after = sum(row["after"] for row in plain["cold"])
    warm = [seconds for run in plain_runs for seconds in run["warm_s"]]
    e2e = {
        "setup_s": common.median(setups),
        "wall_s": common.median([run["cold_s"] for run in plain_runs]),
        "p50_ms": 1000.0 * common.percentile(warm, 0.50),
        "tail_ms": 1000.0 * common.percentile(warm, 0.90),
        "quality_frac": (before - after) / before,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    result.lines.append(
        f"{label}: {len(circuits)} circuits, {before} -> {after} LUTs; "
        f"rewrite_s.cold={e2e['wall_s']:.4f} s "
        f"rewrite_s.warm={e2e['p50_ms'] / 1000:.4f} s (p90 {e2e['tail_ms'] / 1000:.4f} s "
        f"over {len(warm)} replays) luts_after={after} count "
        f"failed_frac={result.failed / max(1, result.attempted):.4f} ratio "
        f"peak_rss_mb={e2e['peak_rss_mb']:.1f} MB setup_s={e2e['setup_s']:.3f} s"
    )
    if not trace:
        result.metrics, result.units = e2e, dict(E2E)
        return result
    traced = runs[1]
    layers = traced["layers"]["metrics"]
    passes = traced["cold"] + [row for replay in traced["warm"] for row in replay]
    hits = sum(row["hits"] for row in passes)
    misses = sum(row["misses"] for row in passes)
    layers["rewrite.synthesis_calls"] = sum(row["synthesis_calls"] for row in passes)
    layers["rewrite.store_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["unattributed_s"] = max(0.0, sum(traced["raw_s"]) - traced["layers"]["root_s"])
    layers["trace_overhead_frac"] = (traced["cold_s"] + sum(traced["warm_s"])) / (
        plain["cold_s"] + sum(plain["warm_s"])
    ) - 1.0
    return finish_traced(result, layers, label, seed)


# ----------------------------------------------------------------------
# shared
# ----------------------------------------------------------------------
def trace_path(label: str, seed: int) -> str:
    directory = os.path.join(common.ROOT, ".perfbench")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"trace-{label}-seed{seed}.jsonl")


def finish_traced(result: Result, layers: dict, label: str, seed: int) -> Result:
    """Report every per-layer metric (0 where the workload does not
    exercise the layer)."""
    units = common.per_layer_units()
    result.metrics = {name: float(layers.get(name, 0.0)) for name in units}
    result.units = units
    result.lines.append(f"{label}: spans written to {trace_path(label, seed)}")
    return result


def run(workload: str, seed: int, trace: bool, work: str) -> Result:
    if workload == "table1-npn4":
        return table1("npn4", seed, trace, work, workload)
    if workload == "table1-dsd":
        return table1("dsd", seed, trace, work, workload)
    if workload == "rewrite-blif":
        return rewrite(seed, trace, work, workload)
    import serving

    return serving.serve_warm(seed, trace, work, workload)
