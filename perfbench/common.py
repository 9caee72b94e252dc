"""Helpers shared by the benchmark's parent process and its program processes."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")


def percentile(values, fraction: float) -> float:
    """Smoothed percentile: the mean of the sorted samples whose rank is
    within ``min(0.1, (1 - fraction) / 2)`` of ``fraction``.

    Per-instance times cluster with gaps of ~10 % between neighbours, so
    the single sample at the median rank jumps from gap to gap with
    small timing noise; a narrow window of ranks does not.
    """
    ordered = sorted(values)
    count = len(ordered)
    half = min(0.1, (1.0 - fraction) / 2.0)
    lo = max(0, math.floor((fraction - half) * count))
    hi = min(count, max(lo + 1, math.ceil((fraction + half) * count)))
    window = ordered[lo:hi]
    return sum(window) / len(window)


def median(values) -> float:
    return float(statistics.median(values))


def per_layer_units() -> dict:
    """name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """High-water RSS of the largest program process the parent started
    and waited for (their own workers included)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def child_env(workdir: str) -> dict:
    """Environment for program processes: the checkout's sources, and
    temporary files inside the run's own directory."""
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), BENCH_DIR]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = workdir
    return env


class ProgramProcess:
    """A fresh ``perfbench/child.py`` process driven over stdin/stdout.

    The child imports the program, prepares its job and prints
    ``ready``; the time from spawn to that line is the set-up time.  It
    then waits for ``go`` (run the job, write the result file, print
    ``done``) or ``quit``.
    """

    def __init__(self, job: dict, workdir: str, tag: str) -> None:
        self.job_path = os.path.join(workdir, f"{tag}.job.json")
        self.out_path = os.path.join(workdir, f"{tag}.out.json")
        with open(self.job_path, "w") as handle:
            json.dump({**job, "out": self.out_path}, handle)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), self.job_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(workdir),
            cwd=ROOT,
        )
        line = self.proc.stdout.readline().strip()
        if line != "ready":
            self.stop()
            raise RuntimeError(f"program process failed to start: {line!r}")

    def run(self, timeout: float = 170.0) -> dict:
        try:
            self.proc.stdin.write("go\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline().strip()
            self.proc.wait(timeout=timeout)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if line != "done" or self.proc.returncode != 0:
            raise RuntimeError(f"program process failed: {line!r} rc={self.proc.returncode}")
        with open(self.out_path) as handle:
            return json.load(handle)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def timed_setup(speed, spawn):
    """``spawn()`` starts a process and returns once it is ready; returns
    (its result, the normalized set-up seconds).

    The parent pins itself to one CPU meanwhile, so the process starts
    there and the parent's host-speed probes run on the CPU that did the
    set-up (the vCPUs' speeds are unrelated); the process is unpinned
    once ready.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        speed.begin()
        started = time.perf_counter()
        owner = spawn()
        seconds = (time.perf_counter() - started) * speed.end()
    finally:
        os.sched_setaffinity(0, cpus)
    os.sched_setaffinity(owner.proc.pid, cpus)
    return owner, seconds


def start_program(job: dict, workdir: str, tag: str, setups: list, speed, spares: int):
    """Start ``spares + 1`` fresh program processes one after another,
    recording each one's set-up time, and keep only the last."""
    process = None
    for index in range(spares + 1):
        if process is not None:
            process.stop()
        process, seconds = timed_setup(
            speed, lambda: ProgramProcess(job, workdir, f"{tag}-{index}")
        )
        setups.append(seconds)
    return process
