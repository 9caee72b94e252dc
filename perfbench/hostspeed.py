"""Host speed: a fixed reference computation timed beside measurements.

The benchmark's host is a 2-vCPU VM on a shared machine.  Each vCPU
flips between a fast and a slow state (a probe of the reference below
takes ~2.2 ms or ~3.5 ms) every few seconds, independently of the other
vCPU, and CPU time drifts exactly like wall time, so it is not the
scheduler.  Medians within a run cannot remove that: two sets of ten
raw runs differed by 20-45 % (IQR/median) on every timed metric.

So every timed segment is scaled to a host on which one probe of the
reference takes ``NOMINAL_S``:

    normalized = measured * NOMINAL_S / (probe time around the segment)

The reference is part of the benchmark, never of the program: a change
to the program moves the measured times and not the probes, so gains
and regressions show, while a slow host phase moves both and cancels.

Probes must run on the CPU that does the work.  ``HostSpeed`` probes in
the measuring thread itself, between segments (single-CPU workloads);
``Sampler`` is a process pinned to one CPU that probes it every
``PERIOD_S`` while workers run there (multi-CPU workloads).  Speed is
two-state, so probe times are averaged, not reduced to a median that
would pick one state.

    python3 perfbench/hostspeed.py CPU

runs a sampler pinned to CPU: it prints ``ready``, probes until a line
arrives on stdin, then prints its samples as one JSON list of
``[perf_counter time, probe CPU seconds]``.
"""

from __future__ import annotations

import gc
import json
import os
import select
import statistics
import subprocess
import sys
import time

#: Probe time on the fast state of the reference host (2-vCPU x86-64
#: VM, CPython 3.11), rounded.  Only ratios between commits matter; the
#: constant keeps the reported numbers near real seconds.
NOMINAL_S = 0.002
#: Probes taken at each segment boundary by ``HostSpeed``.
PROBES = 3
#: Time between a ``Sampler``'s probes (each takes 2-3 ms of its CPU).
PERIOD_S = 0.1


def _reference() -> int:
    """Integer, dict, tuple and sorting work like the program's search
    loops, in pure Python: a sampler process stays far smaller than any
    program process, so ``peak_rss_mb`` never measures it."""
    total = 0
    seen: dict = {}
    for i in range(4000):
        key = (i * 2654435761) & 0xFFFF
        seen[key] = seen.get(key, 0) + (i ^ (key >> 3))
        total += key % 7
    words = sorted(seen.items())[:600]
    total += sum(k & v for k, v in words)
    return total


class HostSpeed:
    """In-thread probes.  ``begin()`` probes before a segment, ``end()``
    probes after it and returns the factor that normalizes the
    segment's times; the next segment reuses those probes as its
    ``before``, so back-to-back segments need no ``begin()``."""

    def __init__(self) -> None:
        _reference()  # warm-up
        self._before = self._probe()

    def _probe(self) -> float:
        """Median of ``PROBES`` probe times (one interrupt cannot move it)."""
        # The program's heap must not decide when a collection lands.
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(PROBES):
                started = time.perf_counter()
                _reference()
                times.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times)

    def begin(self) -> None:
        self._before = self._probe()

    def end(self) -> float:
        after = self._probe()
        factor = NOMINAL_S / ((self._before + after) / 2.0)
        self._before = after
        return factor


class Sampler:
    """A probe process pinned to ``cpu``, started on construction."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"host-speed sampler on CPU {cpu} failed to start")

    def stop(self) -> list:
        """End the process and return its ``[time, seconds]`` samples."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        return json.loads(out) if self.proc.returncode == 0 else []


def sampled_factor(samples: list, start: float, end: float, least: int = 1) -> float:
    """The factor for a segment from the samplers' probes during it,
    widened around its middle until it holds ``least`` probes."""
    during = [seconds for at, seconds in samples if start <= at <= end]
    if len(during) < least:
        middle = (start + end) / 2.0
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        during = [seconds for _, seconds in nearest[:least]]
    if not during:
        raise RuntimeError("no host-speed samples during the segment")
    return NOMINAL_S / statistics.fmean(during)


def main(argv) -> int:
    os.sched_setaffinity(0, {int(argv[0])})
    gc.disable()
    _reference()  # warm-up
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        started = time.perf_counter()
        cpu = time.thread_time()  # not the time spent waiting for the CPU
        _reference()
        samples.append((started, time.thread_time() - cpu))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
