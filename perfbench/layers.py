"""Measurement inside a program process: the answer check, counter
deltas, scheduler dispatch stamps and, in traced runs, the spans
rolled up into the per-layer metrics."""

from __future__ import annotations

import sys
import threading
import time

import tracing

KERNELS = (
    "fact_quartering",
    "fact_quartering_batch",
    "fact_expand",
    "chain_allsat",
    "tt_support",
)
ENGINES = ("hier", "stp", "fen")
STAGES = ("normalize", "canonicalize", "topology", "search", "expand", "finalize")
#: SynthesisCache.counters() section -> SynthesisStats cache name.
CACHES = {"npn": "npn", "topology": "topology", "factorization": "factorization_pool"}


def instance_record(table, outcome, kernel_calls) -> dict:
    """One table1 instance, with every returned chain re-verified
    against the requested table."""
    from repro.core.circuit_sat import verify_chain

    record = {"hex": table.to_hex(), "status": "crash", "solved": False,
              "gates": -1, "solutions": 0, "s": 0.0, "chains_ok": False}
    if outcome is not None:
        result = outcome.result if outcome.solved else None
        chains = result.chains if result is not None else []
        record.update(
            status=outcome.status,
            solved=outcome.solved,
            s=outcome.runtime,
            gates=result.num_gates if result is not None else -1,
            solutions=len(chains),
            chains_ok=(bool(chains) or not outcome.solved) and all(
                chain.num_gates == result.num_gates and verify_chain(chain, table)
                for chain in chains
            ),
        )
    if kernel_calls is not None:
        record["kernel_calls"] = kernel_calls
    return record


class QueueStats:
    """Dispatch stamps for the scheduler layer: time each job waited
    between submission and dispatch, and time the dispatchers were busy."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.jobs = 0
        self.wait_s = 0.0
        self.busy_s = 0.0
        self.backlog_max = 0
        self.first = None
        self.last = None

    def submitted(self, backlog: int) -> float:
        now = time.perf_counter()
        with self._lock:
            self.backlog_max = max(self.backlog_max, backlog)
            if self.first is None:
                self.first = now
        return now

    def timed(self, stamp: float, fn):
        def call():
            start = time.perf_counter()
            try:
                return fn()
            finally:
                end = time.perf_counter()
                with self._lock:
                    self.wait_s += start - stamp
                    self.busy_s += end - start
                    self.last = end if self.last is None else max(self.last, end)

        return call

    def metrics(self) -> dict:
        window = (self.last - self.first) if self.last is not None else 0.0
        return {
            "scheduler.queue_wait_s": self.wait_s,
            "scheduler.busy_s": self.busy_s,
            "scheduler.idle_slot_s": max(0.0, self.jobs * window - self.busy_s),
            "scheduler.backlog_max": self.backlog_max,
        }


def observed_scheduler(base, queue: QueueStats):
    """A ``BatchScheduler`` subclass stamping every ``submit_call``."""

    class Observed(base):
        def submit_call(self, label, fn, **kwargs):
            queue.jobs = self.jobs
            stamp = queue.submitted(self.backlog() + 1)
            return super().submit_call(label, queue.timed(stamp, fn), **kwargs)

    return Observed


class _TimedExecutor:
    """Executor proxy stamping when the scheduler dispatches a task."""

    def __init__(self, executor, queue: QueueStats, stamps: dict) -> None:
        self._executor = executor
        self._queue = queue
        self._stamps = stamps

    def run(self, function, timeout=None, **kwargs):
        stamp = self._stamps.pop(function.to_hex())
        return self._queue.timed(
            stamp, lambda: self._executor.run(function, timeout, **kwargs)
        )()


def capture_scheduler(runner, probe: "Probe") -> dict:
    """Make ``run_suite`` hand back every outcome, chains included.

    Installs a ``BatchScheduler`` subclass where ``repro.bench.runner``
    looks the name up; it records each task's ``ExecutionOutcome`` and
    completion time by slot and, in traced runs, stamps queue waits.
    Returns the slot -> (outcome, perf_counter at completion) dict it
    fills.
    """
    captured: dict = {}
    stamps: dict = {}
    queue = probe.queue

    class Capturing(runner.BatchScheduler):
        def __init__(self, executors, jobs, **kwargs):
            chained = kwargs.get("on_complete")

            def on_complete(task, outcome, worker):
                captured[task.index] = (outcome, time.perf_counter())
                if chained is not None:
                    chained(task, outcome, worker)

            kwargs["on_complete"] = on_complete
            if probe.tracer is not None:
                queue.jobs = jobs
                executors = {
                    name: _TimedExecutor(executor, queue, stamps)
                    for name, executor in executors.items()
                }
            super().__init__(executors, jobs, **kwargs)

        def submit(self, task):
            if probe.tracer is not None:
                stamps[task.function.to_hex()] = queue.submitted(self.backlog() + 1)
            return super().submit(task)

    runner.BatchScheduler = Capturing
    return captured


class Tally:
    """Folds executor outcomes: merged search stats, engine attempts,
    retries and fallbacks.  Isolated outcomes also carry the kernel and
    cache counters their worker process kept."""

    def __init__(self, isolated: bool) -> None:
        from repro.core.spec import SynthesisStats

        self.isolated = isolated
        self.stats = SynthesisStats()
        self.engine_calls: dict = {}
        self.engine_s: dict = {}
        self.retries = 0
        self.fallbacks = 0
        self._lock = threading.Lock()

    def add(self, outcome) -> None:
        with self._lock:
            for attempt in outcome.trail:
                name = attempt.engine
                self.engine_calls[name] = self.engine_calls.get(name, 0) + 1
                self.engine_s[name] = self.engine_s.get(name, 0.0) + attempt.runtime
                self.retries += attempt.attempt > 0
            self.fallbacks += bool(outcome.fallback_from)
            if outcome.result is not None and outcome.engine != "store":
                self.stats.merge(outcome.result.stats)


class Probe:
    """What one program process measures about itself."""

    def __init__(self, job: dict) -> None:
        self.trace_path = job.get("trace")
        self.queue = QueueStats()
        self.tally = Tally(isolated=job["kind"] == "dsd")
        self.prime_blocks = 0
        self.wall = 0.0
        self.tracer = None
        if self.trace_path:
            self.tracer = tracing.Tracer()
            self.side = tracing.install(self.tracer, self.tally)

    def ready(self) -> None:
        """Tell the parent set-up is done; start measuring on ``go``."""
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            raise SystemExit(0)
        self.start()

    def start(self) -> None:
        from repro.cache import get_cache
        from repro.kernels import KERNEL_STATS

        self._kernels = KERNEL_STATS.snapshot()
        self._caches = get_cache().counters()

    def finish(self, wall: float) -> None:
        from repro.cache import get_cache
        from repro.kernels import KERNEL_STATS

        self.wall = wall
        self.kernel_calls = KERNEL_STATS.since(self._kernels)[0]
        now = get_cache().counters()
        self.cache_counts = {
            name: {
                kind: now[name][kind] - self._caches[name][kind]
                for kind in ("hits", "misses")
            }
            for name in CACHES
        }

    def count_prime_blocks(self, tables) -> None:
        """Prime blocks of inputs solved in isolated workers (whose
        wrapped ``dsd_decompose`` calls are not seen here)."""
        if self.tracer is None:
            return
        from repro.truthtable.dsd import dsd_decompose

        for table in tables:
            stack = [dsd_decompose(table)]
            while stack:
                node = stack.pop()
                self.prime_blocks += node.kind == "prime"
                stack.extend(node.children)

    def report(self) -> dict:
        """Per-layer metrics of a traced run ({} when not traced)."""
        if self.tracer is None:
            return {}
        self.tracer.write_jsonl(self.trace_path)
        roll = self.tracer.rollup()
        return {
            "metrics": self._metrics(roll),
            "root_s": roll["root_s"],
            "wall_s": self.wall,
        }

    def _metrics(self, roll: dict) -> dict:
        totals = self.tracer.totals
        spans = self.tracer.spans

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return totals.get(name, (0, 0.0, 0.0))[1]

        def own(prefix):
            return sum(v[2] for k, v in totals.items() if k.startswith(prefix))

        def ratio(part, whole):
            return part / whole if whole else 0.0

        stats = self.tally.stats
        isolated = self.tally.isolated
        m = {f"pipeline.{stage}_s": stats.stage_seconds.get(stage, 0.0) for stage in STAGES}
        m["pipeline.dags_examined"] = stats.dags_examined
        m["pipeline.dsd_prune_ratio"] = ratio(stats.dags_pruned_dsd, stats.dags_examined)
        m["pipeline.verify_accept_ratio"] = ratio(
            stats.candidates_verified - stats.verification_failures,
            stats.candidates_verified,
        )

        m["factorization.s"] = own("factorization.")
        m["factorization.memo_entries"] = sum(
            engine.cached_queries for engine in self.side["engines"]
        )
        kernel_calls = dict(self.kernel_calls)
        if isolated:
            for name, count in stats.kernel_calls.items():
                kernel_calls[name] = kernel_calls.get(name, 0) + count
        for name in KERNELS:
            m[f"kernels.{name}.calls"] = kernel_calls.get(name, 0)

        m["verify.calls"] = calls("verify.chain")
        m["verify.s"] = total("verify.chain")

        m["topology.build_s"] = sum(
            span[4] for span in spans
            if span[2] == "topology.families" and span[6]["miss"]
        )
        for name, stats_name in CACHES.items():
            hits = self.cache_counts[name]["hits"]
            misses = self.cache_counts[name]["misses"]
            if isolated:
                hits += stats.cache_hits.get(stats_name, 0)
                misses += stats.cache_misses.get(stats_name, 0)
            m[f"cache.{name}.hit_ratio"] = ratio(hits, hits + misses)

        m["hier.dsd_s"] = total("hier.dsd") + (
            stats.stage_seconds.get("dsd", 0.0) if isolated else 0.0
        )
        m["hier.prime_blocks"] = self.side["prime_blocks"] + self.prime_blocks
        m["hier.closure_s"] = own("hier.run")

        m["npn.canonicalize.calls"] = calls("npn.canonicalize")
        m["npn.canonicalize_s"] = total("npn.canonicalize")

        for name in ENGINES:
            m[f"engine.{name}.calls"] = self.tally.engine_calls.get(name, 0)
            m[f"engine.{name}.s"] = self.tally.engine_s.get(name, 0.0)
        m["engine.fallbacks"] = self.tally.fallbacks

        m["executor.run_s"] = total("executor.run")
        m["executor.retries"] = self.tally.retries
        m["worker.spawns"] = calls("worker.isolated")
        m["worker.overhead_s"] = sum(
            span[4] - span[6]["child_s"] for span in spans
            if span[2] == "worker.isolated" and span[6]
        )

        lookups = [span for span in spans if span[2] == "store.lookup"]
        m["store.lookup.calls"] = len(lookups)
        m["store.lookup_s"] = total("store.lookup")
        m["store.hit_ratio"] = ratio(sum(s[6]["hit"] for s in lookups), len(lookups))
        m["store.put.calls"] = calls("store.put")
        m["store.put_s"] = total("store.put")
        m["store.mark_infeasible_s"] = total("store.mark_infeasible")
        m["store.min_feasible_gates_s"] = total("store.min_feasible_gates")
        m["store.quarantined"] = max((s[6]["quarantined"] for s in lookups), default=0)

        m.update(self.queue.metrics())
        m["serve.service_s"] = total("serve.service")
        m["rewrite.cuts_s"] = total("rewrite.cuts")
        m["rewrite.cut_function_s"] = total("rewrite.cut_function")
        for layer, seconds in roll["layers"].items():
            m[f"self_s.{layer}"] = seconds
        return m
