"""Benchmark runner: Table-I style measurements.

Runs a set of synthesis algorithms over a suite of functions with a
per-instance wall-clock timeout, validating every returned chain by
simulation, and aggregates the paper's columns: mean solve time over
solved instances, the number of timeouts, the number of instances
solved, and — for the all-solutions STP algorithm — total time, mean
time per solution, and the average solution count.

Every instance is executed through the fault-tolerant runtime
(:mod:`repro.runtime`), so a hung, crashed, or corrupt engine is
recorded as a per-instance outcome instead of aborting the suite.
With ``checkpoint_path`` set, outcomes stream to an append-only JSONL
log as they complete; re-running with the same path replays the
completed instances and executes only the unfinished ones — a
``KeyboardInterrupt`` therefore loses at most the instance that was
mid-flight.

``jobs > 1`` shards the remaining instances across the parallel batch
scheduler (:mod:`repro.parallel`): each instance runs in an isolated
worker process with a hard wall-clock kill (and an ``RLIMIT_AS`` cap
with ``memory_limit_mb``, which only a worker can apply).  Workers are
resident: each algorithm's executor keeps a pool that grows to at most
``jobs`` workers, each serving one instance after another with warm
engine memos, and a worker that times out or crashes is retired so the
next instance gets a fresh fork.  Every executor is closed (its
workers stopped) before ``run_suite`` returns.  Aggregate counters and
ordered solution lists are identical to a sequential run; only timings
(and the ``worker`` attribution) differ.  With ``store_path``, every
executor consults the persistent chain store before synthesizing and
writes results back graded by the engine's exactness — a warm store
serves a repeated suite of an exact algorithm (BMS, FEN, ABC) with
zero new synthesis calls, while STP's ``hier`` answers are kept as
upper bounds only.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

from ..core.spec import SynthesisResult
from ..engine import run_engine
from ..parallel.progress import ProgressReporter
from ..parallel.scheduler import BatchScheduler, BatchTask
from ..runtime.checkpoint import CheckpointLog, instance_key
from ..runtime.executor import ExecutionOutcome, FaultTolerantExecutor
from ..runtime.faults import FaultPlan
from ..truthtable.table import TruthTable

__all__ = [
    "Algorithm",
    "InstanceOutcome",
    "SuiteReport",
    "default_algorithms",
    "run_suite",
]

SynthesisFn = Callable[[TruthTable, float], SynthesisResult]


@dataclass(frozen=True)
class Algorithm:
    """A named synthesis engine adapter.

    ``engines`` names the runtime fallback chain (registry keys from
    :mod:`repro.engine`); when ``None`` the bare ``run``
    callable is executed in-process with no fallback.  ``engine_kwargs``
    carries per-engine tuning knobs across the chain.
    """

    name: str
    run: SynthesisFn
    all_solutions: bool = False
    engines: tuple[str, ...] | None = None
    engine_kwargs: dict | None = None


def default_algorithms(max_solutions: int = 256) -> list[Algorithm]:
    """The paper's four contenders: BMS, FEN, ABC(lutexact), STP.

    The STP contender carries the paper-motivated fallback chain
    (hierarchical STP engine, then the CNF fence baseline); the
    baselines run standalone.  Every ``run`` callable dispatches
    through the engine registry (:mod:`repro.engine`), so the bare
    in-process path and the named fallback-chain path exercise the
    same code.
    """
    stp_kwargs = {
        "hier": {"max_solutions": max_solutions, "all_solutions": True},
    }
    return [
        Algorithm("BMS", partial(run_engine, "bms"), engines=("bms",)),
        Algorithm("FEN", partial(run_engine, "fen"), engines=("fen",)),
        Algorithm(
            "ABC", partial(run_engine, "lutexact"), engines=("lutexact",)
        ),
        Algorithm(
            "STP",
            partial(
                run_engine,
                "hier",
                max_solutions=max_solutions,
                all_solutions=True,
            ),
            all_solutions=True,
            engines=("hier", "fen"),
            engine_kwargs=stp_kwargs,
        ),
    ]


@dataclass
class InstanceOutcome:
    """One (function, algorithm) measurement."""

    function_hex: str
    solved: bool
    runtime: float
    num_gates: int = -1
    num_solutions: int = 0
    error: str = ""
    status: str = ""
    engine: str = ""
    fallback_from: str | None = None
    cached: bool = False
    #: Dispatcher that ran the instance (-1: sequential / replayed).
    worker: int = -1
    #: False when the chain is a degraded upper bound, not an optimum.
    exact: bool = True
    #: Corrupt store rows quarantined while serving this instance.
    store_quarantined: int = 0
    #: JSON-safe per-run search/cache stats (``SynthesisStats.to_record``).
    stats: dict = field(default_factory=dict)

    def to_record(self, key: str) -> dict:
        """Checkpoint representation of this outcome."""
        return {
            "key": key,
            "function": self.function_hex,
            "solved": self.solved,
            "runtime": round(self.runtime, 6),
            "num_gates": self.num_gates,
            "num_solutions": self.num_solutions,
            "error": self.error,
            "status": self.status,
            "engine": self.engine,
            "fallback_from": self.fallback_from,
            "worker": self.worker,
            "exact": self.exact,
            "store_quarantined": self.store_quarantined,
            "stats": self.stats,
        }

    @classmethod
    def from_record(cls, record: dict) -> "InstanceOutcome":
        """Rehydrate a checkpointed outcome (marked ``cached``)."""
        return cls(
            function_hex=record.get("function", ""),
            solved=bool(record.get("solved", False)),
            runtime=float(record.get("runtime", 0.0)),
            num_gates=int(record.get("num_gates", -1)),
            num_solutions=int(record.get("num_solutions", 0)),
            error=record.get("error", ""),
            status=record.get("status", ""),
            engine=record.get("engine", ""),
            fallback_from=record.get("fallback_from"),
            cached=True,
            worker=int(record.get("worker", -1)),
            exact=bool(record.get("exact", True)),
            store_quarantined=int(record.get("store_quarantined", 0)),
            stats=record.get("stats", {}) or {},
        )


@dataclass
class SuiteReport:
    """Aggregated Table-I row for one algorithm on one suite."""

    algorithm: str
    suite: str
    outcomes: list[InstanceOutcome] = field(default_factory=list)

    @property
    def num_ok(self) -> int:
        """Instances solved before the timeout (#ok)."""
        return sum(1 for o in self.outcomes if o.solved)

    @property
    def num_timeouts(self) -> int:
        """Instances not solved in time (#t/o)."""
        return sum(1 for o in self.outcomes if not o.solved)

    @property
    def num_fallbacks(self) -> int:
        """Instances solved only after degrading to a fallback engine."""
        return sum(
            1 for o in self.outcomes if o.solved and o.fallback_from
        )

    @property
    def mean_time(self) -> float:
        """Mean runtime over solved instances (the paper's ``mean``)."""
        solved = [o.runtime for o in self.outcomes if o.solved]
        return sum(solved) / len(solved) if solved else float("nan")

    @property
    def total_time(self) -> float:
        """Total runtime over solved instances (STP's ``Total``)."""
        return sum(o.runtime for o in self.outcomes if o.solved)

    @property
    def mean_solutions(self) -> float:
        """Average number of solutions per solved instance."""
        solved = [o.num_solutions for o in self.outcomes if o.solved]
        return sum(solved) / len(solved) if solved else 0.0

    @property
    def mean_time_per_solution(self) -> float:
        """Mean time divided by the average solution count."""
        if not self.mean_solutions:
            return float("nan")
        return self.mean_time / self.mean_solutions

    @property
    def num_store_hits(self) -> int:
        """Instances served by the persistent chain store."""
        return sum(1 for o in self.outcomes if o.engine == "store")

    @property
    def num_degraded(self) -> int:
        """Instances served as a non-exact upper bound."""
        return sum(1 for o in self.outcomes if o.status == "degraded")

    def worker_summary(self) -> dict[int, dict]:
        """Per-worker fault/timeout accounting (parallel runs only).

        Keyed by dispatcher id; instances run sequentially or replayed
        from a checkpoint land under worker ``-1``.  ``store_hits`` /
        ``store_hit_seconds`` break out the instances each worker served
        straight from the persistent chain store and the wall-clock
        those served lookups cost; ``degraded`` counts upper-bound
        servings and ``store_quarantined`` the corrupt store rows the
        worker's lookups marked and skipped.
        """
        summary: dict[int, dict] = {}
        for outcome in self.outcomes:
            bucket = summary.setdefault(
                outcome.worker,
                {
                    "tasks": 0,
                    "solved": 0,
                    "timeouts": 0,
                    "crashes": 0,
                    "degraded": 0,
                    "store_hits": 0,
                    "store_hit_seconds": 0.0,
                    "store_quarantined": 0,
                },
            )
            bucket["tasks"] += 1
            if outcome.solved:
                bucket["solved"] += 1
            elif outcome.status == "degraded":
                bucket["degraded"] += 1
            elif outcome.status == "timeout" or not outcome.error:
                bucket["timeouts"] += 1
            else:
                bucket["crashes"] += 1
            if outcome.engine == "store":
                bucket["store_hits"] += 1
                bucket["store_hit_seconds"] += outcome.runtime
            bucket["store_quarantined"] += outcome.store_quarantined
        return summary


def run_suite(
    suite_name: str,
    functions: Sequence[TruthTable],
    algorithms: Iterable[Algorithm],
    timeout: float,
    verbose: bool = False,
    *,
    checkpoint_path: str | None = None,
    isolate: bool = False,
    fault_plan: FaultPlan | None = None,
    max_retries: int = 1,
    memory_limit_mb: int | None = None,
    jobs: int = 1,
    store_path: str | None = None,
) -> list[SuiteReport]:
    """Run every algorithm over every function; returns one report per
    algorithm.  Every returned chain is validated by simulation.

    With ``checkpoint_path``, completed instances are streamed to a
    JSONL log and replayed on restart, so only unfinished instances
    re-execute.  A ``KeyboardInterrupt`` propagates to the caller
    after the in-flight state is flushed; everything already measured
    is on disk.

    ``jobs > 1`` dispatches the unfinished instances of *all*
    algorithms through the batch scheduler; this implies process
    isolation (the parallelism lives in forked workers), so every
    algorithm needs a named engine chain.  ``store_path`` opens a
    persistent chain store consulted lookup-before-synthesize and
    written back on miss; a store-backed instance whose every engine
    fails degrades to the stored upper bound (``status ==
    "degraded"``, ``exact=False``) instead of a plain failure.

    ``memory_limit_mb`` caps each worker process, so it needs
    ``isolate`` or ``jobs > 1``; without either the executor raises
    :class:`ValueError`.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    store = None
    if store_path:
        from ..store import ChainStore

        store = ChainStore(store_path)
    log = CheckpointLog(checkpoint_path) if checkpoint_path else None
    done = log.load() if log is not None else {}
    algorithms = list(algorithms)
    try:
        if jobs > 1:
            return _run_suite_parallel(
                suite_name,
                functions,
                algorithms,
                timeout,
                jobs,
                verbose=verbose,
                log=log,
                done=done,
                fault_plan=fault_plan,
                max_retries=max_retries,
                memory_limit_mb=memory_limit_mb,
                store=store,
            )
        reports = []
        for algorithm in algorithms:
            report = SuiteReport(algorithm.name, suite_name)
            reports.append(report)
            with _executor_for(
                algorithm,
                isolate=isolate,
                fault_plan=fault_plan,
                max_retries=max_retries,
                memory_limit_mb=memory_limit_mb,
                store=store,
            ) as executor:
                for function in functions:
                    key = instance_key(
                        suite_name, algorithm.name, function.to_hex()
                    )
                    record = done.get(key)
                    if record is not None:
                        outcome = InstanceOutcome.from_record(record)
                    else:
                        # KeyboardInterrupt propagates from here:
                        # completed instances are already streamed to the
                        # log, so only the in-flight instance is lost
                        # (and re-runs later).
                        outcome = _run_instance(executor, function, timeout)
                        if log is not None:
                            log.append(outcome.to_record(key))
                    report.outcomes.append(outcome)
                    if verbose:
                        _print_progress(algorithm.name, outcome)
        return reports
    finally:
        if store is not None:
            store.close()


def _run_suite_parallel(
    suite_name: str,
    functions: Sequence[TruthTable],
    algorithms: Sequence[Algorithm],
    timeout: float,
    jobs: int,
    *,
    verbose: bool,
    log: CheckpointLog | None,
    done: dict,
    fault_plan: FaultPlan | None,
    max_retries: int,
    memory_limit_mb: int | None,
    store,
) -> list[SuiteReport]:
    """Scheduler-backed suite execution (see :func:`run_suite`)."""
    executors = {
        algorithm.name: _executor_for(
            algorithm,
            isolate=True,
            fault_plan=fault_plan,
            max_retries=max_retries,
            memory_limit_mb=memory_limit_mb,
            store=store,
        )
        for algorithm in algorithms
    }
    # One deterministic slot per (algorithm, function); checkpointed
    # slots are pre-filled, the rest become scheduler tasks.
    prefilled: dict[int, InstanceOutcome] = {}
    tasks: list[BatchTask] = []
    slot = 0
    for algorithm in algorithms:
        for function in functions:
            key = instance_key(
                suite_name, algorithm.name, function.to_hex()
            )
            record = done.get(key)
            if record is not None:
                prefilled[slot] = InstanceOutcome.from_record(record)
            else:
                tasks.append(
                    BatchTask(
                        index=slot,
                        algorithm=algorithm.name,
                        function=function,
                        timeout=timeout,
                        key=key,
                    )
                )
            slot += 1

    completed: dict[int, InstanceOutcome] = {}

    def on_complete(task: BatchTask, outcome, worker: int) -> None:
        instance = _to_instance_outcome(outcome, worker=worker)
        completed[task.index] = instance
        if log is not None:
            log.append(instance.to_record(task.key))

    progress = ProgressReporter(
        len(tasks), stream=sys.stderr if verbose else None
    )
    scheduler = BatchScheduler(
        executors,
        jobs,
        progress=progress,
        on_complete=on_complete,
    )
    # KeyboardInterrupt propagates from here; everything completed is
    # checkpointed via on_complete already.
    try:
        scheduler.run(tasks)
    finally:
        for executor in executors.values():
            executor.close()

    reports = []
    slot = 0
    for algorithm in algorithms:
        report = SuiteReport(algorithm.name, suite_name)
        reports.append(report)
        for _function in functions:
            outcome = prefilled.get(slot) or completed.get(slot)
            if outcome is None:  # pragma: no cover - scheduler contract
                raise RuntimeError(f"slot {slot} never completed")
            report.outcomes.append(outcome)
            slot += 1
    return reports


def _executor_for(
    algorithm: Algorithm,
    *,
    isolate: bool,
    fault_plan: FaultPlan | None,
    max_retries: int,
    memory_limit_mb: int | None,
    store=None,
):
    if algorithm.engines is not None:
        engines: Sequence = algorithm.engines
    else:
        if isolate:
            raise ValueError(
                f"algorithm {algorithm.name!r} has no named engine "
                "chain and cannot be process-isolated"
            )
        engines = [(algorithm.name.lower(), algorithm.run)]
    return FaultTolerantExecutor(
        engines,
        isolate=isolate,
        max_retries=max_retries,
        memory_limit_mb=memory_limit_mb,
        fault_plan=fault_plan,
        engine_kwargs=algorithm.engine_kwargs,
        store=store,
    )


def _run_instance(
    executor: FaultTolerantExecutor,
    function: TruthTable,
    timeout: float,
) -> InstanceOutcome:
    outcome = executor.run(function, timeout)
    return _to_instance_outcome(outcome)


def _to_instance_outcome(
    outcome: ExecutionOutcome, worker: int = -1
) -> InstanceOutcome:
    if outcome.solved:
        result = outcome.result
        return InstanceOutcome(
            outcome.function_hex,
            True,
            outcome.runtime,
            num_gates=result.num_gates,
            num_solutions=result.num_solutions,
            status="ok",
            engine=outcome.engine,
            fallback_from=outcome.fallback_from,
            worker=worker,
            exact=outcome.exact,
            store_quarantined=outcome.store_quarantined,
            stats=result.stats.to_record(),
        )
    if outcome.degraded:
        # The executor's graceful degradation: a verified upper bound
        # was served; solved stays False (exactness was not established)
        # but the chain's size is still worth recording.
        result = outcome.result
        return InstanceOutcome(
            outcome.function_hex,
            False,
            outcome.runtime,
            num_gates=result.num_gates,
            num_solutions=result.num_solutions,
            error=outcome.error,
            status="degraded",
            engine=outcome.engine,
            fallback_from=outcome.fallback_from,
            worker=worker,
            exact=False,
            store_quarantined=outcome.store_quarantined,
        )
    return InstanceOutcome(
        outcome.function_hex,
        False,
        outcome.runtime,
        error=outcome.error,
        status=outcome.status,
        engine=outcome.engine,
        fallback_from=outcome.fallback_from,
        worker=worker,
        exact=outcome.exact,
        store_quarantined=outcome.store_quarantined,
    )


def _print_progress(name: str, outcome: InstanceOutcome) -> None:
    if outcome.solved:
        status = f"{outcome.runtime:.3f}s g={outcome.num_gates}"
        if outcome.fallback_from:
            status += (
                f" [{outcome.engine}, fell back from "
                f"{outcome.fallback_from}]"
            )
    elif outcome.status == "degraded":
        status = (
            f"degraded: upper bound g<={outcome.num_gates} "
            f"[{outcome.engine}]"
        )
    elif outcome.error:
        status = f"{outcome.status or 't/o'} ({outcome.error})"
    else:
        status = outcome.status or "t/o"
    print(f"  [{name}] 0x{outcome.function_hex}: {status}")
