"""Parallel batch-synthesis scheduler.

Table-I style workloads are embarrassingly parallel across instances,
and every instance already runs (optionally) inside an isolated,
rlimit-capped worker process with a hard wall-clock kill
(:mod:`repro.runtime.worker`).  The scheduler exploits exactly that:
``jobs`` lightweight dispatcher threads pull tasks from a work queue
and drive one :class:`~repro.runtime.executor.FaultTolerantExecutor`
call each — the runtime's one resolve path (store lookup, lanes,
verify, write-back, degradation) — so at any moment at most ``jobs``
forked synthesis workers are alive, each with its own deadline,
retry/fallback chain, and memory cap, while the parent threads merely
block on worker pipes.
This reuses the whole fault-tolerance stack instead of a bare
``ProcessPoolExecutor`` (which has no per-task hard kill and dies with
its workers).

The scheduler has two lifecycles sharing one dispatch core:

* **One-shot** (:meth:`BatchScheduler.run`): the suite API.  Dispatch
  order is *longest-expected-first* (sorting by a cost heuristic
  shrinks the makespan tail), results are re-ordered to the caller's
  task order, and the pool is torn down when the batch completes.
* **Resident** (:meth:`start` / :meth:`submit` / :meth:`drain` /
  :meth:`shutdown`): the serving API.  Dispatcher threads stay alive
  across requests — no per-call pool spin-up — and each
  :meth:`submit` returns a :class:`concurrent.futures.Future` that an
  async front-end can await.  Dispatchers are **recycled** after
  ``recycle_after`` tasks (the thread exits and a fresh one takes over
  its slot) so reference leaks in engine code can never accumulate
  over a long-lived process.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..runtime.executor import ExecutionOutcome
from ..truthtable.table import TruthTable
from .dispatch import (
    PRIORITY_BANDS,
    SENTINEL_BAND,
    DeadlineExpired,
    DispatchQueue,
)
from .progress import ProgressReporter

__all__ = [
    "BatchTask",
    "WorkerStats",
    "BatchScheduler",
    "expected_cost",
]

_SENTINEL = None


@dataclass(frozen=True)
class BatchTask:
    """One (algorithm, function) unit of work in a batch."""

    index: int
    algorithm: str
    function: TruthTable
    timeout: float
    #: Checkpoint identity; empty when the batch is not checkpointed.
    key: str = ""

    @property
    def label(self) -> str:
        return f"{self.algorithm} 0x{self.function.to_hex()}"


@dataclass
class WorkerStats:
    """Per-dispatcher-slot fault/timeout accounting.

    A slot survives thread recycling: the replacement dispatcher keeps
    accumulating into the same record, so per-slot totals describe the
    slot's whole service life, not one thread incarnation.
    """

    worker: int
    tasks: int = 0
    solved: int = 0
    timeouts: int = 0
    crashes: int = 0
    #: Instances served as a non-exact upper bound after every exact
    #: engine exhausted its budget (the executor's degrade step).
    degraded: int = 0
    #: Queued jobs answered as deadline-expired without executing.
    expired: int = 0
    #: Times this slot's dispatcher thread was recycled.
    recycled: int = 0
    busy_seconds: float = 0.0

    def record(self, outcome: ExecutionOutcome, seconds: float) -> None:
        self.tasks += 1
        self.busy_seconds += seconds
        if outcome.solved:
            self.solved += 1
        elif outcome.status == "degraded":
            self.degraded += 1
        elif outcome.status == "timeout":
            self.timeouts += 1
        else:
            self.crashes += 1

    def record_crash(self, seconds: float) -> None:
        """An attempt that raised instead of returning an outcome."""
        self.tasks += 1
        self.busy_seconds += seconds
        self.crashes += 1

    def to_record(self) -> dict:
        """JSON-safe summary for batch reports."""
        return {
            "worker": self.worker,
            "tasks": self.tasks,
            "solved": self.solved,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "degraded": self.degraded,
            "expired": self.expired,
            "recycled": self.recycled,
            "busy_seconds": round(self.busy_seconds, 6),
        }


def expected_cost(function: TruthTable) -> tuple[int, int]:
    """Heuristic ordering key: larger means expected-slower.

    Support size dominates (topology families and CNF sizes grow with
    it); within a support size, functions with balanced on/off sets
    tend to need more gates than near-constant ones.  The heuristic
    only shapes the schedule — correctness never depends on it.
    """
    ones = function.count_ones()
    balance = min(ones, function.num_rows - ones)
    return (function.support_size(), balance)


class _Job:
    """One queued unit of dispatcher work."""

    __slots__ = ("label", "fn", "future", "task", "band", "deadline")

    def __init__(
        self,
        label: str,
        fn: Callable[[], ExecutionOutcome],
        task: BatchTask | None = None,
        band: int = PRIORITY_BANDS["normal"],
        deadline: float | None = None,
    ) -> None:
        self.label = label
        self.fn = fn
        self.future: Future = Future()
        self.task = task
        self.band = band
        self.deadline = deadline


class BatchScheduler:
    """Shard synthesis tasks across ``jobs`` concurrent executors.

    Parameters
    ----------
    executors:
        One executor per algorithm name — anything with the
        ``run(function, timeout) -> ExecutionOutcome`` contract, i.e.
        :class:`~repro.runtime.executor.FaultTolerantExecutor` with
        either lane scheduler (a sequential walk or a race).
        Executors are shared across dispatcher threads;
        `FaultTolerantExecutor` keeps all per-run state on the stack,
        so this is safe (``last_cancellations`` is the only
        cross-thread race, and it is advisory accounting only).
    jobs:
        Number of dispatcher threads = maximum concurrently-alive
        synthesis workers.
    queue_depth:
        Bound on the work queue (default ``2 × jobs``): submitters
        block instead of materialising the whole suite in the queue.
        ``0`` makes the queue unbounded — the serving layer does its
        own load shedding on :meth:`backlog` instead of blocking its
        event loop.
    progress:
        Optional :class:`ProgressReporter` ticked on every completion.
    on_complete:
        Optional callback ``(task, outcome, worker_id)`` invoked
        (serialized under one lock) as each instance finishes — the
        bench runner hooks checkpoint appends here.  Only jobs carrying
        a :class:`BatchTask` reach it.
    """

    def __init__(
        self,
        executors: Mapping[str, object],
        jobs: int,
        *,
        queue_depth: int | None = None,
        progress: ProgressReporter | None = None,
        on_complete: Callable[[BatchTask, ExecutionOutcome, int], None]
        | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._executors = dict(executors)
        self._jobs = jobs
        if queue_depth is None:
            queue_depth = max(2, 2 * jobs)
        self._queue_depth = queue_depth
        self._progress = progress
        self._on_complete = on_complete
        self._complete_lock = threading.Lock()
        self.worker_stats: list[WorkerStats] = []
        # Resident-pool state (all None/empty until start()).
        self._queue: DispatchQueue | None = None
        self._threads: dict[int, threading.Thread] = {}
        self._threads_lock = threading.Lock()
        self._stop = threading.Event()
        self._accepting = False
        self._stop_on_error = False
        self._recycle_after: int | None = None
        self._errors: list[BaseException] = []
        self._pending = 0
        self._pending_cv = threading.Condition()

    # ------------------------------------------------------------------
    # resident lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True while a dispatcher pool is alive."""
        return self._queue is not None

    @property
    def jobs(self) -> int:
        """Number of dispatcher slots."""
        return self._jobs

    def start(
        self,
        *,
        recycle_after: int | None = None,
        stop_on_error: bool = False,
    ) -> "BatchScheduler":
        """Bring up the resident dispatcher pool.

        ``recycle_after`` replaces each dispatcher thread after it has
        handled that many tasks (leak hygiene for week-long serving
        processes).  ``stop_on_error`` is the one-shot suite semantic —
        the first executor exception cancels everything still queued;
        resident serving leaves it off so one poisoned request cannot
        take the pool down.
        """
        if self.started:
            raise RuntimeError("scheduler already started")
        if recycle_after is not None and recycle_after < 1:
            raise ValueError("recycle_after must be >= 1")
        self._queue = DispatchQueue(maxsize=self._queue_depth)
        self._stop = threading.Event()
        self._accepting = True
        self._stop_on_error = stop_on_error
        self._recycle_after = recycle_after
        self._errors = []
        self._pending = 0
        self.worker_stats = [WorkerStats(i) for i in range(self._jobs)]
        with self._threads_lock:
            for slot in range(self._jobs):
                self._spawn(slot)
        return self

    def _spawn(self, slot: int) -> None:
        """Start (or replace) the dispatcher thread for ``slot``.

        Caller holds ``_threads_lock``.
        """
        thread = threading.Thread(
            target=self._dispatch,
            args=(slot,),
            name=f"batch-worker-{slot}",
            daemon=True,
        )
        self._threads[slot] = thread
        thread.start()

    def submit(self, task: BatchTask) -> Future:
        """Queue one batch task; returns a future for its outcome.

        The future resolves to the task's
        :class:`~repro.runtime.executor.ExecutionOutcome`; an executor
        that *raises* (a bug — the fault-tolerant contract is to
        return failed outcomes) surfaces as the future's exception.
        """
        if task.algorithm not in self._executors:
            raise ValueError(
                f"no executor for algorithm {task.algorithm!r}"
            )
        executor = self._executors[task.algorithm]

        def fn() -> ExecutionOutcome:
            return executor.run(task.function, task.timeout)

        return self._enqueue(_Job(task.label, fn, task))

    def submit_call(
        self,
        label: str,
        fn: Callable[[], ExecutionOutcome],
        *,
        priority: int = PRIORITY_BANDS["normal"],
        deadline: float | None = None,
    ) -> Future:
        """Queue an arbitrary synthesis closure on the pool.

        The serving layer uses this for work that is not a plain
        ``(algorithm, function)`` pair — e.g. multi-output specs, or a
        canonical-representative synthesis shared by coalesced
        requests.  ``fn`` runs on a dispatcher thread and its return
        value resolves the future.

        ``priority`` is a dispatch band (smaller = dispatched first)
        and ``deadline`` an absolute ``time.monotonic()`` instant: the
        queue dispatches earliest-deadline-first within a band, and a
        job still queued past its deadline resolves its future with
        :class:`~repro.parallel.dispatch.DeadlineExpired` without ever
        occupying a worker.
        """
        return self._enqueue(
            _Job(label, fn, band=priority, deadline=deadline)
        )

    def _enqueue(self, job: _Job) -> Future:
        work = self._queue
        if work is None or not self._accepting:
            raise RuntimeError("scheduler is not accepting work")
        with self._pending_cv:
            self._pending += 1
        # A timeout loop instead of a blocking put keeps submitters
        # responsive to shutdown — a dead pool must not wedge callers
        # on a full queue.
        while True:
            if self._stop.is_set():
                self._cancel_job(job)
                return job.future
            try:
                work.put(
                    job,
                    band=job.band,
                    deadline=job.deadline,
                    timeout=0.1,
                )
                return job.future
            except queue.Full:
                continue

    def backlog(self) -> int:
        """Jobs submitted but not yet finished (queued + in flight)."""
        with self._pending_cv:
            return self._pending

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted job has finished.

        Returns False if ``timeout`` elapsed first.  Does not stop the
        pool — pair with :meth:`shutdown` for teardown, or keep
        serving after the queue empties.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._pending_cv:
            while self._pending > 0:
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._pending_cv.wait(timeout=remaining)
        return True

    def shutdown(self, *, cancel_queued: bool = False) -> None:
        """Stop the pool: no new work, dispatchers exit after the queue.

        With ``cancel_queued`` the queue is discarded (futures cancel)
        instead of being worked off first.  Idempotent; safe from any
        thread except a dispatcher's own.
        """
        work = self._queue
        if work is None:
            return
        self._accepting = False
        if cancel_queued:
            self._stop.set()
            self._cancel_queued(work)
        # One sentinel per slot; recycling is disabled once accepting
        # is off, so each sentinel retires exactly one dispatcher.
        # Sentinels ride the lowest-urgency band so dispatchers only
        # see them once every real job has been worked off.
        for _ in range(self._jobs):
            while True:
                try:
                    work.put(
                        _SENTINEL, band=SENTINEL_BAND, timeout=0.1
                    )
                    break
                except queue.Full:  # pragma: no cover - timing dependent
                    if self._stop.is_set():
                        self._cancel_queued(work)
        while True:
            with self._threads_lock:
                threads = list(self._threads.values())
            alive = [t for t in threads if t.is_alive()]
            if not alive:
                break
            for thread in alive:
                thread.join(timeout=0.2)
        with self._threads_lock:
            self._threads.clear()
        self._queue = None

    def _cancel_queued(self, work: DispatchQueue) -> None:
        """Drop queued jobs, cancelling their futures."""
        while True:
            try:
                job = work.get_nowait()
            except queue.Empty:
                return
            if job is not _SENTINEL:
                self._cancel_job(job)

    def _cancel_job(self, job: _Job) -> None:
        """Resolve a never-run job as cancelled.

        ``cancel()`` alone leaves the future merely CANCELLED;
        ``set_running_or_notify_cancel()`` moves it to
        CANCELLED_AND_NOTIFIED so waiters (``concurrent.futures.wait``,
        ``asyncio.wrap_future``) actually wake up.
        """
        job.future.cancel()
        job.future.set_running_or_notify_cancel()
        self._job_done()

    def _job_done(self) -> None:
        with self._pending_cv:
            self._pending -= 1
            if self._pending <= 0:
                self._pending_cv.notify_all()

    # ------------------------------------------------------------------
    # one-shot suite API (thin wrapper over the resident pool)
    # ------------------------------------------------------------------
    def run(
        self, tasks: Sequence[BatchTask]
    ) -> list[ExecutionOutcome | None]:
        """Execute every task; returns outcomes in *task-list order*.

        Dispatch order is longest-expected-first, but the returned
        list lines up index-for-index with ``tasks``, so callers see a
        deterministic order regardless of ``jobs``.  A
        ``KeyboardInterrupt`` stops feeding, lets in-flight instances
        finish (their hard timeouts still apply), and re-raises;
        completed outcomes up to that point are visible only via
        ``on_complete`` side effects.  The first executor exception
        cancels the rest of the batch and re-raises here.
        """
        indexes = {task.index for task in tasks}
        if len(indexes) != len(tasks):
            raise ValueError("task indexes must be unique")
        for task in tasks:
            if task.algorithm not in self._executors:
                raise ValueError(
                    f"no executor for algorithm {task.algorithm!r}"
                )
        if not tasks:
            return []
        order = sorted(
            tasks,
            key=lambda t: (expected_cost(t.function), -t.index),
            reverse=True,
        )
        self.start(stop_on_error=True)
        futures: dict[int, Future] = {}
        interrupted: BaseException | None = None
        try:
            for task in order:
                futures[task.index] = self.submit(task)
                if self._stop.is_set():
                    break
            # Short-timeout polling keeps the main thread responsive
            # to Ctrl-C while dispatcher threads work the queue.
            unresolved = set(futures.values())
            while unresolved:
                _done, unresolved = _wait_futures(
                    unresolved, timeout=0.2
                )
        except KeyboardInterrupt as exc:
            interrupted = exc
            self._stop.set()
        finally:
            self.shutdown(cancel_queued=self._stop.is_set())
        if interrupted is not None:
            raise interrupted
        if self._errors:
            raise self._errors[0]
        results: list[ExecutionOutcome | None] = []
        for task in tasks:
            future = futures.get(task.index)
            if (
                future is None
                or future.cancelled()
                or future.exception() is not None
            ):
                results.append(None)
            else:
                results.append(future.result())
        return results

    # ------------------------------------------------------------------
    # dispatcher internals
    # ------------------------------------------------------------------
    def _dispatch(self, slot: int) -> None:
        stats = self.worker_stats[slot]
        work = self._queue
        handled = 0
        while True:
            job, lapsed = work.get()
            if job is _SENTINEL:
                return
            if self._stop.is_set():
                self._cancel_job(job)
                continue  # drain without executing
            if not job.future.set_running_or_notify_cancel():
                self._job_done()
                continue
            if lapsed:
                # Deadline lapsed while queued: answer in O(1), never
                # occupy this worker with the actual synthesis.
                stats.expired += 1
                job.future.set_exception(
                    DeadlineExpired(
                        f"{job.label}: deadline lapsed in queue"
                    )
                )
                self._job_done()
                continue
            started = time.perf_counter()
            try:
                outcome = job.fn()
            except BaseException as exc:
                stats.record_crash(time.perf_counter() - started)
                self._errors.append(exc)
                if self._stop_on_error:
                    self._stop.set()
                job.future.set_exception(exc)
                self._job_done()
                continue
            elapsed = time.perf_counter() - started
            # submit_call closures may return arbitrary values; only
            # real outcomes feed the status-specific accounting.
            is_outcome = isinstance(outcome, ExecutionOutcome)
            if is_outcome:
                stats.record(outcome, elapsed)
            else:
                stats.tasks += 1
                stats.busy_seconds += elapsed
            with self._complete_lock:
                if self._on_complete is not None and job.task is not None:
                    try:
                        self._on_complete(job.task, outcome, slot)
                    except BaseException as exc:
                        self._errors.append(exc)
                        if self._stop_on_error:
                            self._stop.set()
                        job.future.set_exception(exc)
                        self._job_done()
                        continue
                if self._progress is not None:
                    status = "done"
                    if is_outcome:
                        status = outcome.status + (
                            f" {outcome.runtime:.3f}s"
                            if outcome.solved
                            else ""
                        )
                    self._progress.tick(job.label, status, slot)
            job.future.set_result(outcome)
            self._job_done()
            handled += 1
            if (
                self._recycle_after is not None
                and handled >= self._recycle_after
                and self._accepting
                and not self._stop.is_set()
            ):
                stats.recycled += 1
                with self._threads_lock:
                    # Shutdown may have flipped _accepting since the
                    # check; a sentinel posted before the replacement
                    # starts is still consumed by it, so the handoff
                    # is race-free either way.
                    self._spawn(slot)
                return
