"""Resident process-isolated synthesis workers with hard wall-clock
timeouts.

The cooperative :class:`~repro.core.spec.Deadline` is only as reliable
as the hottest loop's polling discipline.  This module provides the
uncooperative backstop: the engine runs in a child process, the parent
waits at most ``DEFAULT_GRACE × budget`` for a result, and a worker
that is still running past that point is killed outright.  A killed or
crashed worker surfaces as a structured :class:`BudgetExceeded` /
:class:`WorkerCrash` instead of wedging the suite.

Workers are **resident**: a forked worker serves one
:class:`WorkerTask` after another over a duplex pipe, so its engine
memos (topology families, factorizations) stay warm from one instance
to the next.  A :class:`WorkerPool` leases them out one attempt at a
time and forks a new one only when none is idle.  A worker goes back
to the pool only after an ``ok``, ``infeasible`` or ``unavailable``
report; any other ending — a cooperative or hard timeout, a crash
report, a death without a report, an interrupt — retires it
(kill, then reap), so a timed-out search never leaves half-built memos
behind and the next attempt starts in a fresh fork.  A worker sees the
parent's state as it was at its fork.

An optional ``resource.setrlimit(RLIMIT_AS)`` cap, applied inside the
worker, turns pathological memory growth into a clean in-worker
``MemoryError`` (reported as a crash, which retires the worker) rather
than an OOM-killed test host.  The cap covers the worker's whole life,
not one task.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from ..core.spec import SynthesisResult
from ..engine import run_engine
from ..truthtable.table import TruthTable
from .errors import (
    BudgetExceeded,
    EngineUnavailable,
    SynthesisInfeasible,
    WorkerCrash,
)
from .faults import FaultSpec, execute_fault

__all__ = [
    "WorkerTask",
    "WorkerHandle",
    "WorkerPool",
    "run_isolated",
    "DEFAULT_GRACE",
]

#: Hard-kill multiplier: a worker is allowed ``DEFAULT_GRACE × budget``
#: seconds of wall clock before the parent kills it.  1.4 keeps the
#: guarantee "killed within 1.5× its budget" with margin for kill/join
#: overhead.
DEFAULT_GRACE = 1.4

#: Floor on the hard timeout so tiny budgets still cover process
#: start-up on slow machines.
_MIN_HARD_TIMEOUT = 0.25

#: Reports after which a worker is clean enough to serve another task.
_REUSABLE = frozenset({"ok", "infeasible", "unavailable"})

#: Serializes pipe creation, fork and the parent's close of the child
#: end.  A fork by another thread inside that window would inherit the
#: child end, and the first worker's death would then show as EOF only
#: once that sibling exits.
_FORK_LOCK = threading.Lock()


@dataclass(frozen=True)
class WorkerTask:
    """A picklable description of one isolated synthesis attempt."""

    engine: str
    bits: int
    num_vars: int
    timeout: float | None
    engine_kwargs: dict = field(default_factory=dict)
    fault: FaultSpec | None = None
    memory_limit_mb: int | None = None

    def function(self) -> TruthTable:
        """Reconstruct the target truth table."""
        return TruthTable(self.bits, self.num_vars)


def _apply_memory_limit(limit_mb: int) -> None:
    import resource

    limit = limit_mb * 1024 * 1024
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _report(task: WorkerTask) -> tuple[str, object]:
    """Run one task (the engine, or an injected fault) in the worker.

    Returns ``("ok", SynthesisResult)`` or ``(status, message)`` for a
    structured failure.
    """
    try:
        if task.memory_limit_mb is not None:
            _apply_memory_limit(task.memory_limit_mb)
        function = task.function()
        if task.fault is not None:
            result = execute_fault(
                task.fault, function, task.timeout, isolated=True
            )
        else:
            result = run_engine(
                task.engine, function, task.timeout, **task.engine_kwargs
            )
        return "ok", result
    except BudgetExceeded as exc:
        return "timeout", str(exc)
    except SynthesisInfeasible as exc:
        return "infeasible", str(exc)
    except EngineUnavailable as exc:
        return "unavailable", str(exc)
    except MemoryError:
        return "crash", "worker exceeded its memory cap"
    except Exception as exc:
        return "crash", f"{type(exc).__name__}: {exc}"


def _serve(conn, parent_end) -> None:
    """Worker entry point: answer tasks until a stop message or EOF.

    Every task gets exactly one ``(tag, payload)`` report.  Anything
    that prevents it (hard kill, ``os._exit``, rlimit SIGKILL) is seen
    by the parent as EOF.  ``None`` is the stop message.
    """
    # The parent's end was inherited by the fork; holding it would hide
    # the parent's death from this worker's recv().
    parent_end.close()
    # Ctrl-C is the parent's to handle: it kills the workers it leased.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        report = _report(task)
        try:
            conn.send(report)
        except OSError:  # the parent is gone
            return
        except Exception as exc:
            conn.send(("crash", f"unpicklable worker result: {exc}"))


def _context():
    """Prefer fork (fast, inherits the warm interpreter) over spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class _Worker:
    """One resident worker process and the parent's end of its pipe."""

    def __init__(self) -> None:
        ctx = _context()
        with _FORK_LOCK:
            self.conn, child_conn = ctx.Pipe()
            self.process = ctx.Process(
                target=_serve, args=(child_conn, self.conn), daemon=True
            )
            self.process.start()
            child_conn.close()

    def retire(self) -> None:
        """Kill (if still running) and reap; idempotent."""
        self.conn.close()
        if self.process.is_alive():
            _kill(self.process)
        else:
            self.process.join(timeout=5.0)

    def stop(self) -> None:
        """Ask an idle worker to exit, then reap it.

        Later forks hold copies of this pipe's parent end, so closing
        it would never reach the worker as EOF: stop explicitly.
        """
        try:
            self.conn.send(None)
        except OSError:  # already dead: the retire below reaps it
            pass
        self.process.join(timeout=1.0)
        self.retire()


class WorkerPool:
    """Resident workers leased one isolated attempt at a time.

    :meth:`lease` hands out an idle worker, forking a new one only when
    none is idle, so the pool grows to the number of attempts that ever
    ran at once and never beyond.  :meth:`close` stops the idle
    workers; one still leased is stopped when it comes back.  Closing
    is idempotent, and a closed pool still serves leases (each forks,
    and each worker is stopped on return).
    """

    def __init__(self) -> None:
        self._idle: list[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False
        self._owner = os.getpid()

    def lease(self) -> _Worker:
        while True:
            with self._lock:
                if not self._idle:
                    break
                worker = self._idle.pop()
            if worker.process.is_alive():
                return worker
            worker.retire()  # died while idle
        return _Worker()

    def release(self, worker: _Worker) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(worker)
                return
        worker.stop()

    def close(self) -> None:
        if os.getpid() != self._owner:
            # A worker's copy of its parent's pool (a garbage collection
            # in the worker can finalize it): the workers are not its.
            return
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.stop()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class WorkerHandle:
    """One in-flight isolated synthesis attempt on a leased worker.

    The constructor leases a worker from ``pool`` (forking one when
    none is idle) and sends it ``task``; the parent then blocks in
    :meth:`result` (the ``run_isolated`` behaviour).  However the
    attempt ends, the worker is either back in the pool (after an
    ``ok``, ``infeasible`` or ``unavailable`` report) or killed and
    reaped: a handle never leaks a zombie.
    """

    def __init__(self, task: WorkerTask, pool: WorkerPool) -> None:
        self.task = task
        self._pool = pool
        # The hard deadline is measured from *before* the lease so a
        # fork's start-up cannot push the kill past
        # DEFAULT_GRACE × budget.
        self._start = time.perf_counter()
        self._worker = pool.lease()
        try:
            self._worker.conn.send(task)
        except OSError:  # a dead worker: result() reports it as EOF
            pass
        except BaseException:  # an unpicklable task or an interrupt
            self._worker.retire()
            raise
        self._hard_deadline: float | None = None
        if task.timeout is not None:
            self._hard_deadline = self._start + max(
                task.timeout * DEFAULT_GRACE, _MIN_HARD_TIMEOUT
            )
        self._closed = False

    @property
    def pid(self) -> int | None:
        return self._worker.process.pid

    @property
    def elapsed(self) -> float:
        """Seconds since the attempt was leased its worker."""
        return time.perf_counter() - self._start

    def result(self) -> SynthesisResult:
        """Collect the worker's report (the ``run_isolated`` contract).

        Blocks until the worker reports, crashes, or exceeds the hard
        timeout.  On return the worker is back in the pool or retired,
        per the module's lease rules.
        """
        timeout_arg: float | None = None
        if self._hard_deadline is not None:
            timeout_arg = max(
                0.0, self._hard_deadline - time.perf_counter()
            )
        try:
            tag, payload = self._receive(timeout_arg)
        except BaseException:
            self.cancel()
            raise
        if tag in _REUSABLE:
            self._closed = True
            self._pool.release(self._worker)
        else:
            self.cancel()

        if tag == "ok":
            return payload
        if tag == "infeasible":
            raise SynthesisInfeasible(payload)
        if tag == "unavailable":
            raise EngineUnavailable(payload)
        if tag == "killed":
            raise BudgetExceeded(
                f"worker for engine {self.task.engine!r} "
                f"exceeded its {self.task.timeout:.3f}s budget "
                f"and was killed after {self.elapsed:.3f}s",
                budget=self.task.timeout,
                elapsed=self.elapsed,
            )
        if tag == "timeout":
            raise BudgetExceeded(payload, budget=self.task.timeout)
        exitcode = self._worker.process.exitcode
        if tag == "died":
            raise WorkerCrash(
                f"worker for engine {self.task.engine!r} died without "
                f"reporting (exit code {exitcode})",
                exitcode=exitcode,
            )
        raise WorkerCrash(payload, exitcode=exitcode)

    def _receive(self, timeout: float | None) -> tuple[str, object]:
        """The worker's report, ``("killed", None)`` for a worker still
        running at ``timeout``, or ``("died", None)`` for EOF."""
        conn = self._worker.conn
        try:
            if conn.poll(timeout):
                return conn.recv()
        except (EOFError, OSError):
            return "died", None
        if self._worker.process.is_alive():
            return "killed", None
        return "died", None

    def cancel(self) -> None:
        """Retire the worker: kill and reap it.

        Idempotent, and a no-op once the worker went back to the pool.
        """
        if not self._closed:
            self._closed = True
            self._worker.retire()


def run_isolated(
    task: WorkerTask, pool: WorkerPool | None = None
) -> SynthesisResult:
    """Run one synthesis attempt on a worker leased from ``pool``.

    Blocks until the worker reports, crashes, or exceeds the hard
    timeout ``max(DEFAULT_GRACE × timeout, 0.25s)``; a worker still
    alive at that point is killed and reported as
    :class:`BudgetExceeded`.  Without a ``pool`` the attempt gets a
    pool of its own, closed when it returns.
    """
    if pool is not None:
        return WorkerHandle(task, pool).result()
    with WorkerPool() as own:
        return WorkerHandle(task, own).result()


def _kill(process) -> None:
    """Terminate, escalate to SIGKILL, and reap a stuck worker."""
    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():  # pragma: no cover - terminate usually lands
        process.kill()
        process.join(timeout=5.0)
