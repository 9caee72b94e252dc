"""Process-isolated synthesis workers with hard wall-clock timeouts.

The cooperative :class:`~repro.core.spec.Deadline` is only as reliable
as the hottest loop's polling discipline.  This module provides the
uncooperative backstop: the engine runs in a child process, the parent
waits at most ``DEFAULT_GRACE × budget`` for a result, and a worker
that is still running past that point is killed outright.  A killed or
crashed worker surfaces as a structured :class:`BudgetExceeded` /
:class:`WorkerCrash` instead of wedging the suite.

An optional ``resource.setrlimit(RLIMIT_AS)`` cap turns pathological
memory growth into a clean in-child ``MemoryError`` (reported as a
crash) rather than an OOM-killed test host.
"""

from __future__ import annotations

import multiprocessing
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

__all__ = ["WorkerTask", "WorkerHandle", "run_isolated", "DEFAULT_GRACE"]

#: Hard-kill multiplier: a worker is allowed ``DEFAULT_GRACE × budget``
#: seconds of wall clock before the parent kills it.  1.4 keeps the
#: guarantee "killed within 1.5× its budget" with margin for kill/join
#: overhead.
DEFAULT_GRACE = 1.4

#: Floor on the hard timeout so tiny budgets still cover process
#: start-up on slow machines.
_MIN_HARD_TIMEOUT = 0.25


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


def _child_main(task: WorkerTask, conn) -> None:
    """Worker entry point: run the engine (or a fault) and report back.

    The protocol is a single ``(tag, payload)`` tuple: ``("ok",
    SynthesisResult)`` or ``(status, message)`` for structured
    failures.  Anything that prevents even that handshake (hard kill,
    ``os._exit``, rlimit SIGKILL) is detected by the parent as EOF.
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
        try:
            conn.send(("ok", result))
        except Exception as exc:
            conn.send(("crash", f"unpicklable worker result: {exc}"))
    except BudgetExceeded as exc:
        conn.send(("timeout", str(exc)))
    except SynthesisInfeasible as exc:
        conn.send(("infeasible", str(exc)))
    except EngineUnavailable as exc:
        conn.send(("unavailable", str(exc)))
    except MemoryError:
        conn.send(("crash", "worker exceeded its memory cap"))
    except Exception as exc:
        conn.send(("crash", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _context():
    """Prefer fork (fast, inherits the warm interpreter) over spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class WorkerHandle:
    """One in-flight isolated synthesis attempt.

    The constructor forks the worker immediately; the parent then
    either blocks in :meth:`result` (the historical ``run_isolated``
    behaviour) or drives several handles concurrently via the
    non-blocking :meth:`ready` / :meth:`overdue` pair — the racing
    executor's polling loop.  However the race ends, :meth:`cancel`
    (or the ``finally`` path of :meth:`result`) guarantees the child
    is killed and reaped: a handle never leaks a zombie.
    """

    def __init__(self, task: WorkerTask) -> None:
        self.task = task
        ctx = _context()
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self._process = ctx.Process(
            target=_child_main, args=(task, child_conn), daemon=True
        )
        # The hard deadline is measured from *before* the fork so
        # process start-up overhead cannot push the kill past
        # DEFAULT_GRACE × budget.
        self._start = time.perf_counter()
        self._process.start()
        child_conn.close()
        self._hard_deadline: float | None = None
        if task.timeout is not None:
            self._hard_deadline = self._start + max(
                task.timeout * DEFAULT_GRACE, _MIN_HARD_TIMEOUT
            )
        self._closed = False

    # -- introspection -------------------------------------------------
    @property
    def engine(self) -> str:
        return self.task.engine

    @property
    def pid(self) -> int | None:
        return self._process.pid

    @property
    def elapsed(self) -> float:
        """Seconds since the worker was forked."""
        return time.perf_counter() - self._start

    def alive(self) -> bool:
        """True while the child process is running."""
        return not self._closed and self._process.is_alive()

    # -- non-blocking polling (racing) ---------------------------------
    def ready(self) -> bool:
        """True when a report can be collected without blocking.

        Covers both a delivered message and a child that died without
        reporting (EOF on the pipe).
        """
        if self._closed:
            return False
        try:
            if self._conn.poll(0):
                return True
        except (OSError, ValueError):  # pragma: no cover - closed pipe
            return True
        return not self._process.is_alive()

    def overdue(self) -> bool:
        """True once the hard wall-clock deadline has passed."""
        return (
            not self._closed
            and self._hard_deadline is not None
            and time.perf_counter() > self._hard_deadline
        )

    # -- collection ----------------------------------------------------
    def result(self, block: bool = True) -> SynthesisResult:
        """Collect the worker's report (the ``run_isolated`` contract).

        Blocks until the worker reports, crashes, or exceeds the hard
        timeout; with ``block=False`` the report must already be
        :meth:`ready`.  Always kills and reaps the child on exit.
        """
        timeout_arg: float | None = 0 if not block else None
        if block and self._hard_deadline is not None:
            timeout_arg = max(
                0.0, self._hard_deadline - time.perf_counter()
            )
        try:
            if not self._conn.poll(timeout_arg):
                if self._process.is_alive():
                    _kill(self._process)
                    raise BudgetExceeded(
                        f"worker for engine {self.task.engine!r} "
                        f"exceeded its {self.task.timeout:.3f}s budget "
                        f"and was killed after {self.elapsed:.3f}s",
                        budget=self.task.timeout,
                        elapsed=self.elapsed,
                    )
                raise EOFError
            tag, payload = self._conn.recv()
        except EOFError:
            self._process.join(timeout=5.0)
            raise WorkerCrash(
                f"worker for engine {self.task.engine!r} died without "
                f"reporting (exit code {self._process.exitcode})",
                exitcode=self._process.exitcode,
            ) from None
        finally:
            self.close()

        if tag == "ok":
            return payload
        if tag == "timeout":
            raise BudgetExceeded(payload, budget=self.task.timeout)
        if tag == "infeasible":
            raise SynthesisInfeasible(payload)
        if tag == "unavailable":
            raise EngineUnavailable(payload)
        raise WorkerCrash(payload, exitcode=self._process.exitcode)

    def cancel(self) -> float:
        """Kill and reap the worker; returns the kill-to-reap latency.

        Idempotent, and safe to call on an already-finished worker (a
        plain reap, near-zero latency).  This is the racing executor's
        loser path, so the returned latency is the per-loser
        cancellation accounting.
        """
        started = time.perf_counter()
        if not self._closed:
            if self._process.is_alive():
                _kill(self._process)
            self.close()
        return time.perf_counter() - started

    def close(self) -> None:
        """Close the pipe and reap the child (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        if self._process.is_alive():
            _kill(self._process)
        else:
            self._process.join(timeout=5.0)


def run_isolated(task: WorkerTask) -> SynthesisResult:
    """Run one synthesis attempt in a worker process.

    Blocks until the worker reports, crashes, or exceeds the hard
    timeout ``max(DEFAULT_GRACE × timeout, 0.25s)``; a worker still alive at
    that point is killed and reported as :class:`BudgetExceeded`.
    """
    return WorkerHandle(task).result()


def _kill(process) -> None:
    """Terminate, escalate to SIGKILL, and reap a stuck worker."""
    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():  # pragma: no cover - terminate usually lands
        process.kill()
        process.join(timeout=5.0)
