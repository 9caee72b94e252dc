"""Fault-tolerant synthesis execution: the one resolve path.

:class:`FaultTolerantExecutor` is the single choke point every entry
point (CLI, bench runner, rewriter, serving layer) routes synthesis
through.  One ``run()`` call resolves one truth table, and
turns any per-instance disaster — a hung loop, a crashed worker, a
corrupt result, a missing engine — into a recorded
:class:`ExecutionOutcome` instead of an aborted run.  The
steps always run in this order:

1. **lookup** — an exact store row is served through the inverse NPN
   transform (``engine == "store"``); quarantined rows are counted.
   With ``pick`` the store serves only the chain that NPN-invariant
   cost chooses (:meth:`~repro.store.ChainStore.lookup`);
2. **walk** — the engine lanes, most preferred first, as a fallback
   chain, in-process (cooperative deadline) or process-isolated (hard
   kill).  Every search starts at the support bound.  Crashes are
   retried with exponential backoff (:data:`BACKOFF`,
   :data:`BACKOFF_FACTOR`), a timeout or an exact engine's
   ``infeasible`` ends the walk (an inexact engine's passes to the
   next lane), and the first verified answer wins;
3. **verify** — every chain of an answer must have one output and
   simulate to the requested table (one packed simulation of the
   whole solution set), else the attempt counts as
   ``crash``/``corrupt``;
4. **write-back** — answers are stored graded by the answering engine's
   exactness; an exact row is the store's only record of optimality;
5. **degrade** — when every lane of the walk failed, the store's best
   verified upper bound is served (``status == "degraded"``,
   ``exact=False``).  An exact engine's ``infeasible`` is an answer
   and is never degraded.

Timeouts are budgeted across the whole run: a fallback engine only gets
the budget its predecessors left behind.  Store failures never fail a
run; each one is counted in :attr:`ExecutionOutcome.store_errors`.

Every isolated attempt — one :func:`~repro.runtime.worker.run_isolated`
call — leases a resident worker from the executor's one
:class:`~repro.runtime.worker.WorkerPool`, which forks lazily, on the
first isolated attempt.  :meth:`FaultTolerantExecutor.close` (or leaving
a ``with`` block) stops the idle workers; an executor nobody closes
stops them when it is garbage-collected.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.spec import Deadline, SynthesisResult
from ..engine import engine_capabilities, run_engine
from ..kernels import check_solution_set
from ..truthtable.table import TruthTable
from .errors import (
    EngineUnavailable,
    VerificationFailed,
    WorkerCrash,
    classify_failure,
)
from .faults import FaultPlan, execute_fault
from .worker import WorkerPool, WorkerTask, run_isolated

__all__ = [
    "AttemptRecord",
    "BACKOFF",
    "BACKOFF_FACTOR",
    "DEFAULT_FALLBACK_CHAIN",
    "ExecutionOutcome",
    "FaultTolerantExecutor",
    "format_trail",
]

#: The paper-motivated degradation order: the STP factorization engine
#: first, the CNF fence-solver baseline as the fallback of last resort.
DEFAULT_FALLBACK_CHAIN: tuple[str, ...] = ("stp", "fen")

#: The first pause before a crashed engine is retried, in seconds.
BACKOFF = 0.05

#: Each further retry of the same engine waits this much longer.
BACKOFF_FACTOR = 2.0


@dataclass
class AttemptRecord:
    """One engine attempt inside a ``run()`` call."""

    engine: str
    attempt: int
    status: str
    runtime: float
    error: str = ""
    error_class: str = ""
    fault: str = ""

    def to_record(self) -> dict:
        return {
            "engine": self.engine,
            "attempt": self.attempt,
            "status": self.status,
            "runtime": round(self.runtime, 6),
            "error": self.error,
            "error_class": self.error_class,
            "fault": self.fault,
        }


def format_trail(trail: Sequence[AttemptRecord]) -> list[str]:
    """Human-readable fallback trail, one line per hop.

    Every hop names the engine, the error *class* (exception type, or
    the status for ok hops), and the seconds the attempt consumed —
    the three facts needed to diagnose a degraded run from stderr
    alone.
    """
    lines = []
    for record in trail:
        what = record.error_class or record.status
        line = (
            f"engine {record.engine} attempt {record.attempt}: "
            f"{record.status} [{what}] after {record.runtime:.3f}s"
        )
        if record.error:
            line += f" ({record.error})"
        if record.fault:
            line += f" <fault:{record.fault}>"
        lines.append(line)
    return lines


@dataclass
class ExecutionOutcome:
    """The recorded result of one fault-tolerant synthesis run."""

    function_hex: str
    num_vars: int
    status: str  # "ok" | "timeout" | "crash" | "infeasible" | ...
    engine: str = ""
    fallback_from: str | None = None
    attempts: int = 0
    runtime: float = 0.0
    error: str = ""
    result: SynthesisResult | None = None
    trail: list[AttemptRecord] = field(default_factory=list)
    #: True when the answer is a proven optimum: a store hit, or an
    #: engine whose capabilities claim exactness.  False for heuristic
    #: engines and degraded upper bounds.
    exact: bool = True
    #: Corrupt store rows quarantined while serving this run.
    store_quarantined: int = 0
    #: Store calls that raised (each one degraded to a miss or a
    #: skipped write-back).
    store_errors: int = 0

    @property
    def solved(self) -> bool:
        """True when a verified result was produced and accepted."""
        return self.status == "ok" and self.result is not None

    @property
    def degraded(self) -> bool:
        """True when the run served a non-exact upper bound."""
        return self.status == "degraded" and self.result is not None

    def to_record(self) -> dict:
        """JSON-safe summary (sans the result object) for checkpoints."""
        return {
            "function": self.function_hex,
            "num_vars": self.num_vars,
            "status": self.status,
            "engine": self.engine,
            "fallback_from": self.fallback_from,
            "attempts": self.attempts,
            "runtime": round(self.runtime, 6),
            "error": self.error,
            "exact": self.exact,
            "store_quarantined": self.store_quarantined,
            "store_errors": self.store_errors,
            "num_gates": (
                self.result.num_gates if self.result is not None else -1
            ),
            "num_solutions": (
                self.result.num_solutions if self.result is not None else 0
            ),
            "trail": [record.to_record() for record in self.trail],
        }


class FaultTolerantExecutor:
    """Resolves synthesis instances: store, lanes, verify, write-back.

    Parameters
    ----------
    engines:
        Lanes, most preferred first.  Entries are registry names
        (``"stp"``, ``"fen"``, …) or ``(name, callable)`` pairs;
        callables run in-process only, so they cannot be isolated.
    isolate:
        Walk named engines in killable worker processes (hard timeout).
        Isolated attempts lease resident workers from the executor's
        pool.
    max_retries:
        Extra attempts per engine after a crash (transient-failure
        retry); timeouts and infeasibility are never retried.
    memory_limit_mb:
        Optional ``RLIMIT_AS`` cap applied inside each worker, for the
        worker's whole life.  Only a worker can apply it, so it needs
        ``isolate``.
    fault_plan:
        Deterministic fault injection (tests only).
    verify:
        Re-verify every returned chain and treat mismatches as
        :class:`VerificationFailed`.
    engine_kwargs:
        Per-engine tuning knobs, e.g. ``{"stp": {"max_solutions": 64}}``.
    store:
        Optional persistent chain store
        (:class:`~repro.store.ChainStore`) behind the lookup,
        write-back and degrade steps.
    sleep:
        The backoff sleep (tests inject a recorder).
    """

    def __init__(
        self,
        engines: Sequence = DEFAULT_FALLBACK_CHAIN,
        *,
        isolate: bool = False,
        max_retries: int = 1,
        memory_limit_mb: int | None = None,
        fault_plan: FaultPlan | None = None,
        verify: bool = True,
        engine_kwargs: dict[str, dict] | None = None,
        store=None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not engines:
            raise ValueError("need at least one engine")
        if memory_limit_mb is not None and not isolate:
            raise ValueError(
                "memory_limit_mb needs isolate=True: only a worker "
                "process can apply the cap"
            )
        names = []
        #: Ad-hoc in-process engines, by name.
        self._callables: dict[str, Callable] = {}
        for entry in engines:
            if isinstance(entry, str):
                names.append(entry)
                continue
            name, fn = entry
            if isolate:
                raise ValueError(
                    f"engine {name!r} is a bare callable and cannot "
                    "be process-isolated; register it by name instead"
                )
            names.append(name)
            self._callables[name] = fn
        self._names = tuple(names)
        self._isolate = isolate
        self._max_retries = max(0, max_retries)
        self._memory_limit_mb = memory_limit_mb
        self._fault_plan = fault_plan
        self._verify = verify
        self._engine_kwargs = engine_kwargs or {}
        self._store = store
        self._sleep = sleep
        self._pool = WorkerPool()
        weakref.finalize(self, self._pool.close)

    def close(self) -> None:
        """Stop the pool's idle workers (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "FaultTolerantExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def engine_names(self) -> tuple[str, ...]:
        """The configured lanes, most preferred first."""
        return self._names

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def run(
        self,
        function: TruthTable,
        timeout: float | None = None,
        *,
        expire_at: float | None = None,
        pick: str | None = None,
    ) -> ExecutionOutcome:
        """Resolve one truth table.

        Never raises for per-instance failures — the outcome records
        what happened.  ``KeyboardInterrupt`` is deliberately *not*
        swallowed (an in-flight worker is killed first) so suite
        runners can checkpoint and stop.

        ``expire_at`` is an absolute ``time.monotonic()`` deadline (the
        serving layer's request deadline): the run's budget becomes
        ``min(timeout, expire_at - now)``, so however long the job
        waited in a queue, the engines only ever see the *remaining*
        wall clock.  An already-lapsed ``expire_at`` returns a
        ``timeout`` outcome without touching the store or dispatching
        any engine.

        ``pick`` goes to the store lookup alone: a store hit then
        carries the one chain that cost chooses.  Engine answers and
        degraded bounds carry every chain.
        """
        outcome = ExecutionOutcome(
            function_hex=function.to_hex(),
            num_vars=function.num_vars,
            status="crash",
        )
        if expire_at is not None:
            remaining = expire_at - time.monotonic()
            if remaining <= 0:
                outcome.status = "timeout"
                outcome.error = "request deadline lapsed before dispatch"
                return outcome
            timeout = (
                remaining if timeout is None else min(timeout, remaining)
            )
        deadline = Deadline(timeout)

        if self._store is not None:
            stored = self._store_read(
                outcome, self._store.lookup, function, pick=pick
            )
            if stored is not None:
                return self._settle(outcome, deadline, "ok", "store", stored)

        answer, status, error = self._walk(function, deadline, outcome)

        if answer is not None:
            engine, result = answer
            exact = self._is_exact(engine)
            if self._store is not None:
                self._store_call(
                    outcome, self._store.put, function, result,
                    engine=engine, exact=exact,
                )
            outcome.exact = exact
            return self._settle(outcome, deadline, "ok", engine, result)

        # No answer came back.  An exact engine's "infeasible" is itself
        # the answer; anything else degrades to the store's best
        # verified upper bound.
        outcome.error = error
        if status != "infeasible" and self._store is not None:
            bound = self._store_read(
                outcome, self._store.lookup_upper_bound, function
            )
            if bound is not None:
                outcome.exact = False
                return self._settle(
                    outcome, deadline, "degraded", "store", bound
                )
        return self._settle(outcome, deadline, status, "", None)

    # ------------------------------------------------------------------
    # the walk
    # ------------------------------------------------------------------
    def _walk(self, function, deadline, outcome):
        """The lanes as a fallback chain; first verified answer wins."""
        lanes = self._names
        status, error = "crash", ""
        for name in lanes:
            result, status, error = self._run_engine(
                name, function, deadline, outcome
            )
            if result is not None:
                if name != lanes[0]:
                    outcome.fallback_from = lanes[0]
                return (name, result), status, error
            if status == "timeout" or (
                status == "infeasible" and self._is_exact(name)
            ):
                # Table-I semantics charge a timeout to its engine, and
                # a later engine would inherit an empty budget anyway;
                # exact engines agree on feasibility, so don't burn the
                # remaining budget rediscovering it.  An inexact engine
                # that found no chain within the cap proves nothing.
                break
            if deadline.expired():
                status = "timeout"
                error = error or "budget exhausted during fallback"
                break
        return None, status, error

    def _run_engine(self, name, function, deadline, outcome):
        """All attempts (first try + retries) on one engine."""
        pause = BACKOFF
        for attempt in range(self._max_retries + 1):
            budget = deadline.remaining()
            if budget is not None and budget <= 0:
                return None, "timeout", "no budget left for attempt"
            started = time.perf_counter()
            fault = self._draw(outcome, name)
            result, exc = self._verified(
                lambda: self._attempt(name, function, budget, fault),
                function,
            )
            record = self._record(
                outcome, name, attempt, time.perf_counter() - started,
                fault, exc,
            )
            if record.status != "crash":
                return result, record.status, record.error
            if attempt < self._max_retries:
                remaining = deadline.remaining()
                nap = pause if remaining is None else min(pause, remaining)
                if nap > 0:
                    self._sleep(nap)
                pause *= BACKOFF_FACTOR
        return None, record.status, record.error

    def _attempt(self, name, function, budget, fault):
        """One attempt: isolated worker, injected fault, or in-process
        engine."""
        kwargs = self._engine_kwargs.get(name, {})
        if self._isolate:
            task = WorkerTask(
                engine=name,
                bits=function.bits,
                num_vars=function.num_vars,
                timeout=budget,
                engine_kwargs=kwargs,
                fault=fault,
                memory_limit_mb=self._memory_limit_mb,
            )
            return run_isolated(task, self._pool)
        if fault is not None:
            return execute_fault(fault, function, budget, isolated=False)
        fn = self._callables.get(name)
        if fn is not None:
            return fn(function, budget, **kwargs)
        return run_engine(name, function, budget, **kwargs)

    # ------------------------------------------------------------------
    # shared steps
    # ------------------------------------------------------------------
    def _draw(self, outcome, name):
        """The injected fault for this attempt, keyed by the run's hex."""
        if self._fault_plan is None:
            return None
        return self._fault_plan.draw(outcome.function_hex, name)

    def _verified(self, produce, function):
        """The one verify: ``(result, None)`` for a result whose every
        chain has one output and realises ``function`` — one packed
        simulation of the whole solution set — else ``(None,
        exception)``."""
        try:
            result = produce()
            if self._verify:
                if not isinstance(result, SynthesisResult):
                    raise WorkerCrash(
                        f"engine returned {type(result).__name__}, "
                        "not a SynthesisResult"
                    )
                if not result.chains:
                    raise WorkerCrash("engine returned no chains")
                verdicts = check_solution_set(
                    [chain.signature() for chain in result.chains],
                    [function.bits],
                    function.num_vars,
                )
                if not all(verdicts):
                    raise VerificationFailed(
                        "engine returned a chain that does not "
                        f"realise 0x{function.to_hex()}"
                    )
        except Exception as exc:
            return None, exc
        return result, None

    @staticmethod
    def _record(
        outcome, engine, attempt, runtime, fault, exc
    ) -> AttemptRecord:
        """Append one attempt to the trail."""
        record = AttemptRecord(
            engine=engine,
            attempt=attempt,
            status="ok" if exc is None else classify_failure(exc),
            runtime=runtime,
            error="" if exc is None else f"{type(exc).__name__}: {exc}",
            error_class="" if exc is None else type(exc).__name__,
            fault=fault.kind if fault else "",
        )
        outcome.attempts += 1
        outcome.trail.append(record)
        return record

    @staticmethod
    def _is_exact(engine: str) -> bool:
        try:
            return bool(engine_capabilities(engine).exact)
        except EngineUnavailable:  # ad-hoc callables declare nothing
            return False

    @staticmethod
    def _store_call(outcome, method, *args, **kwargs):
        """One store call; a failure is counted, never raised."""
        try:
            return method(*args, **kwargs)
        except Exception:
            outcome.store_errors += 1
            return None

    def _store_read(self, outcome, method, function, **kwargs):
        """A store read that also counts the rows it quarantined."""
        events: list = []
        found = self._store_call(
            outcome, method, function, events=events, **kwargs
        )
        outcome.store_quarantined += sum(
            1 for kind, _ in events if kind == "quarantined"
        )
        return found

    @staticmethod
    def _settle(outcome, deadline, status, engine, result):
        outcome.status = status
        outcome.engine = engine
        outcome.result = result
        outcome.runtime = deadline.elapsed
        return outcome
