"""Fault-tolerant synthesis execution: the one resolve path.

:class:`FaultTolerantExecutor` is the single choke point every entry
point (CLI, bench runner, rewriter, serving layer, NPN database) routes
synthesis through.  One ``run()`` call resolves one truth table, and
turns any per-instance disaster — a hung loop, a crashed worker, a
corrupt result, a missing engine — into a recorded
:class:`ExecutionOutcome` instead of an aborted run.  The
steps always run in this order:

1. **lookup** — an exact store row is served through the inverse NPN
   transform (``engine == "store"``); quarantined rows are counted.
   With ``pick`` the store serves only the chain that NPN-invariant
   cost chooses (:meth:`~repro.store.ChainStore.lookup`);
2. **floor** — the store's proven-infeasible gate floor reaches every
   lane as ``min_gates``;
3. **lanes** — the engine list, filtered by an
   :class:`~repro.runtime.health.EngineHealth` circuit breaker when one
   is given;
4. **schedule** — the only fork, on ``width``:

   * ``width == 1`` walks the lanes as a fallback chain, in-process
     (cooperative deadline) or process-isolated (hard kill).  Crashes
     are retried with exponential backoff, a timeout ends the walk
     unless ``fallback_on_timeout`` is set, and the first verified
     answer wins.
   * ``width >= 2`` races isolated worker lanes.  The first verified
     *exact* answer wins, inexact answers are held, and losers are
     killed and reaped (``last_cancellations``).  When the health
     history shortened the first round, a second round gets the full
     remaining budget;

5. **verify** — every chain of an answer must have one output and
   simulate to the requested table (one packed simulation of the
   whole solution set), else the attempt counts as
   ``crash``/``corrupt``;
6. **write-back** — answers are stored graded by the answering engine's
   exactness; exact ones also mark the gate counts below theirs
   infeasible;
7. **degrade** — when the schedule accepted no answer (every lane of a
   walk failed, or a race had no exact winner), the store's best upper
   bound is served (``status == "degraded"``, ``exact=False``), and
   failing that a held inexact answer.  An exact engine's
   ``infeasible`` is an answer and is never degraded.

Timeouts are budgeted across the whole run: a fallback engine only gets
the budget its predecessors left behind.  Store failures never fail a
run; each one is counted in :attr:`ExecutionOutcome.store_errors`.

Every isolated attempt — a walk's :func:`~repro.runtime.worker.run_isolated`
call and each race lane's :class:`~repro.runtime.worker.WorkerHandle` —
leases a resident worker from the executor's one
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
from .health import EngineHealth
from .worker import WorkerHandle, WorkerPool, WorkerTask, run_isolated

__all__ = [
    "AttemptRecord",
    "DEFAULT_FALLBACK_CHAIN",
    "ExecutionOutcome",
    "FaultTolerantExecutor",
    "format_trail",
]

#: The paper-motivated degradation order: the STP factorization engine
#: first, the CNF fence-solver baseline as the fallback of last resort.
DEFAULT_FALLBACK_CHAIN: tuple[str, ...] = ("stp", "fen")

#: Parent-side polling cadence while race lanes run, in seconds.
POLL_INTERVAL = 0.01


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
        callables run in-process only, so they can be neither isolated
        nor raced.
    width:
        The lane scheduler: ``1`` walks the lanes as a fallback chain,
        ``>= 2`` races up to ``width`` isolated lanes per round.
    health:
        Optional shared :class:`EngineHealth`.  Its circuit breakers
        filter the lanes, every attempt is recorded in it, and a race's
        first round is shortened to the NPN class's solve-time history.
    isolate:
        Walk named engines in killable worker processes (hard timeout).
        Race lanes are always isolated.  Isolated attempts lease
        resident workers from the executor's pool.
    max_retries:
        Extra walk attempts per engine after a crash (transient-failure
        retry); timeouts and infeasibility are never retried.
    backoff / backoff_factor:
        Exponential backoff between retries, in seconds.
    memory_limit_mb:
        Optional ``RLIMIT_AS`` cap applied inside each worker, for the
        worker's whole life.
    fault_plan:
        Deterministic fault injection (tests only).
    verify:
        Re-verify every returned chain and treat mismatches as
        :class:`VerificationFailed`.
    fallback_on_timeout:
        Also walk on when an engine times out.  Off by default:
        Table-I semantics charge the timeout to the engine, and a later
        engine would inherit an empty budget anyway.
    engine_kwargs:
        Per-engine tuning knobs, e.g. ``{"stp": {"max_solutions": 64}}``.
    store:
        Optional persistent chain store
        (:class:`~repro.store.ChainStore`) behind the lookup, floor,
        write-back and degrade steps.
    sleep:
        The backoff sleep (tests inject a recorder).
    """

    def __init__(
        self,
        engines: Sequence = DEFAULT_FALLBACK_CHAIN,
        *,
        width: int = 1,
        health: EngineHealth | None = None,
        isolate: bool = False,
        max_retries: int = 1,
        backoff: float = 0.05,
        backoff_factor: float = 2.0,
        memory_limit_mb: int | None = None,
        fault_plan: FaultPlan | None = None,
        verify: bool = True,
        fallback_on_timeout: bool = False,
        engine_kwargs: dict[str, dict] | None = None,
        store=None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not engines:
            raise ValueError("need at least one engine")
        self._width = max(1, width)
        names = []
        #: Ad-hoc in-process engines, by name.
        self._callables: dict[str, Callable] = {}
        for entry in engines:
            if isinstance(entry, str):
                names.append(entry)
                continue
            name, fn = entry
            if isolate or self._width > 1:
                raise ValueError(
                    f"engine {name!r} is a bare callable and cannot "
                    "be process-isolated; register it by name instead"
                )
            names.append(name)
            self._callables[name] = fn
        self._names = tuple(names)
        self.health = health
        self._isolate = isolate
        self._max_retries = max(0, max_retries)
        self._backoff = backoff
        self._backoff_factor = backoff_factor
        self._memory_limit_mb = memory_limit_mb
        self._fault_plan = fault_plan
        self._verify = verify
        self._fallback_on_timeout = fallback_on_timeout
        self._engine_kwargs = engine_kwargs or {}
        self._store = store
        self._sleep = sleep
        #: Race losers cancelled by the most recent ``run()`` call.
        self.last_cancellations: list = []
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
        swallowed (in-flight race lanes are reaped first) so suite
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
        self.last_cancellations = cancelled = []
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

        floor = 0
        if self._store is not None:
            stored = self._store_read(
                outcome, self._store.lookup, function, pick=pick
            )
            if stored is not None:
                return self._settle(outcome, deadline, "ok", "store", stored)
            floor = self._store_call(
                outcome, self._store.min_feasible_gates, function
            ) or 0

        raced = self._width > 1
        if raced:
            answer, status, error = self._race(
                function, floor, deadline, outcome, cancelled
            )
        else:
            answer, status, error = self._walk(
                function, floor, deadline, outcome
            )

        if answer is not None:
            engine, result = answer
            exact = self._is_exact(engine)
            self._write_back(outcome, function, engine, result, exact)
            if exact or not raced:
                outcome.exact = exact
                return self._settle(outcome, deadline, "ok", engine, result)

        # No exact answer came back.  An exact engine's "infeasible" is
        # itself the answer; anything else degrades to the best verified
        # upper bound, the store's first.
        outcome.error = error
        if status != "infeasible":
            if self._store is not None:
                bound = self._store_read(
                    outcome, self._store.lookup_upper_bound, function
                )
                if bound is not None:
                    answer = ("store", bound[0])
            if answer is not None:
                outcome.exact = False
                return self._settle(outcome, deadline, "degraded", *answer)
        return self._settle(outcome, deadline, status, "", None)

    # ------------------------------------------------------------------
    # lane schedulers
    # ------------------------------------------------------------------
    def _walk(self, function, floor, deadline, outcome):
        """Width 1: the lanes as a fallback chain; first verified wins."""
        lanes = self._lanes(None)
        status, error = "crash", ""
        for name in lanes:
            result, status, error = self._run_engine(
                name, function, floor, deadline, outcome
            )
            if result is not None:
                if name != lanes[0]:
                    outcome.fallback_from = lanes[0]
                return (name, result), status, error
            if status == "timeout" and not self._fallback_on_timeout:
                break
            if status == "infeasible":
                # Exact engines agree on feasibility; don't burn the
                # remaining budget rediscovering it.
                break
            if deadline.expired():
                status = "timeout"
                error = error or "budget exhausted during fallback"
                break
        return None, status, error

    def _run_engine(self, name, function, floor, deadline, outcome):
        """All walk attempts (first try + retries) on one engine."""
        pause = self._backoff
        for attempt in range(self._max_retries + 1):
            budget = deadline.remaining()
            if budget is not None and budget <= 0:
                return None, "timeout", "no budget left for attempt"
            started = time.perf_counter()
            fault = self._draw(outcome, name)
            result, exc = self._verified(
                lambda: self._attempt(name, function, budget, fault, floor),
                function,
            )
            record = self._record(
                outcome, function, name, attempt,
                time.perf_counter() - started, fault, exc,
            )
            if record.status != "crash":
                return result, record.status, record.error
            if attempt < self._max_retries:
                remaining = deadline.remaining()
                nap = pause if remaining is None else min(pause, remaining)
                if nap > 0:
                    self._sleep(nap)
                pause *= self._backoff_factor
        return None, record.status, record.error

    def _attempt(self, name, function, budget, fault, floor):
        """One walk attempt: isolated worker, injected fault, or
        in-process engine."""
        kwargs = self._kwargs(name, floor)
        if self._isolate:
            return run_isolated(
                self._task(name, function, budget, kwargs, fault),
                self._pool,
            )
        if fault is not None:
            return execute_fault(fault, function, budget, isolated=False)
        fn = self._callables.get(name)
        if fn is not None:
            return fn(function, budget, **kwargs)
        return run_engine(name, function, budget, **kwargs)

    def _race(self, function, floor, deadline, outcome, cancelled):
        """Width >= 2: race isolated lanes; first verified exact wins.

        Returns the exact winner, or else the first held inexact
        answer.  Round 0 runs on the health history's suggested
        deadline when there is one; round 1 re-races with the full
        remaining budget only when that suggestion shrank round 0.
        """
        suggestion = None
        if self.health is not None:
            suggestion = self.health.suggest_timeout(
                function, deadline.remaining()
            )
        held = None
        status, error = "timeout", ""
        for round_index in (0, 1):
            remaining = deadline.remaining()
            if remaining is not None and remaining <= 0:
                break
            budget = remaining
            if round_index == 0 and suggestion is not None:
                budget = (
                    suggestion
                    if remaining is None
                    else min(suggestion, remaining)
                )
            won, status, error, inexact = self._race_round(
                function, self._lanes(self._width), budget, floor,
                outcome, cancelled,
            )
            held = held or inexact
            if won is not None or status == "infeasible":
                return won, status, error
            if round_index == 0 and (
                suggestion is None
                or (remaining is not None and budget >= remaining)
            ):
                break
        return held, status, error

    def _race_round(self, function, lanes, budget, floor, outcome, cancelled):
        """Launch ``lanes`` at once and resolve one round.

        Returns ``(winner, status, error, held)``: the first verified
        exact ``(engine, result)`` or None, the last failure, and the
        first verified inexact answer.  ``infeasible`` from an exact
        lane also ends the round.  On return every lane's worker is
        back in the pool or dead and reaped, however the round ends.
        """
        from .racing import CancellationRecord

        pending: list[WorkerHandle] = []
        held = None
        status, error = "timeout", ""
        try:
            for name in lanes:
                fault = self._draw(outcome, name)
                task = self._task(
                    name, function, budget, self._kwargs(name, floor), fault
                )
                pending.append(WorkerHandle(task, self._pool))
            while pending:
                done = [h for h in pending if h.ready() or h.overdue()]
                if not done:
                    time.sleep(POLL_INTERVAL)
                for handle in done:
                    pending.remove(handle)
                    result, exc = self._verified(
                        lambda: handle.result(block=False), function
                    )
                    record = self._record(
                        outcome, function, handle.engine, 0,
                        handle.elapsed, handle.task.fault, exc,
                    )
                    exact = self._is_exact(handle.engine)
                    if record.status == "ok" and exact:
                        return (handle.engine, result), "ok", "", held
                    if record.status == "ok":
                        held = held or (handle.engine, result)
                        continue
                    status, error = record.status, record.error
                    if status == "infeasible" and exact:
                        return None, status, error, held
        finally:
            # Reap every lane not yet collected: the winner's early
            # return and a KeyboardInterrupt both land here.
            for handle in pending:
                pid = handle.pid
                seconds = handle.cancel()
                cancelled.append(
                    CancellationRecord(handle.engine, pid, seconds)
                )
        return None, status, error, held

    # ------------------------------------------------------------------
    # shared steps
    # ------------------------------------------------------------------
    def _lanes(self, limit):
        """Health-filtered lanes (all of them without a health)."""
        if self.health is not None:
            return self.health.select(self._names, limit=limit)
        return self._names[:limit]

    def _kwargs(self, name, floor):
        kwargs = self._engine_kwargs.get(name, {})
        if floor > 0:
            kwargs = {**kwargs, "min_gates": floor}
        return kwargs

    def _task(self, name, function, budget, kwargs, fault):
        return WorkerTask(
            engine=name,
            bits=function.bits,
            num_vars=function.num_vars,
            timeout=budget,
            engine_kwargs=kwargs,
            fault=fault,
            memory_limit_mb=self._memory_limit_mb,
        )

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

    def _record(
        self, outcome, function, engine, attempt, runtime, fault, exc
    ) -> AttemptRecord:
        """Append one attempt to the trail and to the health score."""
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
        if self.health is not None:
            self.health.record(
                engine, record.status, runtime, function=function
            )
        return record

    @staticmethod
    def _is_exact(engine: str) -> bool:
        try:
            return bool(engine_capabilities(engine).exact)
        except EngineUnavailable:  # ad-hoc callables declare nothing
            return False

    def _write_back(self, outcome, function, engine, result, exact) -> None:
        """Store an answer graded by its engine's exactness."""
        if self._store is None:
            return
        self._store_call(
            outcome, self._store.put, function, result,
            engine=engine, exact=exact,
        )
        if exact and result.num_gates > 0:
            # An optimal r-gate result proves sizes below r empty;
            # persist the mark so warm runs start at r directly.
            self._store_call(
                outcome, self._store.mark_infeasible, function,
                result.num_gates - 1,
            )

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
