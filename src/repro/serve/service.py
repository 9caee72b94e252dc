"""The synthesis service: NPN coalescing over the resident runtime.

This is the heart of synthesis-as-a-service.  Every request — one
truth table — goes through the same funnel:

1. **Warm path.**  The persistent :class:`~repro.store.ChainStore` is
   consulted first (in a worker thread — SQLite I/O must not block
   the event loop).  A hit is served immediately through the store's
   own inverse-NPN rewrite, graded exact.  A lookup that raises is
   counted in ``store_errors`` and the request goes on as a miss.
2. **Coalescing.**  A miss is canonicalized to its NPN class.
   If that class already has a synthesis in flight, the request simply
   awaits the shared future — K concurrent requests for one class cost
   exactly one engine run, and each caller maps the canonical chains
   back through *its own* inverse transform.
3. **Engine path.**  Otherwise the canonical representative is
   submitted to the persistent :class:`~repro.parallel.BatchScheduler`
   pool as one :meth:`FaultTolerantExecutor.run
   <repro.runtime.executor.FaultTolerantExecutor.run>` call — the
   runtime's one resolve path.  The pool's queue is FIFO; a job whose
   caller's deadline lapses while it waits is answered ``expired``
   (HTTP 504) without running.  The executor walks the engine lanes
   as a fallback chain, or races them (``race=True``).  Solved results
   are written back to the store, so the whole orbit is warm
   afterwards.
4. **Degradation.**  When no exact answer comes back, the executor
   serves the store's best-known upper bound for the class, which
   leaves here with ``exact: false`` and a ``degraded`` status the
   HTTP layer maps to its own (non-failure) status code.

Every chain of a response is checked against the *caller's* table
before it leaves the service — one packed simulation of the whole set,
plus the paper's AllSAT verifier on the first chain as a second
opinion — so a transform bug or corrupt store row becomes a counted
``corrupt`` failure, never a silently wrong circuit.

Single-threaded discipline: all coalescing state (``_inflight``) is
touched from the event-loop thread only.  Scheduler futures resolve on
dispatcher threads and are marshalled back with
``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..chain.transform import npn_transform_chain
from ..core.circuit_sat import verify_chain
from ..core.spec import SynthesisStats
from ..kernels import check_solution_set
from ..parallel.scheduler import DeadlineExpired
from ..runtime.executor import (
    DEFAULT_FALLBACK_CHAIN,
    ExecutionOutcome,
    FaultTolerantExecutor,
)
from ..runtime.racing import RACE_WIDTH
from ..truthtable import from_hex
from ..truthtable.npn import canonicalize
from ..truthtable.table import TruthTable
from .metrics import ServingMetrics

__all__ = ["SynthesisRequest", "SynthesisResponse", "SynthesisService"]

#: Largest arity a request may carry.  Above this the packed verifier
#: and the semi-canonical form still work, but table payloads grow as
#: ``2**n`` — the cap keeps one request from monopolising the parser.
MAX_REQUEST_VARS = 12

#: Statuses the HTTP layer treats as "an answer was served".
_ANSWERED = frozenset({"ok", "degraded"})


@dataclass(frozen=True)
class SynthesisRequest:
    """One validated synthesis request for one truth table."""

    function: TruthTable
    timeout: float | None = None
    max_chains: int = 4
    client: str = "anonymous"
    #: Absolute ``time.monotonic()`` deadline (``None`` = no deadline),
    #: stamped at parse time from the ``deadline_ms`` request field.
    expire_at: float | None = None

    @property
    def num_vars(self) -> int:
        return self.function.num_vars

    def expired(self, now: float | None = None) -> bool:
        """True once the caller's deadline has lapsed."""
        if self.expire_at is None:
            return False
        return (time.monotonic() if now is None else now) >= self.expire_at

    def remaining(self) -> float | None:
        """Seconds of deadline budget left (``None`` = unbounded)."""
        if self.expire_at is None:
            return None
        return max(0.0, self.expire_at - time.monotonic())

    @staticmethod
    def from_payload(
        payload: Mapping, *, client: str = "anonymous"
    ) -> "SynthesisRequest":
        """Parse and validate a JSON request body.

        Accepts ``{"function": "8ff8", "vars": 4}`` plus optional
        ``timeout`` (seconds), ``max_chains`` and ``deadline_ms``
        (milliseconds of budget from *now* — past it the request is
        answered 504 without occupying a worker).  Raises
        :class:`ValueError` with a client-safe message on any
        malformed field; a budget must be a finite positive number.
        """
        if not isinstance(payload, Mapping):
            raise ValueError("request body must be a JSON object")
        num_vars = payload.get("vars")
        if not isinstance(num_vars, int) or isinstance(num_vars, bool):
            raise ValueError('"vars" must be an integer')
        if not 1 <= num_vars <= MAX_REQUEST_VARS:
            raise ValueError(
                f'"vars" must be between 1 and {MAX_REQUEST_VARS}'
            )
        entry = payload.get("function")
        if not isinstance(entry, str):
            raise ValueError('"function" must be a hex string')
        function = from_hex(entry, num_vars)
        timeout = _budget(payload, "timeout")
        max_chains = payload.get("max_chains", 4)
        if (
            isinstance(max_chains, bool)
            or not isinstance(max_chains, int)
            or max_chains < 1
        ):
            raise ValueError('"max_chains" must be a positive integer')
        deadline_ms = _budget(payload, "deadline_ms")
        expire_at = None
        if deadline_ms is not None:
            expire_at = time.monotonic() + deadline_ms / 1000.0
        return SynthesisRequest(
            function=function,
            timeout=timeout,
            max_chains=min(max_chains, 64),
            client=client,
            expire_at=expire_at,
        )


def _budget(payload: Mapping, name: str) -> float | None:
    """An optional finite positive number field, as a float.

    ``json.loads`` accepts ``NaN`` and ``Infinity``, which RFC 8259
    JSON does not; neither is a budget, so both are rejected.
    """
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f'"{name}" must be a number')
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f'"{name}" must be a finite positive number')
    return value


@dataclass
class SynthesisResponse:
    """What the service answered for one request."""

    status: str  # "ok" | "degraded" | "timeout" | "expired" | ...
    exact: bool = False
    source: str = ""  # "store" | "engine" | ""
    engine: str = ""
    num_gates: int = -1
    num_solutions: int = 0
    chains: list = field(default_factory=list)
    runtime: float = 0.0
    npn_class: str = ""
    coalesced: bool = False
    error: str = ""
    #: Monotone per-process admission id (1, 2, 3, ...); 0 before the
    #: service stamps it.
    request_id: int = 0

    @property
    def answered(self) -> bool:
        """True when a circuit was served (exact or degraded)."""
        return self.status in _ANSWERED

    def to_payload(self) -> dict:
        """JSON body for the HTTP layer."""
        from ..store.serialize import chain_to_record

        return {
            "status": self.status,
            "exact": self.exact,
            "source": self.source,
            "engine": self.engine,
            "num_gates": self.num_gates,
            "num_solutions": self.num_solutions,
            "npn_class": self.npn_class,
            "coalesced": self.coalesced,
            "runtime": round(self.runtime, 6),
            "error": self.error,
            "request_id": self.request_id,
            "chains": [chain_to_record(c) for c in self.chains],
        }


class SynthesisService:
    """NPN-coalescing synthesis front-end over the resident runtime.

    Parameters
    ----------
    scheduler:
        A **started** :class:`~repro.parallel.BatchScheduler` (resident
        mode).  The service only uses ``submit_call``/``backlog``; it
        does not own the pool's lifecycle.
    store:
        Optional :class:`~repro.store.ChainStore` for the warm path,
        write-back, and degraded upper bounds.
    engines:
        Exact-lane preference order.
    race:
        Race the first ``RACE_WIDTH`` lanes in isolated workers per
        miss instead of walking them as an in-process fallback chain
        (the executor's ``width``).
    default_timeout / max_timeout:
        Per-request synthesis budget when the caller names none, and
        the hard cap a caller may request.
    max_backlog:
        Load-shedding threshold: new engine-path work is rejected
        (``overloaded``) while the scheduler backlog is at or past it.
        Coalescing joins and warm hits are never shed.
    fault_plan:
        Deterministic fault injection, threaded into the executor's
        lanes (tests drive the degraded path with a wildcard crash
        plan).
    """

    def __init__(
        self,
        scheduler,
        *,
        store=None,
        engines: Sequence[str] = DEFAULT_FALLBACK_CHAIN,
        race: bool = False,
        metrics: ServingMetrics | None = None,
        default_timeout: float = 20.0,
        max_timeout: float = 120.0,
        max_backlog: int = 256,
        fault_plan=None,
        engine_kwargs: dict[str, dict] | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._store = store
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._default_timeout = default_timeout
        self._max_timeout = max_timeout
        self._max_backlog = max(1, max_backlog)
        #: Shared by every dispatcher thread; it keeps per-run state on
        #: the stack.
        self._executor = FaultTolerantExecutor(
            engines,
            width=RACE_WIDTH if race else 1,
            store=store,
            fault_plan=fault_plan,
            engine_kwargs=engine_kwargs,
        )
        #: Monotone admission ids: every admitted request gets the
        #: next integer, so a gap-free, strictly increasing sequence
        #: is an invariant the soak harness can assert.
        self._request_seq = itertools.count(1)
        #: (num_vars, canon_hex) -> shared asyncio future resolving to
        #: the canonical-space ExecutionOutcome.
        self._inflight: dict[tuple, asyncio.Future] = {}
        #: Aggregated search effort across every engine run this
        #: process served; feeds the ``synthesis`` /metrics section.
        self.stats = SynthesisStats()

    @property
    def scheduler(self):
        """The resident pool this service dispatches onto."""
        return self._scheduler

    def close(self) -> None:
        """Stop the executor's idle race workers (idempotent).  Call it
        after the scheduler has shut down."""
        self._executor.close()

    @property
    def inflight_classes(self) -> int:
        """NPN classes with a synthesis currently in flight."""
        return len(self._inflight)

    # ------------------------------------------------------------------
    # request funnel
    # ------------------------------------------------------------------
    async def synthesize(
        self, request: SynthesisRequest
    ) -> SynthesisResponse:
        """Serve one admitted request (rate limiting happens upstream)."""
        started = time.perf_counter()
        self.metrics.requests += 1
        request_id = next(self._request_seq)
        response = await self._synthesize(request)
        response.runtime = time.perf_counter() - started
        response.request_id = request_id
        self.metrics.latency.observe(response.runtime)
        return response

    def _expired_response(
        self, request: SynthesisRequest, where: str, **kwargs
    ) -> SynthesisResponse:
        """A 504-mapped answer for a lapsed deadline; never ran."""
        self.metrics.expired += 1
        return SynthesisResponse(
            status="expired",
            error=f"deadline lapsed {where}",
            **kwargs,
        )

    async def _synthesize(
        self, request: SynthesisRequest
    ) -> SynthesisResponse:
        timeout = min(
            request.timeout
            if request.timeout is not None
            else self._default_timeout,
            self._max_timeout,
        )
        # 0. A request that arrives already past its deadline is
        # answered 504 up front — it must never occupy a worker.
        if request.expired():
            return self._expired_response(request, "before admission")

        # 1. Warm path: the store rewrites chains into the caller's own
        # input space, so no transform is needed here.
        if self._store is not None:
            try:
                result = await asyncio.to_thread(
                    self._store.lookup, request.function
                )
            except Exception:
                # A failing store must not fail the request: count it
                # and fall through to the engine path.
                self.metrics.store_errors += 1
                result = None
            if result is not None:
                self.metrics.store_hits += 1
                return self._finish(
                    request,
                    status="ok",
                    exact=True,
                    source="store",
                    engine="store",
                    chains=result.chains,
                    num_gates=result.num_gates,
                )

        # 2. Canonicalize and coalesce.
        canon, transform = canonicalize(request.function)
        inverse = transform.inverse()
        key = (request.num_vars, canon.to_hex())
        # Two admission attempts: if this caller coalesced onto (or
        # launched) a shared job that then expired in the queue on the
        # *launcher's* tighter deadline, a caller with budget left
        # relaunches once instead of inheriting the 504.
        outcome = None
        coalesced = False
        for attempt in (0, 1):
            shared = self._inflight.get(key)
            coalesced = shared is not None
            if shared is None:
                if self._scheduler.backlog() >= self._max_backlog:
                    self.metrics.shed += 1
                    return SynthesisResponse(
                        status="overloaded",
                        error="scheduler backlog full; retry later",
                        npn_class=key[1],
                    )
                shared = self._launch(key, canon, timeout, request)
                if shared is None:
                    self.metrics.failures += 1
                    return SynthesisResponse(
                        status="unavailable",
                        error="scheduler is not accepting work",
                        npn_class=key[1],
                    )
                self.metrics.engine_runs += 1
            else:
                self.metrics.coalesced += 1

            # 3. Await the shared canonical outcome.  shield(): one
            # caller timing out or disconnecting must not cancel the
            # synthesis the other coalesced callers are waiting on.
            wait_budget = timeout * 3.0 + 30.0
            remaining = request.remaining()
            if remaining is not None:
                # A deadline'd caller stops waiting shortly after its
                # own deadline (small grace: an answer that resolves
                # right at the boundary is still worth serving).
                wait_budget = min(wait_budget, remaining + 0.05)
            try:
                outcome = await asyncio.wait_for(
                    asyncio.shield(shared), wait_budget
                )
            except (asyncio.TimeoutError, TimeoutError):
                if request.expired():
                    return self._expired_response(
                        request,
                        "awaiting the in-flight synthesis",
                        npn_class=key[1],
                        coalesced=coalesced,
                    )
                self.metrics.failures += 1
                return SynthesisResponse(
                    status="timeout",
                    error="timed out waiting for the in-flight synthesis",
                    npn_class=key[1],
                    coalesced=coalesced,
                )
            if (
                outcome.status == "expired"
                and attempt == 0
                and not request.expired()
            ):
                continue
            break

        if outcome.status == "expired":
            return self._expired_response(
                request,
                "in the dispatch queue",
                npn_class=key[1],
                coalesced=coalesced,
            )

        # 4. Map the canonical outcome into the caller's space.
        return self._materialize(
            request, key[1], inverse, outcome, coalesced
        )

    # ------------------------------------------------------------------
    # canonical-space synthesis (runs on dispatcher threads)
    # ------------------------------------------------------------------
    def _launch(
        self,
        key: tuple,
        canon: TruthTable,
        timeout: float,
        request: SynthesisRequest,
    ) -> asyncio.Future | None:
        """Submit the canonical representative; register the shared future.

        The launcher's ``expire_at`` rides along twice: as the queue
        deadline (a job still queued past it is answered without
        running) and into the engine budget (a dispatched job only gets
        the wall clock the deadline has left).
        """
        loop = asyncio.get_running_loop()
        shared: asyncio.Future = loop.create_future()
        expire_at = request.expire_at

        def job() -> ExecutionOutcome:
            return self._executor.run(canon, timeout, expire_at=expire_at)

        try:
            handle = self._scheduler.submit_call(
                f"serve {key[1]}", job, deadline=expire_at
            )
        except RuntimeError:
            return None
        self._inflight[key] = shared

        def relay(done: Future) -> None:
            loop.call_soon_threadsafe(self._resolve, key, shared, done)

        handle.add_done_callback(relay)
        return shared

    def _resolve(
        self, key: tuple, shared: asyncio.Future, done: Future
    ) -> None:
        """Event-loop side: publish the outcome, retire the class."""
        self._inflight.pop(key, None)
        if shared.done():  # pragma: no cover - defensive
            return
        if done.cancelled():
            outcome = ExecutionOutcome(
                function_hex=key[1],
                num_vars=key[0],
                status="unavailable",
                error="synthesis cancelled during shutdown",
            )
        else:
            exc = done.exception()
            if isinstance(exc, DeadlineExpired):
                # The dispatcher answered the job without running it; waiters map this onto HTTP 504 (or relaunch if
                # their own deadline still has budget).
                outcome = ExecutionOutcome(
                    function_hex=key[1],
                    num_vars=key[0],
                    status="expired",
                    error=str(exc),
                )
            elif exc is not None:
                outcome = ExecutionOutcome(
                    function_hex=key[1],
                    num_vars=key[0],
                    status="crash",
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                outcome = done.result()
        if outcome.result is not None and outcome.result.stats is not None:
            self.stats.merge(outcome.result.stats)
        shared.set_result(outcome)

    # ------------------------------------------------------------------
    # caller-space mapping
    # ------------------------------------------------------------------
    def _materialize(
        self,
        request: SynthesisRequest,
        npn_class: str,
        inverse,
        outcome: ExecutionOutcome,
        coalesced: bool,
    ) -> SynthesisResponse:
        """Rewrite the shared canonical outcome for this caller."""
        if not (outcome.solved or outcome.degraded):
            self.metrics.failures += 1
            return SynthesisResponse(
                status=outcome.status,
                engine=outcome.engine,
                error=outcome.error or "synthesis failed",
                npn_class=npn_class,
                coalesced=coalesced,
            )
        chains = [
            npn_transform_chain(chain, inverse)
            for chain in outcome.result.chains[: request.max_chains]
        ]
        if outcome.degraded:
            self.metrics.degraded += 1
        return self._finish(
            request,
            status=outcome.status,
            exact=outcome.exact,
            source="engine" if outcome.engine != "store" else "store",
            engine=outcome.engine,
            chains=chains,
            num_gates=outcome.result.num_gates,
            npn_class=npn_class,
            coalesced=coalesced,
        )

    def _finish(
        self,
        request: SynthesisRequest,
        *,
        status: str,
        exact: bool,
        source: str,
        engine: str,
        chains: list,
        num_gates: int,
        npn_class: str = "",
        coalesced: bool = False,
    ) -> SynthesisResponse:
        """Final response assembly + the caller-space verification gate."""
        chains = list(chains[: request.max_chains])
        if chains:
            function = request.function
            ok = all(
                check_solution_set(
                    [chain.signature() for chain in chains],
                    [function.bits],
                    function.num_vars,
                )
            ) and verify_chain(chains[0], function)
            if not ok:
                self.metrics.verify_failures += 1
                self.metrics.failures += 1
                return SynthesisResponse(
                    status="corrupt",
                    engine=engine,
                    error="response failed packed verification",
                    npn_class=npn_class,
                    coalesced=coalesced,
                )
        return SynthesisResponse(
            status=status,
            exact=exact,
            source=source,
            engine=engine,
            num_gates=num_gates,
            num_solutions=len(chains),
            chains=chains,
            npn_class=npn_class,
            coalesced=coalesced,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def metrics_snapshot(self, extra: Mapping | None = None) -> dict:
        """The merged ``/metrics`` document (JSON-safe).

        ``extra`` adds caller-owned sections (the HTTP layer injects
        its rate-limiter gauges; colliding keys last-win).
        """
        from ..stats import stats_snapshot

        sections: dict = {
            "serving": self.metrics.to_record(
                queue_depth=self._scheduler.backlog(),
                inflight_classes=self.inflight_classes,
            ),
            "scheduler": {
                "jobs": self._scheduler.jobs,
                "backlog": self._scheduler.backlog(),
                "expired_in_queue": sum(
                    stats.expired
                    for stats in self._scheduler.worker_stats
                ),
                "workers": [
                    stats.to_record()
                    for stats in self._scheduler.worker_stats
                ],
            },
        }
        if extra:
            sections.update(extra)
        return stats_snapshot(
            stats=self.stats,
            store=self._store,
            extra=sections,
        )
