"""Synthesis problem specification and result types."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..chain.chain import BooleanChain
from ..runtime.errors import BudgetExceeded
from ..truthtable.operations import NONTRIVIAL_BINARY_OPS
from ..truthtable.table import TruthTable

__all__ = [
    "SynthesisSpec",
    "SynthesisResult",
    "SynthesisStats",
    "SynthStats",
    "Deadline",
]


class Deadline:
    """Cooperative wall-clock budget shared across a synthesis run.

    Pure-Python algorithms cannot be preempted safely, so all long loops
    poll :meth:`check`.  A ``limit`` of ``None`` never expires.

    Cooperation is best-effort: a loop that forgets to poll runs past
    its budget, which is why the fault-tolerant runtime
    (:mod:`repro.runtime`) additionally enforces *hard* timeouts by
    killing worker processes.
    """

    __slots__ = ("_limit", "_start", "_calls")

    def __init__(self, limit_seconds: float | None) -> None:
        self._limit = limit_seconds
        self._start = time.perf_counter()
        self._calls = 0

    @property
    def limit(self) -> float | None:
        """The armed budget in seconds (``None`` = unlimited)."""
        return self._limit

    @property
    def elapsed(self) -> float:
        """Seconds since the deadline was armed."""
        return time.perf_counter() - self._start

    def remaining(self) -> float | None:
        """Seconds left in the budget (``None`` = unlimited, min 0.0)."""
        if self._limit is None:
            return None
        return max(0.0, self._limit - self.elapsed)

    def subdeadline(self, limit_seconds: float | None = None) -> "Deadline":
        """A nested deadline never outliving its parent.

        The child is armed with ``min(limit_seconds, remaining())``;
        either bound may be ``None`` (unlimited).  Sub-deadlines nest
        arbitrarily, so a per-engine or per-prime-block budget can be
        carved out of a per-instance budget which is itself carved out
        of a suite budget.
        """
        remaining = self.remaining()
        if remaining is None:
            child = limit_seconds
        elif limit_seconds is None:
            child = remaining
        else:
            child = min(limit_seconds, remaining)
        return Deadline(child)

    def expired(self) -> bool:
        """True once the budget is exhausted."""
        return self._limit is not None and self.elapsed >= self._limit

    def check(self, every: int = 1) -> None:
        """Raise :class:`BudgetExceeded` once the budget is exhausted.

        ``every`` gives hot loops a cheap poll stride: the clock is
        sampled only on every ``every``-th call, so a tight inner loop
        can call ``deadline.check(every=64)`` per iteration without
        paying a ``perf_counter()`` syscall each time.
        """
        if every > 1:
            self._calls += 1
            if self._calls % every:
                return
        if self.expired():
            raise BudgetExceeded(
                f"synthesis exceeded {self._limit:.3f}s budget",
                budget=self._limit,
                elapsed=self.elapsed,
            )


@dataclass
class SynthesisSpec:
    """What to synthesize and under which constraints.

    Parameters
    ----------
    function:
        The target function.
    operators:
        Allowed 2-input operator codes (default: the ten operators that
        depend on both inputs).
    max_gates:
        Hard cap on the number of gates tried before giving up.
    timeout:
        Wall-clock budget in seconds (None = unlimited).
    all_solutions:
        When True (the paper's mode) every optimal chain is returned;
        when False the search stops at the first chain.
    verify:
        Run the STP circuit AllSAT verification (Section III-C) on each
        candidate before accepting it.
    max_solutions:
        Safety cap on the size of the returned solution set.
    npn_canonicalize:
        Run the search on the NPN class representative and map the
        solutions back through the inverse transform.  Off by default;
        when several targets share an NPN class this makes the
        cross-call factorization memo hit across all of them.
    """

    function: TruthTable
    operators: tuple[int, ...] = NONTRIVIAL_BINARY_OPS
    max_gates: int | None = None
    timeout: float | None = None
    all_solutions: bool = True
    verify: bool = True
    max_solutions: int = 10_000
    npn_canonicalize: bool = False

    def __post_init__(self) -> None:
        for code in self.operators:
            if not 0 <= code <= 0xF:
                raise ValueError(f"bad operator code {code}")

    def effective_max_gates(self) -> int:
        """Default gate cap: generous for the support size."""
        if self.max_gates is not None:
            return self.max_gates
        support = self.function.support_size()
        return max(3 * support, 7)


@dataclass
class SynthesisStats:
    """Search-effort counters filled in by the synthesizer.

    Beyond the paper's raw search counters, the pipeline refactor adds
    per-stage wall-clock timers (``stage_seconds``, keyed by stage
    name) and per-cache hit/miss counters (``cache_hits`` /
    ``cache_misses``, keyed by cache name: ``npn``, ``topology``,
    ``factorization``).  The bit-parallel kernel layer contributes
    ``kernel_calls`` / ``kernel_seconds`` (keyed by kernel name, folded
    from :data:`repro.kernels.KERNEL_STATS` per pipeline run; only the
    coarse kernels are timed).  Everything is plain data, so stats
    survive the pickle boundary of isolated workers.
    """

    fences_examined: int = 0
    dags_examined: int = 0
    dags_pruned_dsd: int = 0
    candidates_generated: int = 0
    candidates_verified: int = 0
    verification_failures: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    cache_hits: dict[str, int] = field(default_factory=dict)
    cache_misses: dict[str, int] = field(default_factory=dict)
    kernel_calls: dict[str, int] = field(default_factory=dict)
    kernel_seconds: dict[str, float] = field(default_factory=dict)

    def add_stage_time(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock time under a pipeline stage name."""
        self.stage_seconds[stage] = (
            self.stage_seconds.get(stage, 0.0) + seconds
        )

    @contextmanager
    def stage(self, name: str):
        """Context manager timing one pipeline stage."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_stage_time(name, time.perf_counter() - start)

    def record_cache(self, cache: str, hit: bool, count: int = 1) -> None:
        """Count a cache hit or miss under a cache name."""
        bucket = self.cache_hits if hit else self.cache_misses
        bucket[cache] = bucket.get(cache, 0) + count

    def record_kernels(
        self, calls: dict[str, int], seconds: dict[str, float]
    ) -> None:
        """Fold a bit-kernel counter delta (see ``repro.kernels.stats``)."""
        for name, count in calls.items():
            self.kernel_calls[name] = (
                self.kernel_calls.get(name, 0) + count
            )
        for name, secs in seconds.items():
            self.kernel_seconds[name] = (
                self.kernel_seconds.get(name, 0.0) + secs
            )

    def merge(self, other: "SynthesisStats") -> None:
        """Accumulate counters from a sub-run."""
        self.fences_examined += other.fences_examined
        self.dags_examined += other.dags_examined
        self.dags_pruned_dsd += other.dags_pruned_dsd
        self.candidates_generated += other.candidates_generated
        self.candidates_verified += other.candidates_verified
        self.verification_failures += other.verification_failures
        for stage, seconds in other.stage_seconds.items():
            self.add_stage_time(stage, seconds)
        for cache, count in other.cache_hits.items():
            self.record_cache(cache, True, count)
        for cache, count in other.cache_misses.items():
            self.record_cache(cache, False, count)
        self.record_kernels(other.kernel_calls, other.kernel_seconds)

    def to_record(self) -> dict:
        """JSON-safe summary for checkpoints and ``--stats`` output."""
        return {
            "fences_examined": self.fences_examined,
            "dags_examined": self.dags_examined,
            "dags_pruned_dsd": self.dags_pruned_dsd,
            "candidates_generated": self.candidates_generated,
            "candidates_verified": self.candidates_verified,
            "verification_failures": self.verification_failures,
            "stage_seconds": {
                k: round(v, 6) for k, v in self.stage_seconds.items()
            },
            "cache_hits": dict(self.cache_hits),
            "cache_misses": dict(self.cache_misses),
            "kernel_calls": dict(self.kernel_calls),
            "kernel_seconds": {
                k: round(v, 6) for k, v in self.kernel_seconds.items()
            },
        }


#: Short alias used throughout the pipeline layer.
SynthStats = SynthesisStats


@dataclass
class SynthesisResult:
    """Outcome of a synthesis run."""

    spec: SynthesisSpec
    chains: list[BooleanChain]
    num_gates: int
    runtime: float
    stats: SynthesisStats = field(default_factory=SynthesisStats)

    @property
    def num_solutions(self) -> int:
        """Size of the optimal-solution set."""
        return len(self.chains)

    @property
    def best(self) -> BooleanChain:
        """The first optimal chain (deterministic order)."""
        if not self.chains:
            raise ValueError("no solutions")
        return self.chains[0]

    def mean_time_per_solution(self) -> float:
        """The paper's per-solution mean (Total / number)."""
        if not self.chains:
            return self.runtime
        return self.runtime / len(self.chains)
