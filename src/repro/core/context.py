"""The shared per-run context threaded through the pipeline stages.

Every stage of the synthesis pipeline — normalize, NPN-canonicalize,
topology enumeration, STP factorization, AllSAT verification, and the
final lift/expand/dedup — receives one :class:`SynthesisContext`
carrying the cooperative deadline, the per-stage stats counters and
timers, and the cross-call cache bundle.  Synthesis settings live in
the :class:`~repro.core.spec.SynthesisSpec`, not here.
Engines create a fresh context per top-level call (sharing the
process-global cache); composite engines hand sub-runs a :meth:`child`
context so sub-deadlines nest and stats aggregate cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache import SynthesisCache, get_cache
from .spec import Deadline, SynthStats

__all__ = ["SynthesisContext"]


@dataclass
class SynthesisContext:
    """Shared state for one synthesis run.

    Attributes
    ----------
    deadline:
        The run's cooperative wall-clock budget.
    stats:
        Per-stage counters/timers; lands on the returned
        :class:`~repro.core.spec.SynthesisResult`.
    cache:
        The cross-call cache bundle (NPN / topology / factorization).
    """

    deadline: Deadline
    stats: SynthStats
    cache: SynthesisCache

    @classmethod
    def create(
        cls,
        timeout: float | None = None,
        cache: SynthesisCache | None = None,
        stats: SynthStats | None = None,
    ) -> "SynthesisContext":
        """A fresh context (global cache, new deadline and stats)."""
        return cls(
            deadline=Deadline(timeout),
            stats=stats if stats is not None else SynthStats(),
            cache=cache if cache is not None else get_cache(),
        )

    def child(
        self,
        timeout: float | None = None,
        fresh_stats: bool = False,
    ) -> "SynthesisContext":
        """A nested context for a sub-run.

        The child's deadline never outlives this one; the cache is
        shared.  ``fresh_stats`` gives the child its
        own counters (callers then :meth:`~SynthStats.merge` them back)
        — composite engines use this to avoid double counting.
        """
        return SynthesisContext(
            deadline=self.deadline.subdeadline(timeout),
            stats=SynthStats() if fresh_stats else self.stats,
            cache=self.cache,
        )

    def stage(self, name: str):
        """Context manager timing one pipeline stage into the stats."""
        return self.stats.stage(name)
