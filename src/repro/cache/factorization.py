"""Cross-call pool of memoizing factorization engines.

A :class:`~repro.core.factorization.FactorizationEngine` memoizes every
query it answers, keyed on the demand, the fanin-cone pair, the pinned
children and the polarity mode.  This pool keys engines on
``(num_vars, operators, cap)`` and rebinds only the per-run deadline
and stats sink, so the same query from a *different* target (or a
different suite instance) is answered from the memo.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["FactorizationPool"]

#: Query-memo size past which an engine's caches are dropped on its
#: next lease — a memory backstop for unbounded suites, far above any
#: Table-I working set.
MAX_QUERIES_PER_ENGINE = 1_000_000


class FactorizationPool:
    """Reusable factorization engines keyed on their immutable config."""

    def __init__(self) -> None:
        self._engines: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._engines)

    def engine_for(
        self,
        num_vars: int,
        operators: Sequence[int],
        max_solutions_per_query: int,
        deadline=None,
        stats=None,
    ):
        """A factorization engine for this config, memo preserved.

        The engine's deadline and stats sink are rebound on every call:
        runs are sequential, and a nested run's sub-deadline never
        outlives its parent, so rebinding is sound.
        """
        from ..core.factorization import FactorizationEngine

        key = (num_vars, tuple(operators), max_solutions_per_query)
        engine = self._engines.get(key)
        hit = engine is not None
        if stats is not None:
            stats.record_cache("factorization_pool", hit)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            engine = FactorizationEngine(
                num_vars,
                tuple(operators),
                max_solutions_per_query=max_solutions_per_query,
            )
            self._engines[key] = engine
        if engine.cached_queries > MAX_QUERIES_PER_ENGINE:
            engine.clear_caches()
        engine.bind(deadline=deadline, stats=stats)
        return engine

    def clear(self) -> None:
        """Drop every pooled engine (counters are kept)."""
        self._engines.clear()
