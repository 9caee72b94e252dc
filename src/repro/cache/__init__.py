"""Cross-call caching layer for the synthesis pipeline.

Three caches back the pipeline stages:

* :class:`NPNCache` — memoized NPN canonicalization (``canonicalize``
  is an orbit sweep; the canonicalize stage and the chain store call
  it for every lookup);
* :class:`TopologyCache` — per-``(num_gates, num_pis)`` fence/DAG
  topology families, the dominant repeated cost across a Table-I
  suite, kept in memory for the life of the process;
* :class:`FactorizationPool` — memoizing factorization engines keyed
  on their immutable config, so each engine's query memo survives
  across synthesis calls.

One :class:`SynthesisCache` bundles all three and is shared through
the :class:`~repro.core.context.SynthesisContext`; a process-global
instance (:func:`get_cache`) serves entry points that do not manage
their own.  A fresh bundle per call is the cache-off measurement (the
ablation in ``benchmarks/bench_ablation_engine.py``): the pipeline
asks for each topology family, and for its factorization engine, once
per run.
"""

from __future__ import annotations

from .factorization import FactorizationPool
from .npn import NPNCache
from .topology import TopologyCache

__all__ = [
    "SynthesisCache",
    "NPNCache",
    "TopologyCache",
    "FactorizationPool",
    "get_cache",
    "set_cache",
    "reset_cache",
]


class SynthesisCache:
    """The pipeline's cache bundle (NPN + topology + factorization)."""

    def __init__(self) -> None:
        self.npn = NPNCache()
        self.topology = TopologyCache()
        self.factorization = FactorizationPool()

    # ------------------------------------------------------------------
    # stage-facing API
    # ------------------------------------------------------------------
    def npn_canonical(self, table, stats=None):
        """Memoized NPN canonicalization."""
        return self.npn.canonical(table, stats=stats)

    def topology_families(
        self,
        num_gates: int,
        num_pis: int,
        require_all_pis: bool = True,
        deadline=None,
        stats=None,
    ):
        """Cached (fence, pDAGs) families."""
        return self.topology.families(
            num_gates,
            num_pis,
            require_all_pis,
            deadline=deadline,
            stats=stats,
        )

    def factorization_engine(
        self,
        num_vars: int,
        operators,
        max_solutions_per_query: int,
        deadline=None,
        stats=None,
    ):
        """Pooled factorization engine."""
        return self.factorization.engine_for(
            num_vars,
            operators,
            max_solutions_per_query,
            deadline=deadline,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # counters / lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """Aggregate hit/miss counters per cache (JSON-safe)."""
        return {
            "npn": {"hits": self.npn.hits, "misses": self.npn.misses},
            "topology": {
                "hits": self.topology.hits,
                "misses": self.topology.misses,
            },
            "factorization": {
                "hits": self.factorization.hits,
                "misses": self.factorization.misses,
            },
        }

    def clear(self) -> None:
        """Drop all cached entries across the bundle."""
        self.npn.clear()
        self.topology.clear()
        self.factorization.clear()


_GLOBAL_CACHE: SynthesisCache | None = None


def get_cache() -> SynthesisCache:
    """The process-global cache shared by default contexts."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = SynthesisCache()
    return _GLOBAL_CACHE


def set_cache(cache: SynthesisCache) -> SynthesisCache:
    """Replace the process-global cache (returns the previous one)."""
    global _GLOBAL_CACHE
    previous = get_cache()
    _GLOBAL_CACHE = cache
    return previous


def reset_cache() -> None:
    """Discard the process-global cache (a fresh one is lazily made)."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = None
