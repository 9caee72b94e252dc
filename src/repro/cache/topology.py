"""Per-``(num_gates, num_pis)`` fence/DAG topology-family cache.

Topology enumeration is pure combinatorics: the pruned fence family of
``r`` gates and every pDAG of each fence over ``s`` inputs depend only
on ``(r, s)`` — yet the synthesizer used to re-enumerate them from
scratch for every target function.  Across a Table-I suite (hundreds
of functions, nearly all hitting the same handful of ``(r, s)`` pairs)
that re-enumeration is the dominant repeated cost.  This cache
materialises each family once and serves every later call from memory,
for the life of the process; a family above ``MAX_DAGS_PER_FAMILY``
DAGs is rebuilt on every call instead of kept.
"""

from __future__ import annotations

from ..topology.dag import DagTopology, enumerate_dags
from ..topology.fence import Fence, valid_fences

__all__ = ["TopologyCache", "TopologyFamily"]

#: One cached family: every valid fence of ``r`` gates paired with its
#: fully materialised pDAG tuple (empty tuples are kept so the
#: fences-examined counter is unchanged versus streaming enumeration).
TopologyFamily = tuple[tuple[Fence, tuple[DagTopology, ...]], ...]

#: Families larger than this many DAGs are returned but not stored —
#: a memory backstop for pathological (r, s) pairs.
MAX_DAGS_PER_FAMILY = 200_000


class TopologyCache:
    """Cross-call cache of pruned fence/DAG topology families."""

    def __init__(self) -> None:
        self._store: dict[tuple[int, int, bool], TopologyFamily] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def families(
        self,
        num_gates: int,
        num_pis: int,
        require_all_pis: bool = True,
        deadline=None,
        stats=None,
    ) -> TopologyFamily:
        """All (fence, pDAG tuple) pairs for ``num_gates`` gates.

        A cooperative ``deadline`` is polled while a family is being
        built, so a first-call enumeration cannot blow a synthesis
        budget unnoticed; a build aborted by the deadline leaves the
        cache untouched.  ``stats`` receives hit/miss ticks under the
        ``"topology"`` cache name.
        """
        key = (num_gates, num_pis, require_all_pis)
        family = self._store.get(key)
        hit = family is not None
        if stats is not None:
            stats.record_cache("topology", hit)
        if hit:
            self.hits += 1
            return family
        self.misses += 1
        family = self._build(num_gates, num_pis, require_all_pis, deadline)
        total = sum(len(dags) for _, dags in family)
        if total <= MAX_DAGS_PER_FAMILY:
            self._store[key] = family
        return family

    def _build(
        self,
        num_gates: int,
        num_pis: int,
        require_all_pis: bool,
        deadline,
    ) -> TopologyFamily:
        out = []
        for fence in valid_fences(num_gates):
            dags = []
            for dag in enumerate_dags(fence, num_pis, require_all_pis):
                if deadline is not None:
                    deadline.check(every=64)
                dags.append(dag)
            out.append((fence, tuple(dags)))
        return tuple(out)

    def clear(self) -> None:
        """Drop every cached family (counters are kept)."""
        self._store.clear()
