"""Cross-call caching layer for the synthesis pipeline.

Three caches back the pipeline stages:

* :class:`NPNCache` — memoized NPN canonicalization (``canonicalize``
  is an orbit sweep; the database and the canonicalize stage call it
  for every lookup);
* :class:`TopologyCache` — per-``(num_gates, num_pis)`` fence/DAG
  topology families, the dominant repeated cost across a Table-I
  suite, with optional on-disk persistence;
* :class:`FactorizationPool` — memoizing factorization engines keyed
  on their immutable config, so each engine's query memo survives
  across synthesis calls.

One :class:`SynthesisCache` bundles all three and is shared through
the :class:`~repro.core.context.SynthesisContext`; a process-global
instance (:func:`get_cache`) serves entry points that do not manage
their own.  Setting ``enabled = False`` bypasses lookups *and* stores
without touching the recorded counters — the cache on/off ablation in
``benchmarks/bench_ablation_engine.py`` flips exactly this switch.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from contextlib import contextmanager

from .factorization import FactorizationPool
from .npn import NPNCache
from .topology import TopologyCache

try:  # pragma: no cover - fcntl exists on every POSIX target
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "SynthesisCache",
    "NPNCache",
    "TopologyCache",
    "FactorizationPool",
    "get_cache",
    "set_cache",
    "reset_cache",
]

_PERSIST_VERSION = 1


class SynthesisCache:
    """The pipeline's cache bundle (NPN + topology + factorization)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.npn = NPNCache()
        self.topology = TopologyCache()
        self.factorization = FactorizationPool()

    # ------------------------------------------------------------------
    # stage-facing API (honours the enabled switch)
    # ------------------------------------------------------------------
    def npn_canonical(self, table, stats=None):
        """Memoized NPN canonicalization (or direct when disabled)."""
        if not self.enabled:
            from ..truthtable.npn import canonicalize

            if stats is not None:
                stats.record_cache("npn", False)
            return canonicalize(table)
        return self.npn.canonical(table, stats=stats)

    def topology_families(
        self,
        num_gates: int,
        num_pis: int,
        require_all_pis: bool = True,
        deadline=None,
        stats=None,
    ):
        """Cached (fence, pDAGs) families (freshly built when disabled)."""
        if not self.enabled:
            if stats is not None:
                stats.record_cache("topology", False)
            return self.topology._build(
                num_gates, num_pis, require_all_pis, deadline
            )
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
        """Pooled factorization engine (fresh instance when disabled)."""
        if not self.enabled:
            from ..core.factorization import FactorizationEngine

            if stats is not None:
                stats.record_cache("factorization_pool", False)
            engine = FactorizationEngine(
                num_vars,
                tuple(operators),
                max_solutions_per_query=max_solutions_per_query,
            )
            engine.bind(deadline=deadline, stats=stats)
            return engine
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

    # ------------------------------------------------------------------
    # persistence (topology families only — the others rebuild fast or
    # hold live objects)
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the topology families atomically to ``path``.

        Safe under concurrent writers: an exclusive lock on
        ``path + ".lock"`` serializes savers, the current on-disk
        payload is re-read and merged under that lock (families only
        on disk are preserved, in-memory families win), and the merged
        payload lands via temp-file + atomic rename — so parallel
        suite runs sharing one cache path never tear the file or drop
        each other's families.
        """
        directory = os.path.dirname(os.path.abspath(path)) or "."
        with _writer_lock(path):
            state = self._read_disk_state(path)
            state.update(
                TopologyCache.sanitize_state(self.topology.export_state())
            )
            payload = {"version": _PERSIST_VERSION, "topology": state}
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(payload, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    @staticmethod
    def _read_disk_state(path: str) -> dict:
        """Sanitized topology state currently on disk ({} when absent,
        corrupt, or an incompatible version)."""
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return {}
        if (
            not isinstance(payload, dict)
            or payload.get("version") != _PERSIST_VERSION
        ):
            return {}
        return TopologyCache.sanitize_state(payload.get("topology", {}))

    def load(self, path: str) -> int:
        """Load persisted topology families; returns families restored.

        Missing, corrupt, or incompatible files are treated as an
        empty cache — persistence is an optimisation, never a failure
        mode.
        """
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return 0
        if (
            not isinstance(payload, dict)
            or payload.get("version") != _PERSIST_VERSION
        ):
            return 0
        return self.topology.load_state(payload.get("topology", {}))


@contextmanager
def _writer_lock(path: str):
    """Exclusive advisory lock on ``path + ".lock"`` (no-op when the
    platform lacks ``fcntl``)."""
    if fcntl is None:
        yield
        return
    with open(path + ".lock", "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


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
