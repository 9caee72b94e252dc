"""The cross-call caching layer: NPN memo, topology families,
factorization pool, and the global-cache plumbing."""

import pytest

from repro.cache import (
    SynthesisCache,
    get_cache,
    reset_cache,
    set_cache,
)
from repro.core import SynthesisContext, SynthesisSpec, run_pipeline
from repro.core.spec import SynthesisStats
from repro.topology.dag import enumerate_dags
from repro.topology.fence import valid_fences
from repro.truthtable import NONTRIVIAL_BINARY_OPS, from_hex
from repro.truthtable.npn import canonicalize

EXAMPLE7 = from_hex("8ff8", 4)


@pytest.fixture(autouse=True)
def fresh_global_cache():
    """Isolate every test from the process-global cache."""
    reset_cache()
    yield
    reset_cache()


class TestNPNCache:
    def test_memoizes(self):
        cache = SynthesisCache()
        stats = SynthesisStats()
        table = from_hex("cafe", 4)
        first = cache.npn_canonical(table, stats=stats)
        second = cache.npn_canonical(table, stats=stats)
        assert first == second
        assert first == canonicalize(table)
        assert stats.cache_hits["npn"] == 1
        assert stats.cache_misses["npn"] == 1


class TestTopologyCache:
    def test_families_match_streaming_enumeration(self):
        cache = SynthesisCache()
        for r, s in [(1, 2), (2, 3), (3, 3), (3, 4)]:
            families = cache.topology_families(r, s)
            streamed = [
                (fence, tuple(enumerate_dags(fence, s, True)))
                for fence in valid_fences(r)
            ]
            assert list(families) == streamed

    def test_hit_on_second_call(self):
        cache = SynthesisCache()
        stats = SynthesisStats()
        cache.topology_families(3, 4, stats=stats)
        first = cache.topology_families(3, 4, stats=stats)
        second = cache.topology_families(3, 4, stats=stats)
        assert first is second
        assert stats.cache_hits["topology"] == 2
        assert stats.cache_misses["topology"] == 1

    def test_family_over_the_dag_bound_is_not_stored(self, monkeypatch):
        import repro.cache.topology as topology_mod

        monkeypatch.setattr(topology_mod, "MAX_DAGS_PER_FAMILY", 1)
        cache = SynthesisCache()
        small = cache.topology_families(1, 2)
        assert sum(len(dags) for _, dags in small) == 1
        big = cache.topology_families(3, 4)
        assert sum(len(dags) for _, dags in big) > 1
        assert list(cache.topology_families(3, 4)) == list(big)
        assert len(cache.topology) == 1  # only the (1, 2) family
        assert cache.topology.misses == 3 and cache.topology.hits == 0


class TestFactorizationPool:
    def test_engine_reused_across_calls(self):
        cache = SynthesisCache()
        a = cache.factorization_engine(4, (6, 8), 64)
        b = cache.factorization_engine(4, (6, 8), 64)
        c = cache.factorization_engine(3, (6, 8), 64)
        assert a is b
        assert a is not c
        assert cache.factorization.hits == 1
        assert cache.factorization.misses == 2

    def test_engine_past_the_query_bound_is_cleared(self, monkeypatch):
        import repro.cache.factorization as pool_mod

        monkeypatch.setattr(pool_mod, "MAX_QUERIES_PER_ENGINE", 2)
        cache = SynthesisCache()
        engine = cache.factorization_engine(4, NONTRIVIAL_BINARY_OPS, 64)
        pair = engine.pair_info((0, 1), (2, 3))
        demands = [from_hex(h, 4).bits for h in ("8ff8", "1ee1", "6996")]
        answers = [engine.decompositions_pairs(d, pair) for d in demands]
        assert any(answers)
        assert engine.cached_queries == 3
        # The bound is checked when the engine is next leased.
        assert cache.factorization_engine(
            4, NONTRIVIAL_BINARY_OPS, 64
        ) is engine
        assert engine.cached_queries == 0
        assert [
            engine.decompositions_pairs(d, pair) for d in demands
        ] == answers


class TestGlobalCache:
    def test_get_set_reset(self):
        original = get_cache()
        assert get_cache() is original
        replacement = SynthesisCache()
        previous = set_cache(replacement)
        assert previous is original
        assert get_cache() is replacement
        reset_cache()
        assert get_cache() is not replacement

    def test_pipeline_uses_global_cache(self):
        spec = SynthesisSpec(function=EXAMPLE7, timeout=120)
        run_pipeline(spec)
        assert get_cache().topology.misses >= 1
        before = get_cache().topology.hits
        run_pipeline(spec)
        assert get_cache().topology.hits > before

    def test_results_identical_with_cache_on_off(self):
        spec = SynthesisSpec(function=EXAMPLE7, timeout=120)
        warm_ctx = SynthesisContext.create(timeout=120)
        warm_ctx.cache.topology_families(3, 4)  # pre-warm
        cached = run_pipeline(spec, warm_ctx)

        cold_ctx = SynthesisContext.create(
            timeout=120, cache=SynthesisCache()
        )
        uncached = run_pipeline(spec, cold_ctx)

        assert cached.num_gates == uncached.num_gates
        assert [c.signature() for c in cached.chains] == [
            c.signature() for c in uncached.chains
        ]
        # Identical search effort either way — caching is transparent.
        assert (
            cached.stats.fences_examined == uncached.stats.fences_examined
        )
        assert cached.stats.dags_examined == uncached.stats.dags_examined
