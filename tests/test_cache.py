"""The cross-call caching layer: NPN memo, topology families,
factorization pool, persistence, and the global-cache plumbing."""

import os

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

    def test_disabled_bypasses_store(self):
        cache = SynthesisCache(enabled=False)
        table = from_hex("cafe", 4)
        cache.npn_canonical(table)
        cache.npn_canonical(table)
        assert cache.npn.hits == 0 and cache.npn.misses == 0


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

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "topo.cache")
        cache = SynthesisCache()
        built = cache.topology_families(3, 4)
        cache.save(path)

        restored = SynthesisCache()
        assert restored.load(path) == 1
        assert list(restored.topology_families(3, 4)) == list(built)
        # The restored family counts as a hit, not a rebuild.
        assert restored.topology.hits == 1

    def test_load_missing_or_corrupt(self, tmp_path):
        cache = SynthesisCache()
        assert cache.load(str(tmp_path / "absent.cache")) == 0
        garbage = tmp_path / "garbage.cache"
        garbage.write_bytes(b"not a pickle at all")
        assert cache.load(str(garbage)) == 0

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

    def test_save_is_atomic(self, tmp_path):
        path = str(tmp_path / "topo.cache")
        cache = SynthesisCache()
        cache.topology_families(2, 3)
        cache.save(path)
        assert os.path.exists(path)
        assert not [
            name
            for name in os.listdir(tmp_path)
            if name.endswith(".tmp")
        ]


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

    def test_disabled_returns_fresh(self):
        cache = SynthesisCache(enabled=False)
        a = cache.factorization_engine(4, (6, 8), 64)
        b = cache.factorization_engine(4, (6, 8), 64)
        assert a is not b


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
            timeout=120, cache=SynthesisCache(enabled=False)
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


class TestConcurrentPersistence:
    def test_save_merges_with_families_already_on_disk(self, tmp_path):
        """Two writers sharing one path lose nothing: the second save
        re-reads the file under the lock and merges before replacing."""
        path = str(tmp_path / "topo.cache")
        first = SynthesisCache()
        first.topology_families(2, 3)
        second = SynthesisCache()
        second.topology_families(3, 3)
        first.save(path)
        second.save(path)

        merged = SynthesisCache()
        assert merged.load(path) == 2
        merged.topology_families(2, 3)
        merged.topology_families(3, 3)
        assert merged.topology.hits == 2
        assert merged.topology.misses == 0

    def test_repeated_saves_do_not_duplicate(self, tmp_path):
        path = str(tmp_path / "topo.cache")
        cache = SynthesisCache()
        cache.topology_families(3, 4)
        cache.save(path)
        cache.save(path)
        assert SynthesisCache().load(path) == 1

    def test_save_over_corrupt_file_still_succeeds(self, tmp_path):
        path = tmp_path / "topo.cache"
        path.write_bytes(b"\x00garbage that is not a pickle")
        cache = SynthesisCache()
        cache.topology_families(2, 3)
        cache.save(str(path))
        assert SynthesisCache().load(str(path)) == 1

    def test_parallel_saves_from_threads(self, tmp_path):
        import threading

        path = str(tmp_path / "topo.cache")
        pairs = [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]
        errors = []

        def saver(r, s):
            try:
                cache = SynthesisCache()
                cache.topology_families(r, s)
                cache.save(path)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=saver, args=pair) for pair in pairs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert SynthesisCache().load(path) == len(pairs)

    def test_sanitize_state_drops_malformed_entries(self):
        from repro.cache.topology import TopologyCache

        good = SynthesisCache()
        good.topology_families(2, 3)
        state = good.topology.export_state()
        state["bogus-key"] = "bogus-family"
        state[(1, 2)] = None  # wrong key arity
        clean = TopologyCache.sanitize_state(state)
        assert set(clean) == {(2, 3, True)}
        assert TopologyCache.sanitize_state("not a dict") == {}
