"""The staged synthesis pipeline: stage stats, contexts, NPN mode,
and the chain-level helpers (don't-care canonicalization, dedup)."""

import random

import pytest

from repro.chain import BooleanChain
from repro.chain.transform import npn_transform_chain
from repro.core import SynthesisContext, SynthesisSpec, run_pipeline
from repro.core.pipeline import canonicalize_dont_cares, dedup_chains
from repro.core.synthesizer import synthesize
from repro.runtime.errors import BudgetExceeded
from repro.truthtable import from_hex, majority, parity
from repro.truthtable.npn import NPNTransform, canonicalize

EXAMPLE7 = from_hex("8ff8", 4)


class TestStageAccounting:
    def test_stage_timers_populated(self):
        result = run_pipeline(SynthesisSpec(function=EXAMPLE7, timeout=120))
        stages = set(result.stats.stage_seconds)
        assert {"normalize", "topology", "search", "expand", "finalize"} <= (
            stages
        )
        assert all(v >= 0.0 for v in result.stats.stage_seconds.values())

    def test_trivial_functions_skip_search(self):
        result = run_pipeline(SynthesisSpec(function=from_hex("a", 2)))
        assert result.num_gates == 0
        assert "search" not in result.stats.stage_seconds

    def test_stats_to_record_is_json_safe(self):
        import json

        from repro.cache import SynthesisCache

        # A private cold cache: hit/miss counts must not depend on what
        # earlier tests left in the process-global cache.
        ctx = SynthesisContext.create(timeout=120, cache=SynthesisCache())
        result = run_pipeline(
            SynthesisSpec(function=parity(3), timeout=120), ctx
        )
        record = result.stats.to_record()
        assert json.loads(json.dumps(record)) == record
        assert record["cache_misses"]

    def test_context_child_nests_deadline(self):
        ctx = SynthesisContext.create(timeout=100)
        child = ctx.child(timeout=5)
        assert child.deadline.limit <= 5
        assert child.cache is ctx.cache
        assert child.stats is ctx.stats
        fresh = ctx.child(fresh_stats=True)
        assert fresh.stats is not ctx.stats

    def test_deadline_expires(self):
        ctx = SynthesisContext.create(timeout=0.0)
        with pytest.raises(BudgetExceeded):
            run_pipeline(
                SynthesisSpec(function=EXAMPLE7, timeout=0.0), ctx
            )


class TestNPNCanonicalizeMode:
    @pytest.mark.parametrize("hex_bits", ["1ee1", "0357", "6996"])
    def test_same_optimum_and_solution_set(self, hex_bits):
        f = from_hex(hex_bits, 4)
        plain = run_pipeline(
            SynthesisSpec(function=f, timeout=120, max_solutions=500)
        )
        via_npn = run_pipeline(
            SynthesisSpec(
                function=f,
                timeout=120,
                max_solutions=500,
                npn_canonicalize=True,
            )
        )
        assert plain.num_gates == via_npn.num_gates
        assert {c.signature() for c in plain.chains} == {
            c.signature() for c in via_npn.chains
        }

    def test_synthesizer_exposes_flag(self):
        result = synthesize(
            majority(3), timeout=120, npn_canonicalize=True, max_solutions=64
        )
        assert result.num_gates == 4
        for chain in result.chains:
            assert chain.simulate_output() == majority(3)


class TestChainNPNTransform:
    def test_roundtrip_on_synthesized_chains(self):
        f = from_hex("cafe", 4)
        rep, transform = canonicalize(f)
        result = run_pipeline(
            SynthesisSpec(function=rep, timeout=120, max_solutions=16)
        )
        inverse = transform.inverse()
        for chain in result.chains:
            assert chain.simulate_output() == rep
            back = npn_transform_chain(chain, inverse)
            assert back.simulate_output() == f
            assert back.num_gates == chain.num_gates

    def test_random_transforms(self):
        rnd = random.Random(99)
        f = parity(3)
        result = run_pipeline(
            SynthesisSpec(function=f, timeout=120, max_solutions=4)
        )
        chain = result.chains[0]
        for _ in range(20):
            perm = list(range(3))
            rnd.shuffle(perm)
            transform = NPNTransform(
                tuple(perm), rnd.randrange(8), bool(rnd.getrandbits(1))
            )
            moved = npn_transform_chain(chain, transform)
            assert moved.simulate_output() == transform.apply(f)


class TestDedup:
    def test_removes_signature_duplicates(self):
        result = run_pipeline(
            SynthesisSpec(function=majority(3), timeout=120)
        )
        chains = result.chains
        doubled = chains + list(chains)
        unique = dedup_chains(doubled)
        assert [c.signature() for c in unique] == [
            c.signature() for c in chains
        ]

    def test_preserves_first_occurrence_order(self):
        a = BooleanChain(2)
        a.add_gate(0x8, (0, 1))
        a.set_output(2)
        b = BooleanChain(2)
        b.add_gate(0xE, (0, 1))
        b.set_output(2)
        assert dedup_chains([a, b, a, b, a]) == [a, b]


class TestCanonicalizeDontCares:
    def test_chains_differing_only_in_dont_cares_collapse(self):
        # Gate 2 reads (g0, g0): rows 01 and 10 can never be exercised,
        # so two chains differing only there are behaviourally equal.
        first = BooleanChain(2)
        g0 = first.add_gate(0x8, (0, 1))  # AND
        first.add_gate(0x6, (g0, g0))  # XOR: rows 01/10 set (unreachable)
        first.set_output(3)

        second = BooleanChain(2)
        g0 = second.add_gate(0x8, (0, 1))
        second.add_gate(0x0, (g0, g0))  # constant-0 LUT
        second.set_output(3)

        assert first.simulate_output() == second.simulate_output()
        assert first.signature() != second.signature()
        fixed_first = canonicalize_dont_cares(first)
        fixed_second = canonicalize_dont_cares(second)
        assert fixed_first.signature() == fixed_second.signature()
        assert len(dedup_chains([fixed_first, fixed_second])) == 1

    def test_behaviour_unchanged(self):
        result = run_pipeline(
            SynthesisSpec(function=EXAMPLE7, timeout=120, max_solutions=32)
        )
        for chain in result.chains:
            fixed = canonicalize_dont_cares(chain)
            assert fixed.simulate_output() == chain.simulate_output()
            # Idempotent: already-canonical chains are fixed points.
            assert (
                canonicalize_dont_cares(fixed).signature()
                == fixed.signature()
            )

    def test_keeps_reachable_rows(self):
        chain = BooleanChain(2)
        chain.add_gate(0x6, (0, 1))  # XOR over independent inputs
        chain.set_output(2)
        fixed = canonicalize_dont_cares(chain)
        assert fixed.gates[0].op == 0x6  # all four rows reachable
