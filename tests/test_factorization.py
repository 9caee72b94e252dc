"""STP matrix-factorization engine tests (Section III-B)."""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.factorization import (
    FactorizationEngine,
    _shape,
    is_complement_closed,
)
from repro.core.spec import Deadline
from repro.runtime.errors import BudgetExceeded
from repro.truthtable import (
    NONTRIVIAL_BINARY_OPS,
    TruthTable,
    apply_binary_op,
    from_function,
    from_hex,
    majority,
    parity,
    projection,
)


def make_engine(num_vars, **kwargs):
    return FactorizationEngine(
        num_vars, NONTRIVIAL_BINARY_OPS, **kwargs
    )


def check_factorization(fac, g_v, num_vars):
    """φ(g_a, g_b) must reproduce g_v on every assignment."""
    for m in range(1 << num_vars):
        a = fac.g_a.value(m)
        b = fac.g_b.value(m)
        assert apply_binary_op(fac.op, a, b) == g_v.value(m)


def composed_demand(rnd, shape):
    """g_v = φ(g_a, g_b) for a random operator and random children over
    the shape's cones, so the demand has factorizations."""
    code = rnd.choice(NONTRIVIAL_BINARY_OPS)
    ga = rnd.getrandbits(shape.size_a)
    gb = rnd.getrandbits(shape.size_b)
    gv = 0
    for gamma in range(1 << shape.nu):
        u = (ga >> shape.amap_list[gamma]) & 1
        v = (gb >> shape.bmap_list[gamma]) & 1
        gv |= ((code >> ((v << 1) | u)) & 1) << gamma
    return gv


class TestComplementClosure:
    def test_nontrivial_set_is_closed(self):
        assert is_complement_closed(NONTRIVIAL_BINARY_OPS)

    def test_and_or_only_not_closed(self):
        assert not is_complement_closed((0x8, 0xE))

    def test_xor_xnor_closed(self):
        assert is_complement_closed((0x6, 0x9))


class TestDisjointFactorization:
    def test_example7_top_factorization(self):
        """0x8ff8 over cones {a,b} and {c,d} factors (Example 7)."""
        f = from_hex("8ff8", 4)
        engine = make_engine(4)
        facs = engine.decompositions(
            f, (2, 3), (0, 1), canonical=False
        )
        assert facs
        for fac in facs:
            check_factorization(fac, f, 4)
        # the paper's first candidate: top OR of and(a,b) and xor(c,d)
        shapes = {
            (fac.op, fac.g_a.bits, fac.g_b.bits) for fac in facs
        }
        and_ab = from_function(lambda a, b, c, d: a and b, 4).bits
        xor_cd = from_function(lambda a, b, c, d: c ^ d, 4).bits
        assert any(
            a == xor_cd and b == and_ab for (_, a, b) in shapes
        )

    def test_non_factorable_three_blocks(self):
        """Example 5.2: three distinct quartering parts — no factors."""
        # f(a,b,c,d) with three distinct cofactor blocks over (c,d).
        f = from_function(
            lambda a, b, c, d: (
                (a and b) if (c, d) == (0, 0)
                else (a or b) if (c, d) == (1, 0)
                else (a ^ b)
            ),
            4,
        )
        engine = make_engine(4)
        assert engine.decompositions(f, (2, 3), (0, 1)) == ()

    def test_support_leak_rejected(self):
        f = from_hex("8ff8", 4)
        engine = make_engine(4)
        assert engine.decompositions(f, (0, 1), (1, 2)) == ()

    @given(st.integers(0, 0xF), st.integers(0, 0xF), st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_composed_functions_factor(self, ga_bits, gb_bits, op_index):
        """φ(g_a(x0,x1), g_b(x2,x3)) must always factor back."""
        code = NONTRIVIAL_BINARY_OPS[op_index]
        g_a = TruthTable(ga_bits, 2)
        g_b = TruthTable(gb_bits, 2)
        if not (g_a.depends_on(0) and g_a.depends_on(1)):
            return
        if not (g_b.depends_on(0) and g_b.depends_on(1)):
            return
        f_bits = 0
        for m in range(16):
            a = g_a.value(m & 3)
            b = g_b.value(m >> 2)
            if apply_binary_op(code, a, b):
                f_bits |= 1 << m
        f = TruthTable(f_bits, 4)
        engine = make_engine(4)
        facs = engine.decompositions(f, (0, 1), (2, 3), canonical=False)
        assert facs
        for fac in facs:
            check_factorization(fac, f, 4)
        # The original pair must be among the factorizations.
        assert any(
            fac.op == code
            and fac.g_a.bits == g_a.extend(4).bits
            and fac.g_b
            == TruthTable(
                sum(
                    1 << m
                    for m in range(16)
                    if g_b.value(m >> 2)
                ),
                4,
            )
            for fac in facs
        )


class TestSharedFactorization:
    def test_maj3_shared_cones(self):
        """MAJ3 = and-or over overlapping cones (power-reduce case)."""
        m = majority(3)
        engine = make_engine(3)
        facs = engine.decompositions(m, (0, 1), (1, 2), canonical=False)
        for fac in facs:
            check_factorization(fac, m, 3)

    def test_xor_with_shared_variable(self):
        f = from_function(lambda a, b, c: (a and b) ^ (a and c), 3)
        engine = make_engine(3)
        facs = engine.decompositions(f, (0, 1), (0, 2), canonical=False)
        assert facs
        for fac in facs:
            check_factorization(fac, f, 3)

    def test_pinned_both_sides(self):
        f = from_function(lambda a, b: a and b, 2)
        engine = make_engine(2)
        facs = engine.decompositions(
            f, (0,), (1,),
            fixed_a=projection(0, 2),
            fixed_b=projection(1, 2),
        )
        assert any(fac.op == 0x8 for fac in facs)

    def test_pinned_one_side(self):
        f = parity(3)
        engine = make_engine(3)
        facs = engine.decompositions(
            f, (0,), (1, 2), fixed_a=projection(0, 3)
        )
        assert facs
        for fac in facs:
            check_factorization(fac, f, 3)

    def test_pinned_inconsistent(self):
        f = from_function(lambda a, b: a and b, 2)
        engine = make_engine(2)
        # A fixed child outside its cone is rejected.
        assert (
            engine.decompositions(
                f, (0,), (1,), fixed_a=projection(1, 2)
            )
            == ()
        )


class TestSharedSolverEquivalence:
    """The cofactor-split shared-cone solver against the arc-consistency
    CSP, on overlapping shapes with a private variable on each side."""

    @staticmethod
    def _random_shape(rnd):
        nu = rnd.choice((3, 4))
        order = list(range(nu))
        rnd.shuffle(order)
        # order[0] is private to A, order[1] private to B, the rest are
        # split at random with at least one variable shared.
        a_pos, b_pos = {order[0], order[2]}, {order[1], order[2]}
        for v in order[3:]:
            side = rnd.randrange(3)
            if side != 1:
                a_pos.add(v)
            if side != 0:
                b_pos.add(v)
        return nu, tuple(sorted(a_pos)), tuple(sorted(b_pos))

    @pytest.mark.parametrize("seed", range(8))
    def test_cofactor_split_matches_csp(self, seed):
        rnd = random.Random(seed)
        nu, a_pos, b_pos = self._random_shape(rnd)
        engine = make_engine(nu)
        shape = _shape(nu, a_pos, b_pos)
        assert not shape.disjoint and shape.shared_info() is not None
        compared = found = 0
        for k in range(8):
            if k % 2:
                gv = rnd.getrandbits(1 << nu)
            else:
                gv = composed_demand(rnd, shape)
            for canonical in (True, False):
                fast = list(engine._solve_shared(gv, shape, canonical))
                csp = list(engine._solve_shared_csp(gv, shape, canonical))
                per_op = [
                    n
                    for sols in (fast, csp)
                    for n in Counter(code for code, _, _ in sols).values()
                ]
                if per_op and max(per_op) >= engine._cap:
                    continue  # capped: the two may keep different subsets
                assert sorted(fast) == sorted(csp), (
                    f"seed={seed} k={k} canonical={canonical}"
                )
                compared += 1
                found += bool(fast)
        assert compared and found


class TestWideSharedFallback:
    """Shapes too wide for the cofactor split reach the CSP through the
    public queries (the flat engine hits them at 5 or more inputs)."""

    def test_csp_polls_the_deadline(self):
        # Both cones span all five inputs; this demand's backtracking
        # runs for seconds when nothing polls the deadline.
        nu, cone = 5, (0, 1, 2, 3, 4)
        shape = _shape(nu, cone, cone)
        assert shape.shared_info() is None
        gv = composed_demand(random.Random(0), shape)
        engine = make_engine(nu)
        engine.bind(Deadline(0.2))
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            engine.decompositions_pairs(gv, engine.pair_info(cone, cone))
        assert time.perf_counter() - started < 2.0
        assert engine.cached_queries == 0  # an aborted solve is not kept

    def test_wide_private_side_answers_are_exact(self):
        nu, cone_a, cone_b = 6, (0, 1, 2, 3, 4, 5), (4, 5)
        shape = _shape(nu, cone_a, cone_b)
        assert shape.shared_info() is None
        engine = make_engine(nu)
        found = 0
        for seed in (0, 3, 4, 8):  # demands that solve in milliseconds
            g_v = TruthTable(composed_demand(random.Random(seed), shape), nu)
            facs = engine.decompositions(g_v, cone_a, cone_b)
            for fac in facs:
                check_factorization(fac, g_v, nu)
            found += bool(facs)
        assert found


class TestCanonicalMode:
    def test_canonical_children_are_normal(self):
        f = from_hex("8ff8", 4)
        engine = make_engine(4)
        for fac in engine.decompositions(f, (0, 1), (2, 3)):
            assert fac.g_a.value(0) == 0
            assert fac.g_b.value(0) == 0

    def test_canonical_subset_of_full(self):
        f = from_hex("8ff8", 4)
        engine = make_engine(4)
        canonical = set(
            (fac.op, fac.g_a.bits, fac.g_b.bits)
            for fac in engine.decompositions(f, (0, 1), (2, 3))
        )
        full = set(
            (fac.op, fac.g_a.bits, fac.g_b.bits)
            for fac in engine.decompositions(
                f, (0, 1), (2, 3), canonical=False
            )
        )
        assert canonical <= full
        assert len(full) >= 2 * len(canonical)

    @given(st.integers(0, 0xFF))
    @settings(max_examples=30, deadline=None)
    def test_feasibility_agrees(self, bits):
        """Canonical mode is feasibility-equivalent to full mode."""
        f = TruthTable(bits, 3)
        engine = make_engine(3)
        canonical = engine.decompositions(f, (0, 1), (1, 2))
        full = engine.decompositions(
            f, (0, 1), (1, 2), canonical=False
        )
        assert bool(canonical) == bool(full)


class TestPrunes:
    def test_constant_children_pruned(self):
        engine = make_engine(3)
        assert engine.prunes_enabled
        f = parity(3)
        for fac in engine.decompositions(
            f, (0, 1), (1, 2), canonical=False
        ):
            assert not fac.g_a.is_constant()
            assert not fac.g_b.is_constant()
            assert fac.g_a.support_size() > 1
            assert fac.g_b.support_size() > 1

    def test_caching_returns_same_object(self):
        """A repeated query is answered from the query memo.  The demand
        has solutions: an empty answer is CPython's one empty tuple, so
        ``is`` would hold without any memo."""
        engine = make_engine(4)
        f = from_hex("8ff8", 4)
        pair = engine.pair_info((0, 1), (2, 3))
        first = engine.decompositions_pairs(f.bits, pair)
        queries = engine.cached_queries
        second = engine.decompositions_pairs(f.bits, pair)
        assert first
        assert second is first
        assert engine.cached_queries == queries
