"""Chain rewrite tests: support shrinking/lifting, polarity flips and
the chain-level NPN transform."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import BooleanChain
from repro.chain.transform import (
    flip_signal,
    lift_chain,
    npn_transform_chain,
    polarity_variants,
    shrink_to_support,
    trivial_chain,
)
from repro.core import synthesize
from repro.truthtable import (
    NPNTransform,
    TruthTable,
    constant,
    from_function,
    majority,
    projection,
)

from tests.helpers import random_chain


class TestShrinkLift:
    def test_shrink_identity_on_full_support(self):
        t = TruthTable(0x8FF8, 4)
        local, support = shrink_to_support(t)
        assert local == t and support == (0, 1, 2, 3)

    def test_shrink_removes_vacuous(self):
        t = from_function(lambda a, b, c, d: a ^ c, 4)
        local, support = shrink_to_support(t)
        assert support == (0, 2)
        assert local == from_function(lambda a, c: a ^ c, 2)

    def test_lift_roundtrip(self):
        t = from_function(lambda a, b, c, d: (a and d) or c, 4)
        local, support = shrink_to_support(t)
        chain = BooleanChain(len(support))
        s = chain.add_gate(0x8, (0, 2))
        s2 = chain.add_gate(0xE, (s, 1))
        chain.set_output(s2)
        assert chain.simulate_output() == local
        lifted = lift_chain(chain, 4, support)
        assert lifted.num_inputs == 4
        assert lifted.simulate_output() == t

    def test_lift_const_output(self):
        chain = BooleanChain(1)
        chain.set_output(BooleanChain.CONST0, True)
        lifted = lift_chain(chain, 3, (1,))
        assert lifted.simulate_output() == constant(1, 3)


class TestTrivialChain:
    def test_constants(self):
        c0 = trivial_chain(constant(0, 3))
        c1 = trivial_chain(constant(1, 3))
        assert c0.simulate_output() == constant(0, 3)
        assert c1.simulate_output() == constant(1, 3)

    def test_projections(self):
        p = projection(2, 4)
        assert trivial_chain(p).simulate_output() == p
        assert trivial_chain(~p).simulate_output() == ~p

    def test_nontrivial_returns_none(self):
        assert trivial_chain(TruthTable(0x8, 2)) is None


class TestFlipSignal:
    @given(st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_flip_preserves_outputs(self, seed):
        rnd = random.Random(seed)
        chain = random_chain(rnd)
        signal = chain.num_inputs + rnd.randrange(chain.num_gates)
        flipped = flip_signal(chain, signal)
        assert flipped.simulate() == chain.simulate()

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_flip_is_involution(self, seed):
        rnd = random.Random(seed)
        chain = random_chain(rnd)
        signal = chain.num_inputs + rnd.randrange(chain.num_gates)
        twice = flip_signal(flip_signal(chain, signal), signal)
        assert twice.signature() == chain.signature()

    def test_flip_changes_internal_function(self):
        chain = BooleanChain(2)
        s = chain.add_gate(0x8, (0, 1))
        s2 = chain.add_gate(0x6, (0, s))
        chain.set_output(s2)
        flipped = flip_signal(chain, s)
        assert flipped.gate(s).op == 0x7  # and → nand
        assert flipped.simulate_output() == chain.simulate_output()

    def test_flip_output_signal_toggles_flag(self):
        chain = BooleanChain(2)
        s = chain.add_gate(0x8, (0, 1))
        chain.set_output(s)
        flipped = flip_signal(chain, s)
        assert flipped.outputs[0][1] is True
        assert flipped.simulate_output() == chain.simulate_output()

    def test_flip_pi_rejected(self):
        chain = BooleanChain(2)
        chain.add_gate(0x8, (0, 1))
        chain.set_output(2)
        with pytest.raises(ValueError):
            flip_signal(chain, 0)


class TestPolarityVariants:
    def test_count_and_distinctness(self):
        chain = BooleanChain(3)
        s3 = chain.add_gate(0x8, (0, 1))
        s4 = chain.add_gate(0x6, (2, s3))
        chain.set_output(s4)
        variants = list(polarity_variants(chain))
        assert len(variants) == 4  # 2^2 internal signals
        signatures = {v.signature() for v in variants}
        assert len(signatures) == 4
        target = chain.simulate_output()
        for v in variants:
            assert v.simulate_output() == target

    def test_cap(self):
        rnd = random.Random(0)
        chain = random_chain(rnd, num_gates=6)
        variants = list(polarity_variants(chain, max_variants=10))
        assert len(variants) == 10

    def test_first_variant_is_original(self):
        rnd = random.Random(1)
        chain = random_chain(rnd)
        first = next(iter(polarity_variants(chain)))
        assert first.signature() == chain.signature()


class TestChainTransform:
    def test_identity_transform(self):
        result = synthesize(majority(3), timeout=60, max_solutions=2)
        chain = result.chains[0]
        same = npn_transform_chain(
            chain, NPNTransform.identity(3)
        )
        assert same.simulate_output() == chain.simulate_output()

    def test_random_transforms_track_semantics(self):
        rnd = random.Random(3)
        for _ in range(20):
            chain = random_chain(rnd, num_inputs=4, num_gates=4)
            perm = list(range(4))
            rnd.shuffle(perm)
            transform = NPNTransform(
                tuple(perm), rnd.getrandbits(4), bool(rnd.getrandbits(1))
            )
            moved = npn_transform_chain(chain, transform)
            want = transform.apply(chain.simulate_output())
            assert moved.simulate_output() == want
            assert moved.num_gates == chain.num_gates

    def test_pi_output_chain(self):
        from repro.chain import BooleanChain

        chain = BooleanChain(3)
        chain.set_output(1)  # f = x1
        transform = NPNTransform((2, 0, 1), 0b010, False)
        moved = npn_transform_chain(chain, transform)
        assert moved.simulate_output() == transform.apply(
            chain.simulate_output()
        )

    def test_arity_mismatch(self):
        rnd = random.Random(0)
        chain = random_chain(rnd, num_inputs=4)
        with pytest.raises(ValueError):
            npn_transform_chain(chain, NPNTransform.identity(3))
