"""Property-based chain-store invariants (Hypothesis).

Engine-free on purpose: functions come from random chains re-simulated
into truth tables, so these properties stay fast enough for tier 1
while still sweeping the NPN canonicalization, serialization, and
corruption-guard paths with thousands of distinct shapes over time.
The poisoned-store property corrupts either a whole row or one record
at any position of a multi-chain row.  The pick properties pin why a
lookup may choose among a row's chains in canonical space: the costs
it picks by are equal on a chain and on each of its NPN images.

All examples derive from explicitly drawn integer seeds and
``derandomize=True``, so a failure reproduces bit-for-bit from the
printed example alone.
"""

import json
import random
import sqlite3

from hypothesis import assume, given, settings, strategies as st

from repro.chain import BooleanChain
from repro.chain.costs import COST_MODELS, NPN_INVARIANT_COSTS
from repro.chain.transform import npn_transform_record, polarity_variants
from repro.core.spec import SynthesisResult, SynthesisSpec
from repro.store import ChainStore, chain_to_record
from repro.truthtable.npn import NPNTransform

from tests.helpers import assert_chain_realizes, random_chain

_SETTINGS = dict(max_examples=25, deadline=None, derandomize=True)


def _chain_and_function(seed, num_inputs=3):
    rnd = random.Random(seed)
    chain = random_chain(rnd, num_inputs=num_inputs, num_gates=4)
    function = chain.simulate_output()
    result = SynthesisResult(
        spec=SynthesisSpec(function=function),
        chains=[chain],
        num_gates=chain.num_gates,
        runtime=0.0,
    )
    return chain, function, result


def _probe(seed, num_vars):
    rnd = random.Random(seed ^ 0xA5A5)
    perm = list(range(num_vars))
    rnd.shuffle(perm)
    return NPNTransform(
        tuple(perm),
        rnd.getrandbits(num_vars),
        bool(rnd.getrandbits(1)),
    )


class TestRoundTripProperty:
    @given(seed=st.integers(0, 10**9))
    @settings(**_SETTINGS)
    def test_put_then_lookup_any_orbit_member(self, seed, tmp_path_factory):
        """put(f) → lookup(T(f)) serves chains that realize T(f), at
        the recorded gate count, for a random orbit member T."""
        _, function, result = _chain_and_function(seed)
        member = _probe(seed, function.num_vars).apply(function)
        db = tmp_path_factory.mktemp("store") / "chains.db"
        with ChainStore(db) as store:
            assert store.put(function, result, engine="prop")
            served = store.lookup(member)
            assert served is not None
            assert served.num_gates == result.num_gates
            for chain in served.chains:
                assert_chain_realizes(member, chain)

    @given(seed=st.integers(0, 10**9))
    @settings(**_SETTINGS)
    def test_put_is_idempotent(self, seed, tmp_path_factory):
        _, function, result = _chain_and_function(seed)
        db = tmp_path_factory.mktemp("store") / "chains.db"
        with ChainStore(db) as store:
            assert store.put(function, result, engine="prop")
            assert store.put(function, result, engine="prop")
            served = store.lookup(function)
            signatures = [c.signature() for c in served.chains]
            assert len(signatures) == len(set(signatures))


class TestPoisonedStoreProperty:
    @given(
        seed=st.integers(0, 10**9),
        position=st.one_of(st.none(), st.integers(0, 15)),
    )
    @settings(**_SETTINGS)
    def test_never_serves_a_wrong_chain(
        self, seed, position, tmp_path_factory
    ):
        """Poison a multi-chain row -- the whole row (``position`` None)
        or the one record at ``position`` -- with a chain for a
        different function: the lookup must degrade to a miss (or, at
        minimum, never serve a chain that fails to realize the query).
        """
        chain, function, _ = _chain_and_function(seed)
        assume(0 < function.count_ones() < function.num_rows)
        # Polarity variants: one solution set of several chains.
        chains = list(polarity_variants(chain, max_variants=4))
        result = SynthesisResult(
            spec=SynthesisSpec(function=function),
            chains=chains,
            num_gates=chain.num_gates,
            runtime=0.0,
        )
        db = tmp_path_factory.mktemp("store") / "chains.db"
        with ChainStore(db) as store:
            assert store.put(function, result, engine="prop")

        wrong = BooleanChain(function.num_vars)
        wrong.set_output(wrong.add_gate(0x0, (0, 1)))  # constant 0
        conn = sqlite3.connect(db)
        with conn:
            (payload,) = conn.execute(
                "SELECT solutions FROM chains"
            ).fetchone()
            records = json.loads(payload)
            if position is None:
                records = [chain_to_record(wrong)]
            else:
                records[position % len(records)] = chain_to_record(wrong)
            conn.execute(
                "UPDATE chains SET solutions = ?", (json.dumps(records),)
            )
        conn.close()

        with ChainStore(db) as store:
            served = store.lookup(function)
            if served is None:
                assert store.misses == 1
                assert store.quarantined == 1
            else:  # pragma: no cover - guard regression would land here
                for chain in served.chains:
                    assert_chain_realizes(function, chain)
        assert served is None, "corruption guard served a poisoned row"


def _image(chain, transform):
    """``chain`` rewritten through an NPN transform."""
    return BooleanChain.from_record(
        npn_transform_record(
            chain.signature(),
            transform.perm,
            transform.input_flips,
            (transform.output_flip,),
        )
    )


class TestPickProperty:
    @given(seed=st.integers(0, 10**9))
    @settings(**_SETTINGS)
    def test_invariant_costs_survive_any_npn_transform(self, seed):
        chain = random_chain(random.Random(seed), num_inputs=4, num_gates=5)
        transform = _probe(seed, 4)
        image = _image(chain, transform)
        assert image.simulate_output() == transform.apply(
            chain.simulate_output()
        )
        for name in NPN_INVARIANT_COSTS:
            assert COST_MODELS[name](image) == COST_MODELS[name](chain)

    def test_the_other_costs_move(self):
        """One counterexample per cost left out of the invariant set."""
        chain = BooleanChain(2)
        chain.set_output(chain.add_gate(0x8, (0, 1)))  # x0 & x1
        moves = {
            "inverters": NPNTransform((0, 1), 0, True),
            "weighted": NPNTransform((0, 1), 0b01, False),
        }
        for name, transform in moves.items():
            image = _image(chain, transform)
            assert COST_MODELS[name](image) != COST_MODELS[name](chain)
        assert set(COST_MODELS) == set(NPN_INVARIANT_COSTS) | set(moves)

    @given(seed=st.integers(0, 10**9))
    @settings(**_SETTINGS)
    def test_pick_lookup_serves_the_min_of_the_full_one(
        self, seed, tmp_path_factory
    ):
        """lookup(T(f), pick=c) serves exactly the chain min(lookup(T(f))
        .chains, key=c) chooses, for a random orbit member T."""
        chain, function, _ = _chain_and_function(seed)
        chains = list(polarity_variants(chain, max_variants=8))
        result = SynthesisResult(
            spec=SynthesisSpec(function=function),
            chains=chains,
            num_gates=chain.num_gates,
            runtime=0.0,
        )
        member = _probe(seed, function.num_vars).apply(function)
        db = tmp_path_factory.mktemp("store") / "chains.db"
        with ChainStore(db) as store:
            assert store.put(function, result, engine="prop")
            full = store.lookup(member)
            for name in sorted(NPN_INVARIANT_COSTS):
                picked = store.lookup(member, pick=name)
                best = min(full.chains, key=COST_MODELS[name])
                assert [c.signature() for c in picked.chains] == [
                    best.signature()
                ]
                assert_chain_realizes(member, picked.chains[0])
