"""Multi-output specs, joint canonicalization, and shared synthesis."""

import random

import pytest

from repro.chain import (
    extract_output_cone,
    merge_chains_shared,
    npn_transform_chain,
)
from repro.core import synthesize_all, verify_chain_outputs
from repro.core.spec import SynthesisSpec
from repro.engine import create_engine
from repro.kernels import chain_output_onsets
from repro.runtime.errors import SynthesisInfeasible
from repro.truthtable import TruthTable, from_hex
from repro.truthtable.npn import (
    MultiNPNTransform,
    canonicalize_multi,
)

XOR = from_hex("6", 2)
AND = from_hex("8", 2)
OR = from_hex("e", 2)
MAJ = from_hex("e8", 3)
FA_SUM = from_hex("96", 3)


def random_transform(rng, num_vars, num_outputs):
    perm = list(range(num_vars))
    rng.shuffle(perm)
    return MultiNPNTransform(
        tuple(perm),
        rng.getrandbits(num_vars),
        tuple(bool(rng.getrandbits(1)) for _ in range(num_outputs)),
    )


class TestSpec:
    def test_single_output_round_trip(self):
        spec = SynthesisSpec(function=XOR)
        assert spec.functions == (XOR,)
        assert not spec.is_multi_output
        assert spec.num_outputs == 1

    def test_functions_only(self):
        spec = SynthesisSpec(functions=(XOR, AND))
        assert spec.function == XOR
        assert spec.is_multi_output
        assert spec.num_outputs == 2

    def test_output_spec_projects(self):
        spec = SynthesisSpec(functions=(XOR, AND))
        single = spec.output_spec(1)
        assert single.function == AND
        assert not single.is_multi_output

    def test_mismatched_arity_rejected(self):
        with pytest.raises(ValueError):
            SynthesisSpec(functions=(XOR, MAJ))

    def test_inconsistent_function_rejected(self):
        with pytest.raises(ValueError):
            SynthesisSpec(function=AND, functions=(XOR, AND))


class TestCanonicalizeMulti:
    def test_orbit_invariance(self):
        rng = random.Random(11)
        base = (MAJ, FA_SUM)
        canon, _ = canonicalize_multi(base)
        for _ in range(20):
            t = random_transform(rng, 3, 2)
            member = t.apply(base)
            canon2, tr2 = canonicalize_multi(member)
            assert [c.bits for c in canon2] == [c.bits for c in canon]
            # transform maps the member onto its canonical form
            assert tuple(tr2.apply(member)) == tuple(canon2)

    def test_inverse_round_trips(self):
        rng = random.Random(5)
        for _ in range(10):
            tables = tuple(
                TruthTable(rng.getrandbits(16), 4) for _ in range(3)
            )
            canon, transform = canonicalize_multi(tables)
            back = transform.inverse().apply(canon)
            assert tuple(back) == tuple(tables)

    def test_single_output_matches_npn_canonical(self):
        from repro.truthtable.npn import canonicalize

        canon, transform = canonicalize_multi((MAJ,))
        expected, single = canonicalize(MAJ)
        assert canon[0] == expected
        assert transform.component(0).apply(MAJ) == expected
        assert single.apply(MAJ) == expected


class TestTransformChainMulti:
    def test_transform_preserves_gate_count_and_semantics(self):
        rng = random.Random(7)
        chains = [synthesize_all(MAJ)[0], synthesize_all(FA_SUM)[0]]
        merged = merge_chains_shared(chains)
        for _ in range(10):
            t = random_transform(rng, 3, 2)
            rewritten = npn_transform_chain(merged, t)
            assert rewritten.num_gates == merged.num_gates
            expect = t.apply((MAJ, FA_SUM))
            assert verify_chain_outputs(rewritten, expect)


class TestSharedSynthesis:
    @pytest.mark.parametrize("engine", ["stp", "cegis", "fen"])
    def test_engines_synthesize_vectors(self, engine):
        spec = SynthesisSpec(
            functions=(FA_SUM, MAJ), all_solutions=True
        )
        result = create_engine(engine).synthesize(spec)
        chain = result.chains[0]
        assert len(chain.outputs) == 2
        assert verify_chain_outputs(chain, (FA_SUM, MAJ))

    def test_duplicate_outputs_share_everything(self):
        spec = SynthesisSpec(functions=(MAJ, MAJ, MAJ))
        result = create_engine("stp").synthesize(spec)
        chain = result.chains[0]
        single = create_engine("stp").synthesize(
            SynthesisSpec(function=MAJ)
        )
        assert chain.num_gates == single.num_gates
        assert verify_chain_outputs(chain, (MAJ, MAJ, MAJ))

    def test_complement_outputs_share_interior(self):
        spec = SynthesisSpec(functions=(MAJ, ~MAJ), all_solutions=True)
        chain = create_engine("stp").synthesize(spec).chains[0]
        single = create_engine("stp").synthesize(
            SynthesisSpec(function=MAJ)
        )
        # The complement's chains re-use MAJ's interior; only the
        # final gate differs (output negation lives in the gate code,
        # not the output flag), so at most one extra gate is needed.
        assert chain.num_gates <= single.num_gates + 1
        assert verify_chain_outputs(chain, (MAJ, ~MAJ))

    def test_gate_cap_enforced_jointly(self):
        spec = SynthesisSpec(functions=(FA_SUM, MAJ), max_gates=1)
        with pytest.raises(SynthesisInfeasible):
            create_engine("stp").synthesize(spec)

    def test_cone_extraction_recovers_per_output_optimum(self):
        spec = SynthesisSpec(
            functions=(FA_SUM, MAJ), all_solutions=True
        )
        chain = create_engine("stp").synthesize(spec).chains[0]
        for index, target in enumerate((FA_SUM, MAJ)):
            cone = extract_output_cone(chain, index)
            assert cone.simulate_output() == target
            optimum = create_engine("stp").synthesize(
                SynthesisSpec(function=target)
            )
            assert cone.num_gates == optimum.num_gates


class TestSharedKernel:
    def test_output_onsets_match_simulation(self):
        chains = [synthesize_all(f)[0] for f in (MAJ, FA_SUM, ~MAJ)]
        merged = merge_chains_shared(chains)
        onsets = chain_output_onsets(merged)
        simulated = merged.simulate()
        assert onsets == [t.bits for t in simulated]

    def test_const0_outputs(self):
        from repro.chain import BooleanChain

        chain = BooleanChain(2)
        chain.set_output(BooleanChain.CONST0, complemented=False)
        chain.set_output(BooleanChain.CONST0, complemented=True)
        onsets = chain_output_onsets(chain)
        assert onsets == [0, 0b1111]
        assert verify_chain_outputs(
            chain, (TruthTable(0, 2), TruthTable(0b1111, 2))
        )
