"""The CEGIS engine: sample-grown exact synthesis."""

import pytest

from repro.core.cegis import CegisSynthesizer, cegis_synthesize
from repro.engine import run_engine
from repro.runtime.errors import BudgetExceeded, SynthesisInfeasible
from repro.truthtable import from_hex, majority, parity


def assert_realizes(result, function):
    for chain in result.chains:
        assert chain.simulate_output() == function


class TestExactness:
    @pytest.mark.parametrize(
        "hexval,num_vars,optimum",
        [
            ("8ff8", 4, 3),  # the paper's worked example
            ("e8", 3, 4),  # majority-3
            ("96", 3, 2),  # parity-3
            ("6996", 4, 3),  # parity-4
            ("1", 2, 1),
            ("0000", 4, 0),  # constant: trivial chain
            ("aaaa", 4, 0),  # projection: trivial chain
        ],
    )
    def test_matches_known_optima(self, hexval, num_vars, optimum):
        function = from_hex(hexval, num_vars)
        result = cegis_synthesize(function, timeout=120)
        assert result.num_gates == optimum
        assert_realizes(result, function)

    def test_agrees_with_fen_on_random_functions(self):
        import random

        rng = random.Random(7)
        for _ in range(8):
            function = from_hex(f"{rng.randrange(1 << 8):02x}", 3)
            ours = cegis_synthesize(function, timeout=120)
            fen = run_engine("fen", function, timeout=120)
            assert ours.num_gates == fen.num_gates, function.to_hex()
            assert_realizes(ours, function)

    @pytest.mark.slow
    def test_agrees_with_fen_on_random_4var_functions(self):
        # Hard 4-var functions take minutes (CEGIS is a cross-check,
        # not a contender on every class; the third seed-7 draw stalls
        # even fen), so the 4-var sweep is slow-tier and stops at two
        # draws.
        import random

        rng = random.Random(7)
        for _ in range(2):
            function = from_hex(f"{rng.randrange(1 << 16):04x}", 4)
            ours = cegis_synthesize(function, timeout=300)
            fen = run_engine("fen", function, timeout=300)
            assert ours.num_gates == fen.num_gates, function.to_hex()
            assert_realizes(ours, function)

    def test_registry_dispatch(self):
        result = run_engine("cegis", majority(3), timeout=120)
        assert result.num_gates == 4
        assert_realizes(result, majority(3))


class TestRefinement:
    def test_sample_stays_a_strict_subset_on_structure(self):
        # On a structured function the whole point of CEGIS is that the
        # final sample is far smaller than the full row set.
        function = parity(4)
        synth = CegisSynthesizer(initial_samples=4, refine_batch=4)
        result = synth.synthesize(function, timeout=120)
        assert result.num_gates == 3
        # candidates_generated counts solver calls: bounded rounds,
        # not one per row.
        assert result.stats.candidates_generated < function.num_rows

    def test_deterministic_across_runs(self):
        function = from_hex("8ff8", 4)
        first = cegis_synthesize(function, timeout=120)
        second = cegis_synthesize(function, timeout=120)
        assert first.num_gates == second.num_gates
        assert [c.signature() for c in first.chains] == [
            c.signature() for c in second.chains
        ]


class TestLimits:
    def test_gate_cap_raises_infeasible(self):
        synth = CegisSynthesizer(max_gates=1)
        with pytest.raises(SynthesisInfeasible):
            synth.synthesize(from_hex("8ff8", 4), timeout=120)

    def test_timeout_raises_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            cegis_synthesize(from_hex("0016", 4), timeout=0.02)
