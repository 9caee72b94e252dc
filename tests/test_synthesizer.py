"""End-to-end tests of the flat STP exact synthesizer."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.core import synthesize, verify_chain
from repro.truthtable import (
    TruthTable,
    constant,
    from_function,
    from_hex,
    majority,
    parity,
    projection,
)

KNOWN_SIZES = [
    ("and2", from_hex("8", 2), 1),
    ("or2", from_hex("e", 2), 1),
    ("xor2", from_hex("6", 2), 1),
    ("xor3", parity(3), 2),
    ("and3", from_function(lambda a, b, c: a and b and c, 3), 2),
    ("maj3", majority(3), 4),
    ("example7", from_hex("8ff8", 4), 3),
    ("mux", from_function(lambda s, a, b: b if s else a, 3), 3),
]


class TestKnownOptima:
    @pytest.mark.parametrize("name,f,size", KNOWN_SIZES)
    def test_gate_count(self, name, f, size):
        result = synthesize(f, timeout=120)
        assert result.num_gates == size

    @pytest.mark.parametrize("name,f,size", KNOWN_SIZES)
    def test_all_chains_realise_target(self, name, f, size):
        result = synthesize(f, timeout=120)
        assert result.num_solutions >= 1
        for chain in result.chains:
            assert chain.num_gates == size
            assert chain.simulate_output() == f
            assert verify_chain(chain, f)

    def test_solutions_distinct(self):
        result = synthesize(majority(3), timeout=120)
        signatures = {c.signature() for c in result.chains}
        assert len(signatures) == result.num_solutions


class TestTrivialFunctions:
    def test_constants(self):
        for value in (0, 1):
            result = synthesize(constant(value, 3))
            assert result.num_gates == 0
            assert result.chains[0].simulate_output() == constant(value, 3)

    def test_projections(self):
        for n in (1, 3):
            for v in range(n):
                for comp in (False, True):
                    f = projection(v, n, complemented=comp)
                    result = synthesize(f)
                    assert result.num_gates == 0
                    assert result.chains[0].simulate_output() == f

    def test_vacuous_variables_reattached(self):
        f = from_function(lambda a, b, c, d: b and d, 4)
        result = synthesize(f, timeout=60)
        assert result.num_gates == 1
        chain = result.chains[0]
        assert chain.num_inputs == 4
        assert chain.simulate_output() == f


class TestAgainstBaselines:
    @given(st.integers(0, 0xFF))
    @settings(max_examples=15, deadline=None)
    def test_optimum_matches_bms_3var(self, bits):
        from repro.engine import run_engine

        f = TruthTable(bits, 3)
        stp = synthesize(f, timeout=120)
        bms = run_engine("bms", f, timeout=120)
        assert stp.num_gates == bms.num_gates

    @pytest.mark.parametrize(
        "hex_bits", ["8ff8", "1ee1", "6996", "177e"]
    )
    def test_optimum_matches_fen_4var(self, hex_bits):
        from repro.engine import run_engine
        from repro.runtime.errors import BudgetExceeded

        f = from_hex(hex_bits, 4)
        try:
            fen = run_engine("fen", f, timeout=60)
        except BudgetExceeded:
            # The pure-Python CNF baseline cannot finish the hardest
            # classes (e.g. 0x177e) in any sane budget; a recorded
            # skip beats wedging the tier-1 suite.
            pytest.skip(f"FEN exceeded its budget on 0x{hex_bits}")
        stp = synthesize(f, timeout=180, max_solutions=8)
        assert stp.num_gates == fen.num_gates


class TestModesAndLimits:
    def test_first_solution_mode(self):
        result = synthesize(majority(3), timeout=120, all_solutions=False)
        assert result.num_solutions == 1
        assert result.chains[0].simulate_output() == majority(3)

    def test_max_solutions_cap(self):
        result = synthesize(majority(3), timeout=120, max_solutions=5)
        assert result.num_solutions <= 5

    def test_timeout_raises(self):
        with pytest.raises(TimeoutError):
            synthesize(from_hex("cafe", 4), timeout=0.05)

    def test_gate_cap_raises(self):
        with pytest.raises(RuntimeError):
            synthesize(
                majority(3), timeout=120, max_gates=2, all_solutions=False
            )

    def test_stats_populated(self):
        result = synthesize(parity(3), timeout=60)
        assert result.stats.dags_examined >= 1
        assert result.stats.fences_examined >= 1
        # Verification runs on normal-form candidates; the solution set
        # is their polarity expansion, so it can only be larger.
        assert 1 <= result.stats.candidates_verified <= result.num_solutions
        assert result.stats.verification_failures == 0

    def test_no_verify_mode(self):
        result = synthesize(parity(3), timeout=60, verify=False)
        assert all(
            c.simulate_output() == parity(3) for c in result.chains
        )

    def test_mean_time_per_solution(self):
        result = synthesize(parity(3), timeout=60)
        assert result.mean_time_per_solution() <= result.runtime

    def test_best_accessor(self):
        result = synthesize(parity(3), timeout=60)
        assert result.best is result.chains[0]


class TestPolarityExpansion:
    def test_counts_are_polarity_multiples(self):
        """maj3's 360 solutions = 45 normal chains × 2^3 flips."""
        result = synthesize(majority(3), timeout=120)
        assert result.num_solutions == 360
        normal = [
            c
            for c in result.chains
            if all(
                t.value(0) == 0
                for t in c.simulate_signals()[c.num_inputs:]
            )
        ]
        assert len(normal) * (1 << 3) == 360

    def test_xor3_six_solutions(self):
        result = synthesize(parity(3), timeout=60)
        assert result.num_solutions == 6

    def test_example7_four_solutions(self):
        result = synthesize(from_hex("8ff8", 4), timeout=60)
        assert result.num_solutions == 4
