"""Hierarchical (DSD-first) synthesizer tests."""

import pytest

from repro.core import hierarchical_synthesize, synthesize
from repro.truthtable import (
    constant,
    fdsd_suite,
    from_function,
    from_hex,
    majority,
    parity,
    pdsd_suite,
    projection,
)


class TestFullyDSD:
    def test_fdsd_gate_count_is_support_minus_one(self):
        for f in fdsd_suite(6, 6, seed=13):
            result = hierarchical_synthesize(
                f, timeout=60, max_solutions=8
            )
            assert result.num_gates == f.support_size() - 1
            for chain in result.chains:
                assert chain.simulate_output() == f

    def test_fdsd8(self):
        for f in fdsd_suite(8, 2, seed=13):
            result = hierarchical_synthesize(
                f, timeout=60, max_solutions=4
            )
            assert result.num_gates == 7
            assert result.chains[0].simulate_output() == f

    def test_agrees_with_flat_engine(self):
        f = from_hex("8ff8", 4)
        hier = hierarchical_synthesize(f, timeout=60, max_solutions=4)
        flat = synthesize(f, timeout=60, max_solutions=4)
        assert hier.num_gates == flat.num_gates == 3


class TestPartialDSD:
    def test_pdsd_instances(self):
        for f in pdsd_suite(6, 3, seed=13):
            result = hierarchical_synthesize(
                f, timeout=120, max_solutions=8
            )
            for chain in result.chains:
                assert chain.simulate_output() == f

    def test_prime_function_falls_back_to_flat(self):
        result = hierarchical_synthesize(
            majority(3), timeout=120, max_solutions=64
        )
        flat = synthesize(majority(3), timeout=120, max_solutions=64)
        assert result.num_gates == flat.num_gates == 4
        for chain in result.chains:
            assert chain.simulate_output() == majority(3)

    def test_nested_structure(self):
        f = from_function(
            lambda a, b, c, d, e: int((a + b + c >= 2)) ^ (d and e), 5
        )
        result = hierarchical_synthesize(f, timeout=120, max_solutions=8)
        assert result.chains[0].simulate_output() == f
        # maj3 (4 gates) + and (1) + xor (1) = 6 gates
        assert result.num_gates == 6


class TestModes:
    def test_trivial_functions(self):
        assert hierarchical_synthesize(constant(0, 3)).num_gates == 0
        assert hierarchical_synthesize(projection(1, 4)).num_gates == 0

    def test_vacuous_variables(self):
        f = from_function(lambda a, b, c, d: b ^ d, 4)
        result = hierarchical_synthesize(f, timeout=60)
        assert result.num_gates == 1
        assert result.chains[0].simulate_output() == f

    def test_first_solution_mode(self):
        result = hierarchical_synthesize(
            parity(4), timeout=60, all_solutions=False
        )
        assert result.num_solutions == 1

    def test_max_solutions_cap(self):
        result = hierarchical_synthesize(
            parity(4), timeout=60, max_solutions=6
        )
        assert result.num_solutions <= 6

    def test_solution_set_distinct_and_valid(self):
        f = parity(4)
        result = hierarchical_synthesize(f, timeout=60, max_solutions=32)
        signatures = {c.signature() for c in result.chains}
        assert len(signatures) == result.num_solutions
        for chain in result.chains:
            assert chain.simulate_output() == f
            assert chain.num_gates == result.num_gates

    def test_timeout_propagates(self):
        # The instance takes ~10 ms warm; the budget stays ~50x below it.
        with pytest.raises(TimeoutError):
            hierarchical_synthesize(
                pdsd_suite(6, 1, seed=99)[0], timeout=2e-4
            )
