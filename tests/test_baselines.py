"""Baseline engine tests: BMS, FEN, lutexact-style CEGAR."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import run_engine
from repro.truthtable import (
    TruthTable,
    constant,
    from_function,
    from_hex,
    majority,
    parity,
    projection,
)

ENGINES = ["bms", "fen", "lutexact"]


class TestKnownOptima:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_and2(self, engine):
        result = run_engine(engine, from_hex("8", 2), timeout=60)
        assert result.num_gates == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_xor3(self, engine):
        result = run_engine(engine, parity(3), timeout=60)
        assert result.num_gates == 2
        assert result.chains[0].simulate_output() == parity(3)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_maj3(self, engine):
        result = run_engine(engine, majority(3), timeout=120)
        assert result.num_gates == 4
        assert result.chains[0].simulate_output() == majority(3)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_example7(self, engine):
        f = from_hex("8ff8", 4)
        result = run_engine(engine, f, timeout=120)
        assert result.num_gates == 3
        assert result.chains[0].simulate_output() == f

    @pytest.mark.parametrize("engine", ENGINES)
    def test_trivial(self, engine):
        assert run_engine(engine, constant(1, 3), timeout=10).num_gates == 0
        assert run_engine(engine, projection(0, 3), timeout=10).num_gates == 0
        assert run_engine(engine, ~projection(2, 3), timeout=10).num_gates == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_vacuous_variables(self, engine):
        f = from_function(lambda a, b, c, d: a and c, 4)
        result = run_engine(engine, f, timeout=60)
        assert result.num_gates == 1
        assert result.chains[0].simulate_output() == f


class TestCrossAgreement:
    @given(st.integers(0, 0xFF))
    @settings(max_examples=10, deadline=None)
    def test_engines_agree_on_3var(self, bits):
        f = TruthTable(bits, 3)
        sizes = {
            run_engine(engine, f, timeout=120).num_gates for engine in ENGINES
        }
        assert len(sizes) == 1

    def test_single_solution_semantics(self):
        for engine in ENGINES:
            result = run_engine(engine, majority(3), timeout=120)
            assert result.num_solutions == 1


class TestLimits:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_timeout(self, engine):
        with pytest.raises(TimeoutError):
            run_engine(engine, from_hex("cafe", 4), timeout=0.05)

    def test_gate_cap(self):
        with pytest.raises(RuntimeError):
            run_engine("bms", majority(3), timeout=60, max_gates=2)
        with pytest.raises(RuntimeError):
            run_engine("fen", parity(3), timeout=60, max_gates=1)
        with pytest.raises(RuntimeError):
            run_engine("lutexact", majority(3), timeout=60, max_gates=2)
