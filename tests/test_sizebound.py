"""Size lower-bound table tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sizebound import (
    EXACT3_SIZES,
    exact_min_gates_upto3,
    min_gates_lower_bound,
)
from repro.truthtable import (
    TruthTable,
    constant,
    from_function,
    majority,
    parity,
    projection,
)


class TestTable:
    def test_length(self):
        assert len(EXACT3_SIZES) == 256

    def test_known_entries(self):
        assert EXACT3_SIZES[0x00] == 0  # constant
        assert EXACT3_SIZES[0xFF] == 0
        assert EXACT3_SIZES[majority(3).bits] == 4
        assert EXACT3_SIZES[parity(3).bits] == 2
        assert EXACT3_SIZES[0x80] == 2  # and3
        assert EXACT3_SIZES[projection(0, 3).bits] == 0

    def test_complement_symmetry(self):
        """All 16 operator codes are available, so f and ~f always have
        equal minimal size."""
        for bits in range(256):
            assert EXACT3_SIZES[bits] == EXACT3_SIZES[bits ^ 0xFF]

    def test_max_is_four(self):
        assert max(EXACT3_SIZES) == 4

    @pytest.mark.slow
    @pytest.mark.parametrize("bits", [0x6A, 0xE8, 0x29, 0x96, 0x1B])
    def test_spot_check_against_bms(self, bits):
        from repro.engine import run_engine

        result = run_engine("bms", TruthTable(bits, 3), timeout=120)
        assert result.num_gates == EXACT3_SIZES[bits]


class TestBoundFunction:
    def test_exact_path_small_support(self):
        assert exact_min_gates_upto3(constant(0, 5)) == 0
        assert exact_min_gates_upto3(projection(3, 5)) == 0
        f = from_function(lambda a, b, c, d, e: b ^ d, 5)
        assert exact_min_gates_upto3(f) == 1

    def test_none_for_large_support(self):
        assert exact_min_gates_upto3(parity(4)) is None

    def test_support_projection(self):
        """The bound looks only at the support, wherever it sits."""
        f = from_function(lambda a, b, c, d, e: int(b + c + e >= 2), 5)
        assert exact_min_gates_upto3(f) == 4  # embedded maj3

    @given(st.integers(0, 0xFF))
    @settings(max_examples=50, deadline=None)
    def test_dominates_generic_bound(self, bits):
        t = TruthTable(bits, 3)
        bound = min_gates_lower_bound(t)
        assert bound >= max(0, t.support_size() - 1)

    @given(st.integers(0, 0xFFFF))
    @settings(max_examples=30, deadline=None)
    def test_generic_bound_for_4var(self, bits):
        t = TruthTable(bits, 4)
        if t.support_size() == 4:
            assert min_gates_lower_bound(t) == 3
