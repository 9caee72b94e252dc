"""Boolean chain data-structure tests."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import BooleanChain, Gate
from repro.truthtable import from_hex


from tests.helpers import random_chain


class TestGate:
    def test_arity_and_table(self):
        g = Gate(0x8, (0, 1))
        assert g.arity == 2
        assert g.local_table().bits == 0x8
        assert "and" in g.describe()

    def test_three_input_gate(self):
        g = Gate(0xE8, (0, 1, 2))
        assert g.arity == 3
        assert "lut" in g.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            Gate(0x10, (0, 1))  # too wide for 2 inputs
        with pytest.raises(ValueError):
            Gate(0x1, ())


class TestConstruction:
    def test_add_gate_indices(self):
        chain = BooleanChain(3)
        assert chain.add_gate(0x8, (0, 1)) == 3
        assert chain.add_gate(0x6, (2, 3)) == 4
        assert chain.num_gates == 2
        assert chain.num_signals == 5

    def test_forward_reference_rejected(self):
        chain = BooleanChain(2)
        with pytest.raises(ValueError):
            chain.add_gate(0x8, (0, 2))

    def test_output_validation(self):
        chain = BooleanChain(2)
        with pytest.raises(ValueError):
            chain.set_output(5)
        chain.set_output(1)
        chain.set_output(BooleanChain.CONST0, True)
        assert chain.outputs == ((1, False), (-1, True))

    def test_constructor_from_gates(self):
        gates = [Gate(0x8, (0, 1)), Gate(0x6, (2, 3))]
        chain = BooleanChain(3, gates, [(4, False)])
        assert chain.num_gates == 2
        assert chain.gate(3).op == 0x8

    def test_gate_accessor(self):
        chain = BooleanChain(2)
        chain.add_gate(0x8, (0, 1))
        with pytest.raises(IndexError):
            chain.gate(0)
        assert chain.gate(2).fanins == (0, 1)


class TestSemantics:
    def test_example7_simulation(self):
        chain = BooleanChain(4)
        s4 = chain.add_gate(0x6, (2, 3))  # xor(c, d)
        s5 = chain.add_gate(0x8, (0, 1))  # and(a, b)
        s6 = chain.add_gate(0xE, (s4, s5))
        chain.set_output(s6)
        assert chain.simulate_output() == from_hex("8ff8", 4)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_evaluate_matches_simulation(self, seed):
        chain = random_chain(random.Random(seed))
        tables = chain.simulate()
        for m in range(1 << chain.num_inputs):
            inputs = [(m >> i) & 1 for i in range(chain.num_inputs)]
            values = chain.evaluate(inputs)
            for table, value in zip(tables, values):
                assert table.value(m) == value

    def test_evaluate_arity_check(self):
        chain = BooleanChain(2)
        chain.add_gate(0x8, (0, 1))
        chain.set_output(2)
        with pytest.raises(ValueError):
            chain.evaluate([1])

    def test_const_output(self):
        chain = BooleanChain(3)
        chain.set_output(BooleanChain.CONST0)
        assert chain.simulate_output().bits == 0
        chain2 = BooleanChain(3)
        chain2.set_output(BooleanChain.CONST0, True)
        assert chain2.simulate_output().bits == 0xFF
        assert chain2.evaluate([0, 1, 0]) == [1]

    def test_complemented_output(self):
        chain = BooleanChain(2)
        s = chain.add_gate(0x8, (0, 1))
        chain.set_output(s, True)
        assert chain.simulate_output() == from_hex("7", 2)

    def test_no_output_errors(self):
        chain = BooleanChain(2)
        with pytest.raises(ValueError):
            chain.simulate()
        with pytest.raises(ValueError):
            chain.depth()


class TestStructure:
    def test_levels_and_depth(self):
        chain = BooleanChain(4)
        s4 = chain.add_gate(0x6, (2, 3))
        s5 = chain.add_gate(0x8, (0, 1))
        s6 = chain.add_gate(0xE, (s4, s5))
        chain.set_output(s6)
        assert chain.level(0) == 0
        assert chain.level(s4) == 1
        assert chain.level(s6) == 2
        assert chain.depth() == 2

    def test_fanout_counts(self):
        chain = BooleanChain(2)
        s2 = chain.add_gate(0x8, (0, 1))
        s3 = chain.add_gate(0x6, (0, s2))
        chain.set_output(s3)
        counts = chain.fanout_counts()
        assert counts[0] == 2  # feeds both gates
        assert counts[s2] == 1
        assert counts[s3] == 1  # the output

    def test_signature_equality_hash(self):
        rnd = random.Random(3)
        a = random_chain(rnd)
        b = BooleanChain(
            a.num_inputs, a.gates, a.outputs
        )
        assert a == b and hash(a) == hash(b)
        assert a != BooleanChain(a.num_inputs)

    def test_validate(self):
        chain = BooleanChain(2)
        with pytest.raises(ValueError):
            chain.validate()
        chain.set_output(0)
        chain.validate()

    def test_format_and_repr(self):
        chain = BooleanChain(2)
        s = chain.add_gate(0x8, (0, 1))
        chain.set_output(s, True)
        text = chain.format()
        assert "s2 = 0x8(x0, x1)" in text
        assert "out = ~s2" in text
        assert "gates=1" in repr(chain)

    def test_format_const_output(self):
        chain = BooleanChain(1)
        chain.set_output(BooleanChain.CONST0, True)
        assert "out = ~0" in chain.format()


class TestRecord:
    """The signature tuple is the chain's record: the pickled form and
    the input of :meth:`BooleanChain.from_record`."""

    @staticmethod
    def _chains():
        rnd = random.Random(11)
        chains = [random_chain(rnd) for _ in range(8)]
        multi = BooleanChain(3)
        s3 = multi.add_gate(0xE8, (0, 1, 2))
        s4 = multi.add_gate(0x1, (s3,))
        multi.set_output(s4)
        multi.set_output(BooleanChain.CONST0, True)
        multi.set_output(0, True)
        building = BooleanChain(2)  # no outputs yet
        building.add_gate(0x6, (0, 0))
        return chains + [multi, building, BooleanChain(0)]

    def test_from_record_round_trip(self):
        for chain in self._chains():
            rebuilt = BooleanChain.from_record(chain.signature())
            assert rebuilt.signature() == chain.signature()
            assert rebuilt.gates == chain.gates

    def test_pickle_and_copy_preserve_signature(self):
        for chain in self._chains():
            for clone in (
                pickle.loads(pickle.dumps(chain)),
                copy.copy(chain),
                copy.deepcopy(chain),
            ):
                assert clone is not chain
                assert clone.signature() == chain.signature()
            if chain.num_inputs:
                # A copy is a separate chain: growing it leaves the
                # original as it was.
                grown = copy.copy(chain)
                grown.add_gate(0x8, (0, 0))
                assert grown.num_gates == chain.num_gates + 1

    @pytest.mark.parametrize(
        "record",
        [
            (2, ((0x8, (0, 2)),), ((2, False),)),  # fanin not earlier
            (2, ((0x8, (0, -1)),), ((2, False),)),  # negative fanin
            (2, ((0x18, (0, 1)),), ((2, False),)),  # op too wide
            (2, ((0x8, ()),), ((2, False),)),  # no fanins
            (2, ((0x8, (0, 1)),), ((3, False),)),  # missing output
            (2, ((0x8, (0, 1)),), ((-2, False),)),  # not CONST0
            (-1, (), ()),  # negative input count
            (2, ((0x8, (0, "1")),), ()),  # not an int
            (2, ()),  # not a record
        ],
    )
    def test_malformed_record_raises(self, record):
        with pytest.raises(ValueError):
            BooleanChain.from_record(record)

        class Forged:
            def __reduce__(self):
                return (BooleanChain.from_record, (record,))

        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(Forged()))
