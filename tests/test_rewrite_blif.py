"""Rewriting and BLIF I/O tests."""

import random

import pytest

from repro.network import (
    LogicNetwork,
    blif_to_network,
    network_to_blif,
    rewrite_with_store,
)
from repro.store import ChainStore
from repro.truthtable import TruthTable, binary_op_table, from_hex


def random_network(rnd, num_pis=5, num_nodes=10):
    net = LogicNetwork()
    nodes = [net.add_pi() for _ in range(num_pis)]
    for _ in range(num_nodes):
        k = rnd.choice([1, 2, 2, 3])
        fanins = [rnd.choice(nodes) for _ in range(k)]
        nodes.append(
            net.add_node(TruthTable(rnd.getrandbits(1 << k), k), fanins)
        )
    net.add_po(nodes[-1])
    net.add_po(nodes[-2], True)
    return net


#: Engine fallback chain for cut misses.
ENGINES = ("stp", "fen")


def rewrite(net, tmp_path, timeout_per_cut=120.0, **kwargs):
    with ChainStore(str(tmp_path / "chains.db")) as store:
        return rewrite_with_store(
            net,
            store,
            engines=ENGINES,
            timeout_per_cut=timeout_per_cut,
            **kwargs,
        )


class TestRewriting:
    def test_preserves_function(self, tmp_path):
        rnd = random.Random(42)
        for _ in range(4):
            net = random_network(rnd)
            before = [t.bits for t in net.simulate()]
            result = rewrite(net, tmp_path, timeout_per_cut=60.0)
            after = [t.bits for t in net.simulate()]
            assert before == after
            assert result.gates_after <= result.gates_before
            assert result.gates_after == net.num_gates()

    def test_shrinks_redundant_logic(self, tmp_path):
        net = LogicNetwork()
        pis = [net.add_pi() for _ in range(3)]
        # and(a,b) rebuilt the long way: not(nand(a,b))
        n_nand = net.add_node(binary_op_table(0x7), (pis[0], pis[1]))
        n_not = net.add_node(TruthTable(0b01, 1), (n_nand,))
        n_or = net.add_node(binary_op_table(0xE), (n_not, pis[2]))
        net.add_po(n_or)
        before = net.simulate()[0]
        result = rewrite(net, tmp_path)
        assert net.simulate()[0] == before
        assert result.gates_after < result.gates_before

    def test_optimal_network_untouched(self, tmp_path):
        net = LogicNetwork()
        pis = [net.add_pi() for _ in range(2)]
        n = net.add_node(binary_op_table(0x6), pis)
        net.add_po(n)
        result = rewrite(net, tmp_path)
        assert result.gates_after == 1
        assert net.simulate()[0].bits == 0x6

    def test_cut_size_validation(self, tmp_path):
        net = LogicNetwork()
        with pytest.raises(ValueError):
            rewrite(net, tmp_path, cut_size=5)


class TestBlif:
    def test_roundtrip_example7(self):
        net = LogicNetwork("ex7")
        pa, pb, pc, pd = [net.add_pi() for _ in range(4)]
        n_and = net.add_node(binary_op_table(0x8), (pa, pb))
        n_xor = net.add_node(binary_op_table(0x6), (pc, pd))
        net.add_po(net.add_node(binary_op_table(0xE), (n_and, n_xor)))
        text = network_to_blif(net)
        back = blif_to_network(text)
        assert back.simulate()[0] == from_hex("8ff8", 4)
        assert ".model ex7" in text

    def test_roundtrip_random(self):
        rnd = random.Random(9)
        for _ in range(5):
            net = random_network(rnd, num_pis=4, num_nodes=7)
            want = [t.bits for t in net.simulate()]
            back = blif_to_network(network_to_blif(net))
            got = [t.bits for t in back.simulate()]
            assert got == want

    def test_complemented_po(self):
        net = LogicNetwork()
        pis = [net.add_pi() for _ in range(2)]
        n = net.add_node(binary_op_table(0x8), pis)
        net.add_po(n, complemented=True)
        back = blif_to_network(network_to_blif(net))
        assert back.simulate()[0].bits == 0x7

    def test_parse_dont_care_cubes(self):
        text = """
.model t
.inputs a b c
.outputs y
.names a b c y
1-- 1
-11 1
.end
"""
        net = blif_to_network(text)
        out = net.simulate()[0]
        # y = a | (b & c)
        for m in range(8):
            a, b, c = m & 1, (m >> 1) & 1, (m >> 2) & 1
            assert out.value(m) == (a | (b & c))

    def test_parse_complemented_cover(self):
        text = """
.model t
.inputs a b
.outputs y
.names a b y
11 0
.end
"""
        net = blif_to_network(text)
        assert net.simulate()[0].bits == 0x7  # nand

    def test_parse_constant(self):
        text = """
.model t
.inputs a
.outputs y
.names y
1
.end
"""
        net = blif_to_network(text)
        assert net.simulate()[0].bits == 0b11

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            blif_to_network(".model t\n.inputs a\n.outputs y\n.end\n")
        with pytest.raises(ValueError):
            blif_to_network(
                ".model t\n.latch a b\n.end\n"
            )


class TestCli:
    def test_cli_synthesize(self, capsys):
        from repro.cli import main

        assert main(["8ff8", "--vars", "4", "--best-only"]) == 0
        out = capsys.readouterr().out
        assert "optimum 3 gates" in out

    def test_cli_engines(self, capsys):
        from repro.cli import main

        for engine in ("bms", "fen", "lutexact", "hier"):
            assert main(
                ["e8", "--vars", "3", "--engine", engine, "--best-only"]
            ) == 0

    def test_cli_blif_export(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "out.blif"
        assert main(["6", "--vars", "2", "--blif", str(path)]) == 0
        net = blif_to_network(path.read_text())
        assert net.simulate()[0].bits == 0x6

    def test_cli_bad_hex(self, capsys):
        # exit 2 now means "budget exceeded"; malformed input is 65
        from repro.cli import EXIT_BAD_INPUT, main

        assert main(["zzz", "--vars", "3"]) == EXIT_BAD_INPUT
