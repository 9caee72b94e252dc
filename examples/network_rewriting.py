#!/usr/bin/env python3
"""Exact-synthesis-based network rewriting — the application side.

Builds a deliberately redundant LUT network, runs a DAG-aware
rewriting pass that replaces cut logic with optimal chains from a
chain store (every replacement is a size-optimal Boolean chain from
the STP synthesizer, written back to the store on a miss), and
round-trips the result through BLIF.

Run::

    python examples/network_rewriting.py
"""

import os
import random
import tempfile

from repro.network import (
    LogicNetwork,
    network_to_blif,
    blif_to_network,
    rewrite_with_store,
)
from repro.store import ChainStore
from repro.truthtable import TruthTable, binary_op_table

#: Engine fallback chain and synthesis budget per cut miss.
ENGINES = ("stp", "fen")
TIMEOUT_PER_CUT = 60.0


def build_redundant_network() -> LogicNetwork:
    """and(a,b) | (c ^ d), written as wastefully as possible."""
    net = LogicNetwork("wasteful")
    a, b, c, d = [net.add_pi() for _ in range(4)]
    n_nand = net.add_node(binary_op_table(0x7), (a, b))
    n_and = net.add_node(TruthTable(0b01, 1), (n_nand,))  # not(nand)
    n_or1 = net.add_node(binary_op_table(0xE), (c, d))
    n_nand2 = net.add_node(binary_op_table(0x7), (c, d))
    n_xor = net.add_node(binary_op_table(0x8), (n_or1, n_nand2))  # (c|d)&~(c&d)
    n_out = net.add_node(binary_op_table(0xE), (n_and, n_xor))
    net.add_po(n_out)
    return net


def rewrite(net: LogicNetwork, store: ChainStore):
    return rewrite_with_store(
        net, store, engines=ENGINES, timeout_per_cut=TIMEOUT_PER_CUT
    )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="network-rewriting-") as tmp:
        with ChainStore(os.path.join(tmp, "chains.db")) as store:
            run(store)


def run(store: ChainStore) -> None:
    rng = random.Random(7)

    net = build_redundant_network()
    target = net.simulate()[0]
    print(f"function: 0x{target.to_hex()}")
    print(f"before: {net.num_gates()} LUTs, depth {net.depth()}")

    result = rewrite(net, store)
    assert net.simulate()[0] == target  # function preserved
    print(
        f"after : {net.num_gates()} LUTs, depth {net.depth()} "
        f"({result.replacements} replacements, "
        f"{result.cuts_tried} cuts examined)"
    )

    blif = network_to_blif(net)
    print("\nBLIF export:\n" + blif)
    assert blif_to_network(blif).simulate()[0] == target

    # A bigger random cleanup, same store (classes are reused).
    big = LogicNetwork("random")
    nodes = [big.add_pi() for _ in range(5)]
    for _ in range(14):
        k = rng.choice([1, 2, 2, 3])
        fanins = [rng.choice(nodes) for _ in range(k)]
        nodes.append(
            big.add_node(TruthTable(rng.getrandbits(1 << k), k), fanins)
        )
    big.add_po(nodes[-1])
    want = big.simulate()[0]
    result = rewrite(big, store)
    assert big.simulate()[0] == want
    print(
        f"random network: {result.gates_before} -> {result.gates_after} "
        f"LUTs ({store.counters()['classes']} NPN classes stored so far)"
    )


if __name__ == "__main__":
    main()
