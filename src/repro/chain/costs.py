"""Cost models for choosing among optimal chains.

The paper's selling point for AllSAT-style synthesis is that every
size-optimal chain comes back, "hence different costs can be considered
when selecting the optimal circuit."  These cost functions all map a
:class:`~repro.chain.chain.BooleanChain` to a number; lower is better.
:func:`select_best` ranks a solution set under any of them (or a custom
callable) with deterministic tie-breaking.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .chain import BooleanChain

__all__ = [
    "gate_count",
    "depth",
    "inverter_free_cost",
    "weighted_op_cost",
    "fanout_cost",
    "DEFAULT_OP_WEIGHTS",
    "COST_MODELS",
    "NPN_INVARIANT_COSTS",
    "select_best",
    "rank_solutions",
]

#: Example technology weights: XOR-like cells are pricier than AND/OR
#: in most standard-cell libraries.
DEFAULT_OP_WEIGHTS: dict[int, float] = {
    0x8: 1.0,  # and
    0xE: 1.0,  # or
    0x1: 1.0,  # nor
    0x7: 1.0,  # nand
    0x2: 1.5,  # and with complemented input
    0x4: 1.5,
    0xB: 1.5,  # or with complemented input
    0xD: 1.5,
    0x6: 2.0,  # xor
    0x9: 2.0,  # xnor
}


def gate_count(chain: BooleanChain) -> float:
    """Number of gates — the optimality criterion of exact synthesis."""
    return float(chain.num_gates)


def depth(chain: BooleanChain) -> float:
    """Logic depth (levels) of the chain."""
    return float(chain.depth())


def inverter_free_cost(chain: BooleanChain) -> float:
    """Gates plus one for each complemented output (poor man's area)."""
    extra = sum(1 for _, complemented in chain.outputs if complemented)
    return float(chain.num_gates + extra)


def weighted_op_cost(
    chain: BooleanChain,
    weights: Mapping[int, float] = DEFAULT_OP_WEIGHTS,
    default: float = 1.0,
) -> float:
    """Sum of per-operator technology weights over all gates."""
    return sum(weights.get(gate.op, default) for gate in chain.gates)


def fanout_cost(chain: BooleanChain) -> float:
    """Penalty for high-fanout internal signals (max fanout)."""
    counts = chain.fanout_counts()
    internal = counts[chain.num_inputs:] or [0]
    return float(max(internal))


#: Named registry for CLI/bench use.
COST_MODELS: dict[str, Callable[[BooleanChain], float]] = {
    "gates": gate_count,
    "depth": depth,
    "inverters": inverter_free_cost,
    "weighted": weighted_op_cost,
    "fanout": fanout_cost,
}

#: The :data:`COST_MODELS` no NPN transform of a chain can change.  An
#: input permutation, input complements absorbed into gate codes and
#: complemented outputs keep the fanin graph, so gate count, depth and
#: internal fanout are equal on a chain and on every image of it;
#: ``inverters`` counts complemented outputs and ``weighted`` reads gate
#: codes, so both move.  The chain store picks by these in canonical
#: space (:meth:`~repro.store.ChainStore.lookup`'s ``pick``).
NPN_INVARIANT_COSTS = frozenset({"gates", "depth", "fanout"})


def rank_solutions(
    chains: Iterable[BooleanChain],
    cost: Callable[[BooleanChain], float] | str = "gates",
) -> list[tuple[float, BooleanChain]]:
    """All chains with their costs, cheapest first (stable order)."""
    fn = COST_MODELS[cost] if isinstance(cost, str) else cost
    scored = [(fn(c), c) for c in chains]
    scored.sort(key=lambda pair: (pair[0], pair[1].signature()))
    return scored


def select_best(
    chains: Iterable[BooleanChain],
    cost: Callable[[BooleanChain], float] | str = "gates",
) -> BooleanChain:
    """The cheapest chain under the given cost model."""
    ranked = rank_solutions(chains, cost)
    if not ranked:
        raise ValueError("no chains to select from")
    return ranked[0][1]
