"""Bit-parallel circuit AllSAT (Algorithms 1–2 on packed cubes).

Same traversal as :mod:`repro.core.circuit_sat` — rows of a node's
structural matrix that evaluate to the target dictate child targets,
child cube sets combine through MERGE — but every cube is one packed
integer (:mod:`repro.kernels.cubes`), so the hot MERGE inner loop is a
couple of word operations per pair instead of a per-PI Python loop.

One deliberate semantic tightening over the original tuple solver: an
output wired to :attr:`BooleanChain.CONST0` computes constant 0, so
its AllSAT set is *empty* for target 1 and all-free for target 0 (the
tuple solver treated the pseudo-signal as an unconstrained input).  No
synthesis path emits such chains into verification, but the kernel is
correct if one ever does.

Also hosts the STP canonical-form AllSAT kernel: the satisfying
columns of a 2×2^n canonical form read off with ``np.flatnonzero``,
replacing the recursive halving descent (ascending column index *is*
the descent's depth-first order).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cubes import merge_packed_sets, packed_onset
from .stats import KERNEL_STATS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..chain.chain import BooleanChain

__all__ = [
    "packed_all_sat",
    "chain_onset",
    "stp_assignments",
]

_CONST0 = -1  # BooleanChain.CONST0 without importing the chain layer


def _traverse(
    chain: "BooleanChain",
    signal: int,
    target: int,
    memo: dict[int, list[int]],
    n: int,
) -> list[int]:
    """Algorithm 2: packed cubes driving ``signal`` to ``target``."""
    key = (signal << 1) | target
    cached = memo.get(key)
    if cached is not None:
        return cached
    if signal < n:
        # One PI cube: bit in the ones or zeros plane.
        result = [(target << signal) | ((1 - target) << (signal + n))]
        memo[key] = result
        return result
    gate = chain.gate(signal)
    op = gate.op
    fanins = gate.fanins
    solutions: set[int] = set()
    for row in range(1 << len(fanins)):
        if ((op >> row) & 1) != target:
            continue
        partial: list[int] | None = None
        for i, fanin in enumerate(fanins):
            child = _traverse(chain, fanin, (row >> i) & 1, memo, n)
            partial = (
                child
                if partial is None
                else merge_packed_sets(partial, child, n)
            )
            if not partial:
                break
        if partial:
            solutions.update(partial)
    result = list(solutions)
    memo[key] = result
    return result


def packed_all_sat(
    chain: "BooleanChain", targets: Sequence[int] | None = None
) -> list[int]:
    """Algorithm 1 on packed cubes: cubes driving every output to its
    target (defaults to all-1).  Returns a deduplicated packed list."""
    outputs = chain.outputs
    if not outputs:
        raise ValueError("chain has no outputs")
    if targets is None:
        targets = [1] * len(outputs)
    if len(targets) != len(outputs):
        raise ValueError("one target per output required")
    t0 = time.perf_counter()
    n = chain.num_inputs
    memo: dict[int, list[int]] = {}
    solutions: list[int] | None = None
    for (signal, complemented), target in zip(outputs, targets):
        node_target = target ^ int(complemented)
        if signal == _CONST0:
            # The constant-zero pseudo input: never 1, always 0.
            po_cubes = [0] if node_target == 0 else []
        else:
            po_cubes = _traverse(chain, signal, node_target, memo, n)
        solutions = (
            po_cubes
            if solutions is None
            else merge_packed_sets(solutions, po_cubes, n)
        )
        if not solutions:
            break
    KERNEL_STATS.add("chain_allsat", time.perf_counter() - t0)
    return solutions if solutions is not None else []


def chain_onset(
    chain: "BooleanChain", targets: Sequence[int] | None = None
) -> int:
    """Bitmask of minterms whose assignment satisfies every output
    target — AllSAT plus the word-parallel onset expansion, fused."""
    return packed_onset(packed_all_sat(chain, targets), chain.num_inputs)


def stp_assignments(top_row: np.ndarray, num_vars: int) -> list[tuple[int, ...]]:
    """Satisfying assignments of an STP canonical form, descent order.

    Column ``c`` of the canonical form encodes the assignment
    ``x_i = 1 - bit_{n-1-i}(c)`` (``x_1`` is the most significant
    variable and TRUE selects the *left* half), so ascending column
    index reproduces the Fig.-1 depth-first order exactly.
    """
    t0 = time.perf_counter()
    cols = np.flatnonzero(top_row)
    if num_vars == 0:
        result = [() for _ in range(cols.size)]
    else:
        shifts = np.arange(num_vars - 1, -1, -1, dtype=np.int64)
        values = 1 - ((cols[:, None] >> shifts[None, :]) & 1)
        result = [tuple(row) for row in values.tolist()]
    KERNEL_STATS.add("stp_allsat", time.perf_counter() - t0)
    return result
