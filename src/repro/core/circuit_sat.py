"""STP circuit-based AllSAT solver (Section III-C, Algorithms 1–2).

The solver answers: *which primary-input assignments drive the chain's
outputs to their target values?* — working directly on the circuit
(2-LUT structural matrices) instead of a CNF translation.

Following Algorithm 2, a node with target ``T`` looks up the rows of
its structural matrix that evaluate to ``T``; each row dictates a
target pair for the two children, which are traversed recursively down
to the primary inputs.  Partial solutions are *cubes* — per-PI values
``0``/``1``/unassigned (the paper's ``'-'``) — and the ``MERGE`` step
combines cube sets pairwise, dropping contradicting pairs.  Because a
traversal assigns every PI in the node's cone, cube-level consistency
coincides with circuit-level consistency even for reconvergent
circuits.

The paper uses this solver to validate candidate chains coming out of
matrix factorization (whose power-reduce steps introduce don't-care
entries): enumerate all solutions for output target 1, simulate the
solution set into a function ``f_s`` and accept iff ``f_s == f``.

This module is the *tuple API* over the bit-parallel kernel layer: the
traversal, MERGE, and onset expansion all run on packed two-plane
integer cubes (:mod:`repro.kernels`); the functions here keep their
historical tuple-cube signatures and convert at the boundary.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..chain.chain import BooleanChain
from ..kernels import (
    chain_onset,
    merge_packed_sets,
    pack_cube,
    pack_cubes,
    packed_all_sat,
    packed_onset,
    unpack_cube,
    unpack_cubes,
)
from ..truthtable.table import TruthTable

__all__ = [
    "Cube",
    "merge_cubes",
    "merge_cube_sets",
    "chain_all_sat",
    "cubes_to_onset",
    "simulate_solutions",
    "verify_chain",
]

#: A partial PI assignment: one entry per primary input, ``None`` = '-'.
Cube = tuple

_FREE = None


def merge_cubes(c1: Cube, c2: Cube) -> Cube | None:
    """Combine two cubes; None when they assign some PI differently."""
    n = len(c1)
    p1, p2 = pack_cube(c1), pack_cube(c2)
    merged = p1 | p2
    if merged & (merged >> n) & ((1 << n) - 1):
        return None
    return unpack_cube(merged, n)


def merge_cube_sets(
    set1: Iterable[Cube], set2: Iterable[Cube]
) -> set[Cube]:
    """The paper's MERGE: pairwise combination, conflicts dropped."""
    list1 = list(set1)
    list2 = list(set2)
    if not list1 or not list2:
        return set()
    n = len(list1[0])
    merged = merge_packed_sets(pack_cubes(list1), pack_cubes(list2), n)
    return unpack_cubes(merged, n)


def chain_all_sat(
    chain: BooleanChain, targets: Sequence[int] | None = None
) -> set[Cube]:
    """Algorithm 1: cubes driving every output to its target.

    ``targets`` defaults to all-1 (every PO satisfied).  Output
    complement flags are folded into the propagated target.
    """
    packed = packed_all_sat(chain, targets)
    return unpack_cubes(packed, chain.num_inputs)


def cubes_to_onset(cubes: Iterable[Cube], num_inputs: int) -> int:
    """Expand a cube set into a bitmask of satisfied minterms.

    Word-parallel: each free variable doubles the minterm set with one
    big-int shift-or (the kernel's subset-sum over free-bit positions)
    instead of enumerating ``2^free`` combinations in Python.
    """
    return packed_onset(pack_cubes(cubes), num_inputs)


def simulate_solutions(
    cubes: Iterable[Cube], num_inputs: int
) -> TruthTable:
    """The function ``f_s`` whose onset is the solution set."""
    return TruthTable(cubes_to_onset(cubes, num_inputs), num_inputs)


def verify_chain(chain: BooleanChain, target: TruthTable) -> bool:
    """Step (iv) of the paper's algorithm: the chain is a valid
    realisation iff AllSAT(output=1) expands exactly to the onset of
    the target function.  Runs entirely on packed cubes — no tuple
    round-trip."""
    if target.num_vars != chain.num_inputs:
        raise ValueError("arity mismatch between chain and target")
    return chain_onset(chain) == target.bits
