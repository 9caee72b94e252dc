"""Word-parallel LUT evaluation over whole truth tables.

A signal's *pattern* is its truth table over some input space packed
into one Python int (bit ``m`` = the value on row ``m``).  Evaluating a
``k``-input LUT on such patterns needs no loop over the ``2**n`` rows:
the input patterns split the row space into at most ``2**k`` minterm
classes (the rows on which the inputs read local row ``r``), each one
an AND of input patterns or their complements, and the LUT output is
the OR of the classes its code maps to 1.  The non-empty classes also
say which local rows any input row exercises — the reachable rows that
don't-care canonicalization keeps.

This is the word-parallel circuit simulation of Pan et al., "A
Semi-Tensor Product based Circuit Simulation for SAT-sweeping"
(arXiv:2312.00421), with one machine word stretched to the whole table.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["lut_apply"]


def lut_apply(op: int, inputs: Sequence[int], mask: int) -> tuple[int, int]:
    """Evaluate one LUT over packed truth-table patterns.

    ``op`` is the LUT code (bit ``r`` is the output on local row
    ``r = Σ x_i << i``), ``inputs[i]`` the pattern of local input
    ``i`` and ``mask`` the all-ones pattern of the row space.  Returns
    ``(pattern, reachable)``: the output pattern, and the mask of local
    rows some row of the space exercises.

    Each input splits every non-empty minterm class in two with one
    AND, so the cost is at most ``2**len(inputs)`` big-int ANDs and
    never more classes than rows.
    """
    terms = [(0, mask)]
    bit = 1
    for pattern in inputs:
        split = []
        for row, term in terms:
            high = term & pattern
            if high != term:
                split.append((row, term ^ high))
            if high:
                split.append((row | bit, high))
        terms = split
        bit <<= 1
    out = reachable = 0
    for row, term in terms:
        reachable |= 1 << row
        if op >> row & 1:
            out |= term
    return out, reachable
