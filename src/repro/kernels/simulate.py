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

:func:`check_solution_set` is the cheap complete check built on it: one
verdict per chain record of a solution set, every output compared with
its target on all ``2**n`` rows.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Sequence

from .bitops import var_mask
from .stats import KERNEL_STATS

__all__ = ["MAX_LUT_INPUTS", "check_solution_set", "lut_apply"]

_CONST0 = -1  # BooleanChain.CONST0 without importing the chain layer

#: The widest gate a chain record may hold.  A wider one is malformed:
#: its op alone would be a 2**17-bit table, and no engine emits more
#: than three inputs.
MAX_LUT_INPUTS = 16


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


@lru_cache(maxsize=16)
def _input_patterns(num_vars: int) -> tuple[int, ...]:
    return tuple(var_mask(v, num_vars) for v in range(num_vars))


def check_solution_set(
    records: Sequence[tuple], targets: Sequence[int], num_vars: int
) -> list[bool]:
    """One verdict per chain record: does it compute ``targets``?

    A record is :meth:`~repro.chain.BooleanChain.signature`'s tuple
    ``(num_inputs, ((op, fanins), ...), ((signal, complemented),
    ...))``; ``targets`` are the packed tables its outputs must
    compute over ``num_vars`` inputs.  A verdict is True only when the
    record has ``num_vars`` inputs and one output per target, and
    every output's simulated pattern equals its target on all
    ``2**num_vars`` rows.  A malformed record -- a fanin that is
    negative or not earlier than its own signal, an op wider than its
    arity, more than :data:`MAX_LUT_INPUTS` fanins, a missing output
    signal -- gets False and raises nothing.

    Polarity variants of one solution share most gates, so gate
    patterns are memoized on ``(op, input patterns)`` for the whole
    call: each distinct gate costs one :func:`lut_apply`.
    """
    t0 = time.perf_counter()
    mask = (1 << (1 << num_vars)) - 1
    inputs = _input_patterns(num_vars)
    memo: dict[tuple, int] = {}
    verdicts = [
        _check_record(record, targets, num_vars, inputs, mask, memo)
        for record in records
    ]
    KERNEL_STATS.add("set_check", time.perf_counter() - t0)
    return verdicts


def _check_record(record, targets, num_vars, inputs, mask, memo) -> bool:
    try:
        num_inputs, gates, outputs = record
        if num_inputs != num_vars or len(outputs) != len(targets):
            return False
        patterns = list(inputs)
        for op, fanins in gates:
            signal = len(patterns)
            arity = len(fanins)
            if not 0 < arity <= MAX_LUT_INPUTS or not 0 <= op < 1 << (
                1 << arity
            ):
                return False
            key = [op]
            for f in fanins:
                if not 0 <= f < signal:
                    return False  # negative indexes would wrap
                key.append(patterns[f])
            key = tuple(key)
            pattern = memo.get(key)
            if pattern is None:
                pattern = memo[key] = lut_apply(op, key[1:], mask)[0]
            patterns.append(pattern)
        for (signal, complemented), target in zip(outputs, targets):
            if signal == _CONST0:
                value = 0
            elif 0 <= signal < len(patterns):
                value = patterns[signal]
            else:
                return False
            if (value ^ mask if complemented else value) != target:
                return False
        return True
    except (AttributeError, TypeError, ValueError):
        return False
