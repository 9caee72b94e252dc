"""Counterexample-guided exact synthesis (CEGIS).

A genuinely independent exact engine: a cross-check for the
differential oracle and a second opinion on the benchmark's golden
optima.  The
loop follows the classic CEGIS shape (cf. Riener et al., *Exact
Synthesis of ESOP Forms*): synthesize a candidate chain that is merely
consistent with a small **sample** of input assignments, verify it
against the full specification, and on a mismatch grow the sample with
counterexample assignments before re-solving.  On structured functions
the sample stays tiny and the SAT instances are far smaller than a
fully-constrained encoding; the price is extra verify/refine rounds on
dense functions.

Three deliberate departures from the ``lutexact`` baseline (which is a
row-at-a-time CEGAR over the same SSV encoding) keep this engine an
*independent* code path rather than a clone:

* the initial sample is a deterministic pseudo-random spread of
  assignment rows derived from the function bits (not the lowest
  rows), so the two engines explore different SAT instances;
* counterexamples are added in **batches** (several mis-predicted rows
  per round, spread across the row space) instead of one per round,
  trading slightly larger instances for far fewer solver calls;
* candidate verification runs through the packed-cube
  :func:`~repro.core.circuit_sat.verify_chain` kernel — the paper's
  STP circuit AllSAT — rather than plain simulation, so the verifier
  the oracle trusts is itself exercised on every refinement round.

Exactness: the ``cegis`` engine's size loop
(:mod:`repro.engine.adapters`) tries gate counts in increasing order,
and the encoding constrained on a *subset* of rows is a relaxation, so
UNSAT on the sample implies UNSAT on the full specification — the
first verified candidate is size-optimal.
"""

from __future__ import annotations

import random

from ..baselines.bms import solve_ssv
from ..chain.chain import BooleanChain
from ..core.circuit_sat import verify_chain
from ..truthtable.table import TruthTable

__all__ = ["INITIAL_SAMPLES", "REFINE_BATCH", "SEED", "searcher"]

#: Size of the seed assignment sample.
INITIAL_SAMPLES = 4

#: Maximum counterexample rows added per refinement round.
REFINE_BATCH = 4

#: Base seed for the sample spread; the function bits are folded in so
#: distinct targets draw distinct samples while every run on one target
#: is reproducible.
SEED = 2023


def searcher(normal: TruthTable, complemented: bool, ctx):
    """CEGIS at one gate count, over a sample kept across counts."""
    target = ~normal if complemented else normal
    # The sample persists across gate counts: rows that refuted r-gate
    # candidates constrain the (r+1)-gate search too.
    sample = _seed_sample(normal)

    def search(r: int) -> BooleanChain | None:
        while True:
            ctx.deadline.check()
            candidate = solve_ssv(normal, r, complemented, ctx, rows=sample)
            if candidate is None:
                # UNSAT on a row subset is UNSAT on the full spec.
                return None
            ctx.stats.candidates_verified += 1
            if verify_chain(candidate, target):
                return candidate
            ctx.stats.verification_failures += 1
            _refine(candidate, target, sample)

    return search


def _seed_sample(normal: TruthTable) -> set[int]:
    """A deterministic pseudo-random spread of assignment rows.

    Row 0 is excluded — normality already pins it — and onset rows
    are preferred so the seed carries actual signal about the
    function rather than only off-rows.
    """
    rows = list(range(1, normal.num_rows))
    rng = random.Random(SEED ^ (normal.bits * 2 + 1))
    rng.shuffle(rows)
    rows.sort(key=lambda t: 0 if normal.value(t) else 1)
    return set(rows[:INITIAL_SAMPLES])


def _refine(
    candidate: BooleanChain, target: TruthTable, sample: set[int]
) -> None:
    """Grow the sample with a batch of counterexample rows."""
    diff = candidate.simulate_output().bits ^ target.bits
    fresh = [
        t
        for t in range(1, target.num_rows)
        if (diff >> t) & 1 and t not in sample
    ]
    if not fresh:
        # Every differing row is already constrained — impossible
        # with a sound encoding; guard against a livelock.
        raise AssertionError("CEGIS refinement made no progress")
    # Spread the batch across the row space instead of taking the
    # lowest rows, so refinement pulls in structurally distinct
    # assignments.
    stride = max(1, len(fresh) // REFINE_BATCH)
    sample.update(fresh[::stride][:REFINE_BATCH])
