"""ABC ``lutexact``-style baseline: CEGAR SAT-based exact synthesis.

ABC itself is a closed C binary unavailable in this environment, so —
per the substitution policy in DESIGN.md — this baseline reproduces the
*algorithmic class* of its ``lutexact`` engine: SAT-based exact
synthesis with counterexample-guided abstraction refinement.  Instead
of constraining every truth-table row up front (as BMS does), only a
small seed of rows is encoded; each SAT model is simulated, and any
mis-predicted row is added as a new constraint before re-solving.  On
structured (DSD-like) functions few rows are needed and the instances
stay tiny; on dense/partial-DSD functions the refinement loop has to
pull in many rows, which is exactly the regime where the paper observes
``lutexact`` degrading.
"""

from __future__ import annotations

from ..chain.chain import BooleanChain
from ..truthtable.table import TruthTable
from .bms import solve_ssv

__all__ = ["SEED_ROWS", "searcher"]

#: Rows constrained before the first solve at each gate count.
SEED_ROWS = 2


def searcher(normal: TruthTable, complemented: bool, ctx):
    """``lutexact`` at one gate count: its CEGAR loop."""
    target = ~normal if complemented else normal

    def search(r: int) -> BooleanChain | None:
        # Seed with the lowest non-zero rows.
        rows = set(range(1, min(normal.num_rows, SEED_ROWS + 1)))
        while True:
            ctx.deadline.check()
            candidate = solve_ssv(normal, r, complemented, ctx, rows=rows)
            if candidate is None:
                return None  # UNSAT on a subset ⇒ UNSAT on all rows
            diff = candidate.simulate_output().bits ^ target.bits
            if not diff:
                return candidate
            # Add the lowest mis-predicted row as a refinement
            # constraint: one counterexample per iteration (ABC-style).
            fresh = [
                t
                for t in range(1, normal.num_rows)
                if (diff >> t) & 1 and t not in rows
            ]
            if not fresh:
                # All differing rows already constrained — cannot
                # happen with a sound encoding; guard against loops.
                raise AssertionError("CEGAR refinement made no progress")
            rows.add(fresh[0])

    return search
