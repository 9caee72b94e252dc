"""BMS baseline: plain SAT-based exact synthesis (Soeken et al. style).

The "busy man's synthesis" column of the paper's Table I: the standard
SSV CNF encoding with no topology constraints, solved by the CDCL
solver.  Its search at one gate count is a single instance over every
row; the ``bms`` engine's size loop (:mod:`repro.engine.adapters`)
tries the counts from the support lower bound upwards and returns one
chain (conventional SAT-based exact synthesis produces a single
solution per run).

:func:`solve_ssv` is that one instance.  The other SAT engines build on
it: FEN adds a fence, ``lutexact`` and CEGIS a subset of rows.
"""

from __future__ import annotations

from ..chain.chain import BooleanChain
from ..sat.encodings import SSVEncoder
from ..sat.solver import CDCLSolver
from ..truthtable.table import TruthTable

__all__ = ["solve_ssv", "searcher"]


def solve_ssv(
    normal: TruthTable, r: int, complemented: bool, ctx, **constraints
) -> BooleanChain | None:
    """One SSV instance at ``r`` gates: a chain, or None when UNSAT.

    ``constraints`` go to :class:`~repro.sat.encodings.SSVEncoder`
    (``fence=`` or ``rows=``).  Each instance the solver runs counts
    as one generated candidate in ``ctx.stats``.
    """
    encoder = SSVEncoder(normal, r, deadline=ctx.deadline, **constraints)
    solver = CDCLSolver()
    if not solver.add_cnf(encoder.cnf):
        return None
    ctx.stats.candidates_generated += 1
    if not solver.solve(deadline=ctx.deadline):
        return None
    return encoder.decode(solver.model(), complemented)


def searcher(normal: TruthTable, complemented: bool, ctx):
    """BMS at one gate count: one instance constraining every row."""
    return lambda r: solve_ssv(normal, r, complemented, ctx)
