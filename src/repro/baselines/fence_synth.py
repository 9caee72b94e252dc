"""FEN baseline: fence-constrained SAT-based exact synthesis.

The paper's second comparison point (Haaswijk et al., "SAT based exact
synthesis using DAG topology families"): for each gate count ``r``,
iterate the pruned fence family ``F_r`` and solve one SSV instance per
fence with the selection variables restricted to fence-compatible
fanin pairs.  The added topology constraints shrink each SAT instance
at the cost of solving several of them.
"""

from __future__ import annotations

from ..topology.fence import valid_fences
from ..truthtable.table import TruthTable
from .bms import solve_ssv

__all__ = ["searcher"]


def searcher(normal: TruthTable, complemented: bool, ctx):
    """FEN at one gate count: one instance per fence of ``F_r``."""

    def search(r: int):
        for fence in valid_fences(r):
            ctx.deadline.check()
            ctx.stats.fences_examined += 1
            found = solve_ssv(normal, r, complemented, ctx, fence=fence)
            if found is not None:
                return found
        return None

    return search
