"""STP-based exact synthesis (Section III main loop).

:func:`synthesize` runs the paper's algorithm:

(i)   start from the lower bound ``r = support - 1`` on the gate count,
(ii)  generate the pruned DAG topology families for ``r`` gates
      (Section III-A),
(iii) assign operators to DAG vertices by STP matrix factorization of
      the target's canonical form (Section III-B) — a top-down
      backtracking search over per-node demanded functions,
(iv)  verify each complete candidate with the STP circuit AllSAT
      solver and simulation (Section III-C),

and returns *all* optimal Boolean chains found at the first feasible
``r`` — each expressed as 2-LUTs so downstream cost models can pick.

The algorithm itself lives in :mod:`repro.core.pipeline` as composable
stages over a shared :class:`~repro.core.context.SynthesisContext`;
this module is the one-call front door.
"""

from __future__ import annotations

from ..truthtable.table import TruthTable
from .pipeline import run_pipeline
from .spec import SynthesisResult, SynthesisSpec

__all__ = ["synthesize"]


def synthesize(
    function: TruthTable, timeout: float | None = None, **fields
) -> SynthesisResult:
    """One-call exact synthesis returning the full optimal set.

    ``fields`` are :class:`~repro.core.spec.SynthesisSpec` fields (a
    misspelt one raises :class:`TypeError`).  Raises
    :class:`~repro.runtime.errors.BudgetExceeded` (a
    :class:`TimeoutError`) when the budget expires and
    :class:`~repro.runtime.errors.SynthesisInfeasible` (a
    :class:`RuntimeError`) when the gate cap is hit.
    """
    spec = SynthesisSpec(function=function, timeout=timeout, **fields)
    return run_pipeline(spec)
