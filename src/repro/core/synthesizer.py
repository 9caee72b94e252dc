"""STP-based exact synthesis (Section III main loop).

:class:`STPSynthesizer` implements the paper's algorithm:

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
this class is the stable object-style front door that maps its
constructor knobs onto a :class:`~repro.core.spec.SynthesisSpec` and
runs the stage sequence.
"""

from __future__ import annotations

from typing import Sequence

from ..chain.chain import BooleanChain
from ..truthtable.operations import NONTRIVIAL_BINARY_OPS
from ..truthtable.table import TruthTable
from .context import SynthesisContext
from .pipeline import run_pipeline
from .spec import SynthesisResult, SynthesisSpec

__all__ = ["STPSynthesizer", "synthesize", "synthesize_all"]

class STPSynthesizer:
    """Exact synthesizer driven by the STP circuit solver.

    Parameters mirror :class:`~repro.core.spec.SynthesisSpec`; a
    synthesizer instance is reusable across functions.
    """

    def __init__(
        self,
        operators: Sequence[int] = NONTRIVIAL_BINARY_OPS,
        verify: bool = True,
        all_solutions: bool = True,
        max_solutions: int = 10_000,
        max_gates: int | None = None,
        npn_canonicalize: bool = False,
    ) -> None:
        self._operators = tuple(operators)
        self._verify = verify
        self._all_solutions = all_solutions
        self._max_solutions = max_solutions
        self._max_gates = max_gates
        self._npn_canonicalize = npn_canonicalize

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def synthesize(
        self,
        function: TruthTable,
        timeout: float | None = None,
        ctx: SynthesisContext | None = None,
    ) -> SynthesisResult:
        """Synthesize all optimal chains for ``function``.

        Raises :class:`~repro.runtime.errors.BudgetExceeded` (a
        :class:`TimeoutError`) when the budget expires and
        :class:`~repro.runtime.errors.SynthesisInfeasible` (a
        :class:`RuntimeError`) when the gate cap is hit.
        """
        spec = SynthesisSpec(
            function=function,
            operators=self._operators,
            max_gates=self._max_gates,
            timeout=timeout,
            all_solutions=self._all_solutions,
            verify=self._verify,
            max_solutions=self._max_solutions,
            npn_canonicalize=self._npn_canonicalize,
        )
        return self.run(spec, ctx=ctx)

    def run(
        self, spec: SynthesisSpec, ctx: SynthesisContext | None = None
    ) -> SynthesisResult:
        """Synthesize according to an explicit spec.

        A caller-supplied context shares its deadline, stats, and cache
        with the run; otherwise a fresh context is created from the
        spec's timeout and the process-global cache.
        """
        return run_pipeline(spec, ctx)


def synthesize(
    function: TruthTable,
    timeout: float | None = None,
    **kwargs,
) -> SynthesisResult:
    """One-call exact synthesis returning the full optimal set."""
    return STPSynthesizer(**kwargs).synthesize(function, timeout=timeout)


def synthesize_all(
    function: TruthTable, timeout: float | None = None, **kwargs
) -> list[BooleanChain]:
    """All optimal chains of a function (convenience wrapper)."""
    return synthesize(function, timeout=timeout, **kwargs).chains
