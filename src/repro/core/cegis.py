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

Exactness: gate counts are tried in increasing order and the encoding
constrained on a *subset* of rows is a relaxation, so UNSAT on the
sample implies UNSAT on the full specification — the first verified
candidate is size-optimal.
"""

from __future__ import annotations

import random
import time

from ..chain.chain import BooleanChain
from ..chain.transform import lift_chain, shrink_to_support, trivial_chain
from ..core.circuit_sat import verify_chain
from ..core.spec import (
    Deadline,
    SynthesisResult,
    SynthesisSpec,
    SynthesisStats,
)
from ..runtime.errors import SynthesisInfeasible
from ..sat.encodings import SSVEncoder, normalize_function
from ..sat.solver import CDCLSolver
from ..truthtable.table import TruthTable

__all__ = ["CegisSynthesizer", "cegis_synthesize"]


class CegisSynthesizer:
    """Sample-based exact synthesis with counterexample refinement.

    Parameters
    ----------
    max_gates:
        Hard cap on the gate count tried before declaring
        infeasibility (default: the spec heuristic).
    initial_samples:
        Size of the seed assignment sample.
    refine_batch:
        Maximum counterexample rows added per refinement round.
    seed:
        Base seed for the deterministic sample spread; the function
        bits are folded in so distinct targets draw distinct samples
        while every run on one target is reproducible.
    """

    def __init__(
        self,
        max_gates: int | None = None,
        *,
        initial_samples: int = 4,
        refine_batch: int = 4,
        seed: int = 2023,
    ) -> None:
        self._max_gates = max_gates
        self._initial_samples = max(1, initial_samples)
        self._refine_batch = max(1, refine_batch)
        self._seed = seed

    def synthesize(
        self, function: TruthTable, timeout: float | None = None
    ) -> SynthesisResult:
        """Find one size-optimal chain for ``function``."""
        start = time.perf_counter()
        deadline = Deadline(timeout)
        stats = SynthesisStats()
        spec = SynthesisSpec(
            function=function,
            max_gates=self._max_gates,
            timeout=timeout,
            all_solutions=False,
        )

        chain = trivial_chain(function)
        if chain is not None:
            return SynthesisResult(
                spec, [chain], 0, time.perf_counter() - start, stats
            )

        local, support = shrink_to_support(function)
        normal, complemented = normalize_function(local)
        target = ~normal if complemented else normal
        sample = self._seed_sample(normal)
        lower = max(1, len(support) - 1)
        for r in range(lower, spec.effective_max_gates() + 1):
            # The sample persists across gate counts: rows that refuted
            # r-gate candidates constrain the (r+1)-gate search too.
            found = self._solve_at_size(
                normal, target, r, complemented, sample, deadline, stats
            )
            if found is not None:
                lifted = lift_chain(found, function.num_vars, support)
                if not verify_chain(lifted, function):
                    raise AssertionError(
                        "lifted CEGIS chain does not realise the target"
                    )
                return SynthesisResult(
                    spec,
                    [lifted],
                    r,
                    time.perf_counter() - start,
                    stats,
                )
        raise SynthesisInfeasible(
            f"cegis found no chain within "
            f"{spec.effective_max_gates()} gates"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _seed_sample(self, normal: TruthTable) -> set[int]:
        """A deterministic pseudo-random spread of assignment rows.

        Row 0 is excluded — normality already pins it — and onset rows
        are preferred so the seed carries actual signal about the
        function rather than only off-rows.
        """
        rows = list(range(1, normal.num_rows))
        rng = random.Random(self._seed ^ (normal.bits * 2 + 1))
        rng.shuffle(rows)
        rows.sort(key=lambda t: 0 if normal.value(t) else 1)
        return set(rows[: self._initial_samples])

    def _solve_at_size(
        self,
        normal: TruthTable,
        target: TruthTable,
        r: int,
        complemented: bool,
        sample: set[int],
        deadline: Deadline,
        stats: SynthesisStats,
    ) -> BooleanChain | None:
        """CEGIS loop at a fixed gate count; ``None`` when UNSAT."""
        while True:
            deadline.check()
            encoder = SSVEncoder(
                normal, r, rows=sample, deadline=deadline
            )
            solver = CDCLSolver()
            if not solver.add_cnf(encoder.cnf):
                return None
            stats.candidates_generated += 1
            if not solver.solve(deadline=deadline):
                # UNSAT on a row subset is UNSAT on the full spec.
                return None
            candidate = encoder.decode(solver.model(), complemented)
            stats.candidates_verified += 1
            if verify_chain(candidate, target):
                return candidate
            stats.verification_failures += 1
            self._refine(candidate, target, sample)

    def _refine(
        self,
        candidate: BooleanChain,
        target: TruthTable,
        sample: set[int],
    ) -> None:
        """Grow the sample with a batch of counterexample rows."""
        simulated = candidate.simulate_output()
        diff = simulated.bits ^ target.bits
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
        stride = max(1, len(fresh) // self._refine_batch)
        sample.update(fresh[::stride][: self._refine_batch])


def cegis_synthesize(
    function: TruthTable, timeout: float | None = None
) -> SynthesisResult:
    """One-call CEGIS exact synthesis."""
    return CegisSynthesizer().synthesize(function, timeout=timeout)
