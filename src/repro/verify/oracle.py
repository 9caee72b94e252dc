"""Cross-engine differential oracle.

One :meth:`DifferentialHarness.check` call puts a single function
through every independent code path the repository has and reports any
pair that disagrees:

* each registered engine (plus ad-hoc ``(name, callable)`` engines for
  test fixtures) synthesizes the function through the fault-tolerant
  runtime with result verification *disabled* — the harness is the
  verifier here, and the runtime's own check would mask exactly the
  discrepancies this module exists to find;
* every returned chain is independently re-simulated
  (:meth:`BooleanChain.simulate_output`, a code path that shares
  nothing with the solvers) against the target;
* the packed-cube AllSAT verifier and the pre-kernel tuple reference
  are run on the same chains and must agree with the simulation and
  with each other (chains with ``CONST0`` outputs skip the reference,
  whose historical constant-output semantics deliberately differ —
  see ``tests/test_circuit_sat.py``);
* engines that both declare :attr:`EngineCapabilities.exact` must
  agree on the optimal gate count — with the default engine list this
  includes the CEGIS engine, whose sample-grown SAT instances share no
  constraint schedule with the fully-constrained baselines, making
  the gate-count cross-check a genuinely independent vote;
* the first exact result is pushed through a :class:`ChainStore`
  round trip — put, then lookup of a *different* orbit member — and
  the served chains are re-simulated against that member.

Engine timeouts, crashes, and infeasibility are recorded as
observations, not discrepancies: the harness runs under the same
fault-injection and deadline machinery as production synthesis, so a
fuzz campaign can script faults and still distinguish "engine fell
over (tolerated)" from "engines disagree (bug)".
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Sequence

from ..core.circuit_sat import chain_all_sat, verify_chain
from ..core.spec import Deadline
from ..engine import engine_capabilities, engine_names
from ..kernels.reference import chain_all_sat_ref, verify_chain_ref
from ..runtime.executor import FaultTolerantExecutor
from ..runtime.faults import FaultPlan
from ..store.chainstore import ChainStore
from ..truthtable.npn import NPNTransform
from ..truthtable.table import TruthTable

__all__ = [
    "Discrepancy",
    "EngineObservation",
    "DifferentialReport",
    "DifferentialHarness",
]


@dataclass(frozen=True)
class Discrepancy:
    """One observed disagreement between independent code paths.

    ``kind`` is one of ``realization`` (a chain does not compute its
    target), ``kernel`` (packed vs reference vs simulation disagree),
    ``optimality`` (exact engines disagree on the optimum), and
    ``store`` (a stored chain came back wrong or vanished).
    """

    kind: str
    function_hex: str
    num_vars: int
    engine: str
    detail: str

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "function": self.function_hex,
            "num_vars": self.num_vars,
            "engine": self.engine,
            "detail": self.detail,
        }


@dataclass
class EngineObservation:
    """What one engine did with the function."""

    engine: str
    status: str
    num_gates: int = -1
    num_solutions: int = 0
    runtime: float = 0.0
    error: str = ""
    stats: dict | None = None

    def to_record(self) -> dict:
        record = {
            "engine": self.engine,
            "status": self.status,
            "num_gates": self.num_gates,
            "num_solutions": self.num_solutions,
            "runtime": round(self.runtime, 6),
        }
        if self.error:
            record["error"] = self.error
        if self.stats is not None:
            record["stats"] = self.stats
        return record


@dataclass
class DifferentialReport:
    """Everything one ``check()`` call observed."""

    function_hex: str
    num_vars: int
    observations: list[EngineObservation] = field(default_factory=list)
    discrepancies: list[Discrepancy] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no code paths disagreed (faults are tolerated)."""
        return not self.discrepancies

    def to_record(self) -> dict:
        return {
            "function": self.function_hex,
            "num_vars": self.num_vars,
            "observations": [o.to_record() for o in self.observations],
            "discrepancies": [d.to_record() for d in self.discrepancies],
        }


def _probe_transform(function: TruthTable) -> NPNTransform:
    """A deterministic non-trivial orbit member to probe the store with.

    Derived from the function bits alone so a fuzz run stays
    reproducible.  Above four variables the canonical form is only
    semi-canonical (orbit members may canonicalize differently), so
    the probe degrades to the identity there.
    """
    n = function.num_vars
    if n > 4 or n == 0:
        return NPNTransform.identity(n)
    rng = random.Random(function.bits * 2 + function.num_vars)
    perm = list(range(n))
    rng.shuffle(perm)
    return NPNTransform(
        tuple(perm), rng.getrandbits(n), bool(rng.getrandbits(1))
    )


class DifferentialHarness:
    """Differential tester over engines, kernels, and the chain store.

    Parameters
    ----------
    engines:
        Fallback-chain-style entries: registry names or
        ``(name, callable)`` pairs (in-process fixtures).  Defaults to
        every registered engine.
    timeout:
        Per-engine wall-clock budget for one function.
    max_solutions:
        Solution cap requested from each engine.
    max_chains_checked:
        Per-engine cap on chains put through the full oracle battery.
    check_kernels / check_store:
        Toggle the kernel-pair and store-round-trip oracles.
    store_path:
        Optional persistent store for the round-trip check; by default
        an ephemeral store in a temporary directory is used.
    fault_plan:
        Deterministic fault injection, forwarded to the runtime.
    exact_overrides:
        Exactness assumptions for ad-hoc callable engines (registry
        engines use their declared capabilities).  Callable engines
        default to exact.
    """

    def __init__(
        self,
        engines: Sequence | None = None,
        *,
        timeout: float = 5.0,
        max_solutions: int = 16,
        max_chains_checked: int = 8,
        check_kernels: bool = True,
        check_store: bool = True,
        store_path: str | os.PathLike | None = None,
        fault_plan: FaultPlan | None = None,
        exact_overrides: dict[str, bool] | None = None,
    ) -> None:
        self._engines = list(engines) if engines else list(engine_names())
        if not self._engines:
            raise ValueError("need at least one engine")
        self._timeout = timeout
        self._max_solutions = max_solutions
        self._max_chains = max_chains_checked
        self._check_kernels = check_kernels
        self._check_store = check_store
        self._fault_plan = fault_plan
        self._exact_overrides = dict(exact_overrides or {})
        self._store: ChainStore | None = None
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if check_store:
            if store_path is None:
                self._tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-verify-"
                )
                store_path = os.path.join(self._tmpdir.name, "oracle.db")
            self._store = ChainStore(store_path)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the ephemeral store (idempotent)."""
        if self._store is not None:
            self._store.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "DifferentialHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _engine_name(entry) -> str:
        return entry if isinstance(entry, str) else entry[0]

    def _is_exact(self, entry) -> bool:
        name = self._engine_name(entry)
        if name in self._exact_overrides:
            return self._exact_overrides[name]
        if isinstance(entry, str):
            return engine_capabilities(name).exact
        return True

    # ------------------------------------------------------------------
    # oracle battery
    # ------------------------------------------------------------------
    def check(
        self, function: TruthTable, deadline: Deadline | None = None
    ) -> DifferentialReport:
        """Run the full differential battery on one function."""
        report = DifferentialReport(
            function_hex=function.to_hex(), num_vars=function.num_vars
        )
        exact_results: list[tuple[str, object]] = []
        for entry in self._engines:
            if deadline is not None and deadline.expired():
                report.observations.append(
                    EngineObservation(
                        engine=self._engine_name(entry),
                        status="skipped",
                        error="fuzz budget exhausted",
                    )
                )
                continue
            budget = self._timeout
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining is not None:
                    budget = min(budget, remaining)
            name = self._engine_name(entry)
            executor = FaultTolerantExecutor(
                (entry,),
                verify=False,
                max_retries=0,
                fault_plan=self._fault_plan,
                engine_kwargs={
                    name: {"max_solutions": self._max_solutions}
                },
            )
            outcome = executor.run(function, budget)
            observation = EngineObservation(
                engine=name,
                status=outcome.status,
                runtime=outcome.runtime,
                error=outcome.error,
            )
            if outcome.solved:
                result = outcome.result
                observation.num_gates = result.num_gates
                observation.num_solutions = result.num_solutions
                observation.stats = result.stats.to_record()
                self._check_chains(function, name, result, report)
                if self._is_exact(entry):
                    exact_results.append((name, result))
            report.observations.append(observation)
        self._check_optimality(function, exact_results, report)
        if self._store is not None and exact_results:
            self._check_store_roundtrip(
                function, exact_results[0], report
            )
        return report

    def _check_chains(self, function, engine, result, report) -> None:
        """Independent re-simulation plus the packed/reference pair."""
        for index, chain in enumerate(result.chains[: self._max_chains]):
            simulated = chain.simulate_output()
            if simulated != function:
                report.discrepancies.append(
                    Discrepancy(
                        kind="realization",
                        function_hex=function.to_hex(),
                        num_vars=function.num_vars,
                        engine=engine,
                        detail=(
                            f"chain {index} simulates to "
                            f"0x{simulated.to_hex()} instead of the target"
                        ),
                    )
                )
            if not self._check_kernels:
                continue
            realized = simulated == function
            packed = verify_chain(chain, function)
            if packed != realized:
                report.discrepancies.append(
                    Discrepancy(
                        kind="kernel",
                        function_hex=function.to_hex(),
                        num_vars=function.num_vars,
                        engine=engine,
                        detail=(
                            f"packed verify_chain says {packed} on chain "
                            f"{index}, simulation says {realized}"
                        ),
                    )
                )
            if any(s == chain.CONST0 for s, _ in chain.outputs):
                continue  # reference keeps the old CONST0 semantics
            if verify_chain_ref(chain, function) != packed:
                report.discrepancies.append(
                    Discrepancy(
                        kind="kernel",
                        function_hex=function.to_hex(),
                        num_vars=function.num_vars,
                        engine=engine,
                        detail=(
                            "packed and reference verifiers disagree "
                            f"on chain {index}"
                        ),
                    )
                )
            elif index == 0 and chain_all_sat(chain) != chain_all_sat_ref(
                chain
            ):
                report.discrepancies.append(
                    Discrepancy(
                        kind="kernel",
                        function_hex=function.to_hex(),
                        num_vars=function.num_vars,
                        engine=engine,
                        detail=(
                            "packed and reference AllSAT cube sets "
                            "differ on chain 0"
                        ),
                    )
                )

    def _check_optimality(self, function, exact_results, report) -> None:
        """Exact engines must agree on the optimal gate count."""
        if len(exact_results) < 2:
            return
        baseline_name, baseline = exact_results[0]
        for name, result in exact_results[1:]:
            if result.num_gates != baseline.num_gates:
                report.discrepancies.append(
                    Discrepancy(
                        kind="optimality",
                        function_hex=function.to_hex(),
                        num_vars=function.num_vars,
                        engine=name,
                        detail=(
                            f"{name} claims {result.num_gates} gates, "
                            f"{baseline_name} claims "
                            f"{baseline.num_gates}"
                        ),
                    )
                )

    def _check_store_roundtrip(self, function, exact_result, report) -> None:
        """put → lookup of another orbit member → re-simulate."""
        engine, result = exact_result
        try:
            written = self._store.put(function, result, engine=engine)
        except Exception as exc:
            report.discrepancies.append(
                Discrepancy(
                    kind="store",
                    function_hex=function.to_hex(),
                    num_vars=function.num_vars,
                    engine=engine,
                    detail=f"store.put raised {type(exc).__name__}: {exc}",
                )
            )
            return
        if not written:
            report.discrepancies.append(
                Discrepancy(
                    kind="store",
                    function_hex=function.to_hex(),
                    num_vars=function.num_vars,
                    engine=engine,
                    detail="store.put rejected a verified solution set",
                )
            )
            return
        member = _probe_transform(function).apply(function)
        served = self._store.lookup(member)
        if served is None:
            report.discrepancies.append(
                Discrepancy(
                    kind="store",
                    function_hex=function.to_hex(),
                    num_vars=function.num_vars,
                    engine=engine,
                    detail=(
                        "lookup missed orbit member "
                        f"0x{member.to_hex()} right after put"
                    ),
                )
            )
            return
        if served.num_gates != result.num_gates:
            report.discrepancies.append(
                Discrepancy(
                    kind="store",
                    function_hex=function.to_hex(),
                    num_vars=function.num_vars,
                    engine=engine,
                    detail=(
                        f"store serves {served.num_gates} gates, engine "
                        f"found {result.num_gates}"
                    ),
                )
            )
        for index, chain in enumerate(served.chains[: self._max_chains]):
            if chain.simulate_output() != member:
                report.discrepancies.append(
                    Discrepancy(
                        kind="store",
                        function_hex=function.to_hex(),
                        num_vars=function.num_vars,
                        engine=engine,
                        detail=(
                            f"served chain {index} does not realise "
                            f"orbit member 0x{member.to_hex()}"
                        ),
                    )
                )
