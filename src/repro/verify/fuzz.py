"""Budgeted differential fuzzing campaigns.

One :func:`run_fuzz` call drives the stratified generators
(:mod:`repro.verify.generators`) through the differential oracle
(:mod:`repro.verify.oracle`) under a wall-clock and/or instance-count
budget, shrinks every fresh discrepancy to a minimal reproducer
(:mod:`repro.verify.shrink`), and optionally checks the reproducer
into the corpus (:mod:`repro.verify.corpus`).

Everything is a pure function of :attr:`FuzzConfig.seed`: the
generators own all randomness, the store probe derives from function
bits, and the JSONL report records the seed so any campaign — local
or the nightly CI job — can be replayed bit-for-bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.spec import Deadline
from ..runtime.faults import FaultPlan
from ..truthtable.table import TruthTable
from .corpus import CorpusEntry, save_entry
from .generators import FunctionGenerator, strategy_names
from .oracle import DifferentialHarness, DifferentialReport, Discrepancy
from .shrink import ShrinkResult, shrink_function

__all__ = ["FuzzConfig", "FuzzReport", "run_fuzz"]


@dataclass
class FuzzConfig:
    """One fuzz campaign's knobs.

    ``budget_seconds`` and ``count`` may be combined; the campaign
    stops at whichever limit is hit first.  With neither set, a single
    sweep of ``len(strategies)`` instances runs (one per stratum).
    """

    seed: int = 0
    budget_seconds: float | None = None
    count: int | None = None
    num_vars: tuple[int, ...] = (2, 3, 4)
    strategies: tuple[str, ...] = ()
    engines: tuple = ()
    timeout_per_engine: float = 5.0
    max_solutions: int = 16
    shrink: bool = True
    check_store: bool = True
    check_kernels: bool = True
    fault_plan: FaultPlan | None = None
    max_shrink_evaluations: int = 200

    def effective_count(self) -> int | None:
        if self.count is not None:
            return self.count
        if self.budget_seconds is not None:
            return None  # budget-bounded
        return len(self.strategies or strategy_names())


@dataclass
class FuzzReport:
    """Aggregate outcome of a campaign."""

    seed: int
    instances: int = 0
    elapsed: float = 0.0
    discrepancies: list[Discrepancy] = field(default_factory=list)
    shrunk: list[ShrinkResult] = field(default_factory=list)
    status_counts: dict[str, int] = field(default_factory=dict)
    strategy_counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_record(self) -> dict:
        return {
            "type": "summary",
            "seed": self.seed,
            "instances": self.instances,
            "elapsed": round(self.elapsed, 3),
            "num_discrepancies": len(self.discrepancies),
            "discrepancies": [d.to_record() for d in self.discrepancies],
            "shrunk": [s.to_record() for s in self.shrunk],
            "status_counts": dict(self.status_counts),
            "strategy_counts": dict(self.strategy_counts),
        }


def _count(bucket: dict[str, int], key: str) -> None:
    bucket[key] = bucket.get(key, 0) + 1


def run_fuzz(
    config: FuzzConfig,
    *,
    report_path: str | os.PathLike | None = None,
    corpus_dir: str | os.PathLike | None = None,
    seed_functions: Sequence[TruthTable] = (),
    log: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run one campaign; returns the aggregate report.

    ``report_path`` streams one JSON line per instance (plus a final
    summary line) as the campaign runs, so a killed job still leaves a
    usable report.  ``corpus_dir`` receives one entry per shrunk
    discrepancy, named ``fuzz-<seed>-<instance>``.
    """
    generator = FunctionGenerator(
        seed=config.seed,
        num_vars=config.num_vars,
        strategies=config.strategies or None,
        seed_functions=seed_functions,
    )
    deadline = Deadline(config.budget_seconds)
    count = config.effective_count()
    report = FuzzReport(seed=config.seed)
    handle = open(report_path, "w") if report_path is not None else None

    def emit(record: dict) -> None:
        if handle is not None:
            handle.write(json.dumps(record) + "\n")
            handle.flush()

    try:
        with DifferentialHarness(
            config.engines or None,
            timeout=config.timeout_per_engine,
            max_solutions=config.max_solutions,
            check_kernels=config.check_kernels,
            check_store=config.check_store,
            fault_plan=config.fault_plan,
        ) as harness:
            index = 0
            while True:
                if count is not None and index >= count:
                    break
                if deadline.expired():
                    break
                strategy, function = generator.generate()
                instance = harness.check(function, deadline=deadline)
                report.instances += 1
                _count(report.strategy_counts, strategy)
                for observation in instance.observations:
                    _count(report.status_counts, observation.status)
                record = instance.to_record()
                record.update(
                    {"type": "instance", "index": index, "strategy": strategy}
                )
                if instance.discrepancies:
                    report.discrepancies.extend(instance.discrepancies)
                    shrunk = _handle_failure(
                        config,
                        harness,
                        function,
                        deadline,
                        index,
                        report,
                        corpus_dir,
                        instance,
                    )
                    if shrunk is not None:
                        record["shrunk"] = shrunk.to_record()
                    if log is not None:
                        log(
                            f"[{index}] 0x{function.to_hex()} "
                            f"({strategy}): "
                            f"{len(instance.discrepancies)} discrepancy(ies)"
                        )
                elif log is not None:
                    log(
                        f"[{index}] 0x{function.to_hex()} ({strategy}): ok"
                    )
                emit(record)
                index += 1
        report.elapsed = deadline.elapsed
        emit(report.to_record())
    finally:
        if handle is not None:
            handle.close()
    return report


def _handle_failure(
    config: FuzzConfig,
    harness: DifferentialHarness,
    function: TruthTable,
    deadline: Deadline,
    index: int,
    report: FuzzReport,
    corpus_dir,
    instance: DifferentialReport,
) -> ShrinkResult | None:
    """Shrink a failing function and record the reproducer."""
    if not config.shrink:
        return None

    def still_fails(candidate: TruthTable) -> bool:
        if deadline.expired():
            return False  # stop shrinking at the budget, keep best-so-far
        return bool(harness.check(candidate, deadline=deadline).discrepancies)

    try:
        shrunk = shrink_function(
            function,
            still_fails,
            max_evaluations=config.max_shrink_evaluations,
        )
    except ValueError:
        return None  # budget expired before the first re-check
    report.shrunk.append(shrunk)
    if corpus_dir is not None:
        entry = CorpusEntry(
            name=f"fuzz-{config.seed}-{index}",
            hex=shrunk.minimized.to_hex(),
            num_vars=shrunk.minimized.num_vars,
            kind="discrepancy",
            description=instance.discrepancies[0].detail,
            engines=tuple(
                sorted({d.engine for d in instance.discrepancies})
            ),
            origin=(
                f"repro-fuzz seed={config.seed} instance={index} "
                f"original=0x{function.to_hex()}/{function.num_vars}"
            ),
            trail=shrunk.trail,
        )
        save_entry(corpus_dir, entry)
    return shrunk
