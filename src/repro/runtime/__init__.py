"""Fault-tolerant synthesis runtime.

The execution layer every entry point routes synthesis through:

* :mod:`.errors` — structured exception hierarchy
  (:class:`SynthesisError` and friends);
* :mod:`.worker` — resident process-isolated workers with hard
  wall-clock timeouts and optional memory caps, leased one attempt at a
  time from a :class:`WorkerPool` and retired on any failure;
* :mod:`.executor` — :class:`FaultTolerantExecutor`, the one resolve
  path: store lookup, infeasible floor, a walk of the engine lanes as
  a fallback chain with retry and backoff, verify, write-back and
  degradation to stored upper bounds; every isolated attempt leases a
  worker from the executor's own pool, which
  :meth:`FaultTolerantExecutor.close` stops;
* :mod:`.checkpoint` — streaming JSONL checkpoints for resumable
  benchmark runs;
* :mod:`.faults` — deterministic fault injection for testing every
  degradation path.

Engines are resolved by registry name through :mod:`repro.engine`.
Only :mod:`.errors` is imported eagerly; the heavier modules (which
import the synthesis engines) are loaded on first attribute access so
that low-level modules such as :mod:`repro.core.spec` can depend on
the error hierarchy without import cycles.
"""

from __future__ import annotations

from .errors import (
    BudgetExceeded,
    EngineUnavailable,
    SynthesisError,
    SynthesisInfeasible,
    VerificationFailed,
    WorkerCrash,
    classify_failure,
)

__all__ = [
    # errors (eager)
    "SynthesisError",
    "BudgetExceeded",
    "SynthesisInfeasible",
    "WorkerCrash",
    "VerificationFailed",
    "EngineUnavailable",
    "classify_failure",
    # lazily loaded
    "FaultTolerantExecutor",
    "ExecutionOutcome",
    "AttemptRecord",
    "format_trail",
    "WorkerTask",
    "WorkerHandle",
    "WorkerPool",
    "run_isolated",
    "CheckpointLog",
    "instance_key",
    "FaultPlan",
    "FaultSpec",
    "execute_fault",
    "busy_wait",
]

_LAZY = {
    "FaultTolerantExecutor": ("executor", "FaultTolerantExecutor"),
    "ExecutionOutcome": ("executor", "ExecutionOutcome"),
    "AttemptRecord": ("executor", "AttemptRecord"),
    "format_trail": ("executor", "format_trail"),
    "WorkerTask": ("worker", "WorkerTask"),
    "WorkerHandle": ("worker", "WorkerHandle"),
    "WorkerPool": ("worker", "WorkerPool"),
    "run_isolated": ("worker", "run_isolated"),
    "CheckpointLog": ("checkpoint", "CheckpointLog"),
    "instance_key": ("checkpoint", "instance_key"),
    "FaultPlan": ("faults", "FaultPlan"),
    "FaultSpec": ("faults", "FaultSpec"),
    "execute_fault": ("faults", "execute_fault"),
    "busy_wait": ("faults", "busy_wait"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
