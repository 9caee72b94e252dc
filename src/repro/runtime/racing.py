"""Engine racing: the ``width >= 2`` preset of the one resolve path.

A sequential fallback chain lets a hard instance burn the whole budget
in engine #1 before engine #2 — which might have solved it in a second
— even starts.  :class:`RacingExecutor` is a
:class:`~repro.runtime.executor.FaultTolerantExecutor` preset whose
lane scheduler races a small set of registered engines concurrently,
each in its own killable worker process: the first verified *exact*
answer wins, inexact answers are held, and every loser is cancelled
and reaped, with its kill-to-reap latency recorded as a
:class:`CancellationRecord` in ``last_cancellations``.  Store lookup,
the infeasible floor, verification, write-back and degradation to
upper bounds are the executor's shared steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .executor import FaultTolerantExecutor
from .health import EngineHealth

__all__ = [
    "CancellationRecord",
    "RacingExecutor",
    "DEFAULT_RACE_ENGINES",
    "RACE_WIDTH",
]

#: Default racing lanes: the paper's STP pipeline, the fence baseline,
#: and the CEGIS engine — three genuinely different search strategies.
DEFAULT_RACE_ENGINES = ("stp", "fen", "cegis")

#: Concurrent lanes per round when a caller races (2–3 is the sweet
#: spot; more mostly burns cores).
RACE_WIDTH = 3


@dataclass(frozen=True)
class CancellationRecord:
    """One cancelled racing loser: which worker, and how fast it died."""

    engine: str
    pid: int | None
    seconds: float

    def to_record(self) -> dict:
        return {
            "engine": self.engine,
            "pid": self.pid,
            "seconds": round(self.seconds, 6),
        }


class RacingExecutor(FaultTolerantExecutor):
    """Race registered engines in isolated workers; first exact wins.

    Parameters
    ----------
    engines:
        Candidate lanes, preference order (used for health tie-breaks).
    width:
        Maximum concurrent lanes per round.
    health:
        Shared :class:`EngineHealth`; a fresh private instance when
        omitted.  Sharing one across executors lets a suite's breaker
        state and class-time history inform every race.
    store / fault_plan / memory_limit_mb / engine_kwargs:
        As on :class:`FaultTolerantExecutor`.
    """

    def __init__(
        self,
        engines: Sequence[str] = DEFAULT_RACE_ENGINES,
        *,
        width: int = RACE_WIDTH,
        health: EngineHealth | None = None,
        store=None,
        fault_plan=None,
        memory_limit_mb: int | None = None,
        engine_kwargs: dict[str, dict] | None = None,
    ) -> None:
        super().__init__(
            engines,
            width=width,
            health=health if health is not None else EngineHealth(),
            isolate=True,
            store=store,
            fault_plan=fault_plan,
            memory_limit_mb=memory_limit_mb,
            engine_kwargs=engine_kwargs,
        )
