"""Engine racing: the lanes and records of the ``width >= 2`` path.

A sequential fallback chain lets a hard instance burn the whole budget
in engine #1 before engine #2 — which might have solved it in a second
— even starts.  ``FaultTolerantExecutor(DEFAULT_RACE_ENGINES,
width=RACE_WIDTH)`` races a small set of registered engines
concurrently, each in its own killable worker process: the first
verified *exact* answer wins, inexact answers are held, an exact
lane's ``infeasible`` ends the race, and every loser is cancelled and
reaped, with its kill-to-reap latency recorded as a
:class:`CancellationRecord` in ``last_cancellations``.  Store lookup,
the infeasible floor, verification, write-back and degradation to
upper bounds are the executor's shared steps.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CancellationRecord", "DEFAULT_RACE_ENGINES", "RACE_WIDTH"]

#: Default racing lanes: the paper's STP pipeline, the fence baseline,
#: and the CEGIS engine — three genuinely different search strategies.
DEFAULT_RACE_ENGINES = ("stp", "fen", "cegis")

#: Concurrent lanes when a caller races (2–3 is the sweet spot; more
#: mostly burns cores).
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
