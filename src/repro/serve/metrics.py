"""Serving-side gauges and latency percentiles.

The batch layer already counts everything about *synthesis*
(:class:`~repro.core.spec.SynthesisStats`, ``KERNEL_STATS``, the
store's hit/miss counters).  What it cannot see is the *serving*
picture: how many requests arrived, how many coalesced onto an
in-flight class, how deep the scheduler backlog is, and what the
request latency distribution looks like.  :class:`ServingMetrics`
keeps exactly those gauges and feeds them into
:func:`repro.stats.stats_snapshot` as the ``serving`` section of
``/metrics``.

Everything here is mutated from the event-loop thread only, so no
locking is needed; the percentile window is bounded so a long-lived
server cannot grow without bound.
"""

from __future__ import annotations

import math
import time
from collections import deque

__all__ = ["LatencyWindow", "ServingMetrics"]


class LatencyWindow:
    """Bounded reservoir of recent request latencies (seconds).

    Percentiles are computed over the last ``maxlen`` observations —
    a sliding window, not lifetime — which is what an operator
    watching ``/metrics`` actually wants: "what is p99 *now*", not
    "what was p99 averaged over the last week".
    """

    def __init__(self, maxlen: int = 4096) -> None:
        self._samples: deque[float] = deque(maxlen=maxlen)
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self._samples.append(seconds)
        self.count += 1
        self.total += seconds

    def percentile(self, pct: float) -> float:
        """The ``pct``-th percentile (nearest-rank) of the window."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(
            0, min(len(ordered) - 1, math.ceil(pct / 100.0 * len(ordered)) - 1)
        )
        return ordered[rank]

    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count


class ServingMetrics:
    """Request-level counters + latency window for the serving layer.

    ``requests`` counts every synthesis request that was admitted
    (past rate limiting and drain checks).  The disposition counters
    partition them: ``store_hits`` answered warm from the chain
    store, ``engine_runs`` owned an engine synthesis, ``coalesced``
    piggybacked on another request's in-flight synthesis,
    ``degraded`` served a non-exact upper bound, ``failures`` got a
    hard failure.  Rejections (``rate_limited``, ``shed``,
    ``draining``) never enter ``requests``.
    """

    def __init__(self, *, window: int = 4096, clock=time.monotonic) -> None:
        self._clock = clock
        self.started_at = clock()
        self.requests = 0
        self.store_hits = 0
        self.engine_runs = 0
        self.coalesced = 0
        self.degraded = 0
        self.failures = 0
        self.rate_limited = 0
        self.shed = 0
        self.draining_rejected = 0
        self.bad_requests = 0
        self.verify_failures = 0
        #: Warm-path store lookups that raised; each such request went
        #: on to the engine path.
        self.store_errors = 0
        #: Requests answered 504 because their deadline lapsed (at
        #: admission, in the dispatch queue, or awaiting a coalesced
        #: in-flight synthesis) — none of them occupied a worker.
        self.expired = 0
        #: Connections refused 503 at accept because the concurrent
        #: socket cap was already full.
        self.connections_shed = 0
        #: Live socket gauge + high-water mark.
        self.connections_active = 0
        self.connections_peak = 0
        self.latency = LatencyWindow(window)

    def connection_opened(self) -> None:
        self.connections_active += 1
        self.connections_peak = max(
            self.connections_peak, self.connections_active
        )

    def connection_closed(self) -> None:
        self.connections_active -= 1

    @property
    def coalesce_ratio(self) -> float:
        """Fraction of admitted requests that rode an in-flight class."""
        if self.requests == 0:
            return 0.0
        return self.coalesced / self.requests

    @property
    def hit_ratio(self) -> float:
        """Fraction of admitted requests answered warm from the store."""
        if self.requests == 0:
            return 0.0
        return self.store_hits / self.requests

    def to_record(
        self, *, queue_depth: int = 0, inflight_classes: int = 0
    ) -> dict:
        """JSON-safe gauge snapshot for the ``/metrics`` endpoint."""
        return {
            "uptime_seconds": round(self._clock() - self.started_at, 3),
            "requests": self.requests,
            "store_hits": self.store_hits,
            "engine_runs": self.engine_runs,
            "coalesced": self.coalesced,
            "degraded": self.degraded,
            "failures": self.failures,
            "rate_limited": self.rate_limited,
            "shed": self.shed,
            "draining_rejected": self.draining_rejected,
            "bad_requests": self.bad_requests,
            "verify_failures": self.verify_failures,
            "store_errors": self.store_errors,
            "expired": self.expired,
            "connections_shed": self.connections_shed,
            "connections_active": self.connections_active,
            "connections_peak": self.connections_peak,
            "coalesce_ratio": round(self.coalesce_ratio, 4),
            "hit_ratio": round(self.hit_ratio, 4),
            "queue_depth": queue_depth,
            "inflight_classes": inflight_classes,
            "latency_ms": {
                "count": self.latency.count,
                "mean": round(self.latency.mean() * 1000.0, 3),
                "p50": round(self.latency.percentile(50) * 1000.0, 3),
                "p90": round(self.latency.percentile(90) * 1000.0, 3),
                "p99": round(self.latency.percentile(99) * 1000.0, 3),
            },
        }
