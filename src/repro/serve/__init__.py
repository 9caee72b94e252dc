"""Synthesis-as-a-service: the resident serving layer.

Everything the batch reproduction grew — the NPN-keyed
:class:`~repro.store.ChainStore`, the resident
:class:`~repro.parallel.BatchScheduler` pool, the fault-tolerant
engine walk, graceful degradation — hosted behind a long-lived asyncio
HTTP + JSON API (``repro-serve``).  Requests are canonicalized to
their NPN class, concurrent duplicates coalesce onto one
in-flight synthesis, warm classes are served straight from the store
through the caller's inverse transform, and misses run on the
persistent dispatcher pool in arrival order.  A request may carry a
deadline; one that lapses before a worker takes it is answered 504
without running.
"""

from .metrics import ServingMetrics
from .multiproc import SiblingRegistry, reserve_port, supervise
from .ratelimit import RateLimiter, TokenBucket
from .server import SynthesisServer
from .service import SynthesisRequest, SynthesisResponse, SynthesisService

__all__ = [
    "ServingMetrics",
    "SiblingRegistry",
    "reserve_port",
    "supervise",
    "RateLimiter",
    "TokenBucket",
    "SynthesisServer",
    "SynthesisRequest",
    "SynthesisResponse",
    "SynthesisService",
]
