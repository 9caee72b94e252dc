"""The first-class synthesis-engine protocol.

Every synthesis algorithm in the repository — the paper's STP
factorization engine, the DSD-hierarchical fast path, and the three
baselines — is exposed as an :class:`Engine`: a named object with a
static :class:`EngineCapabilities` description and a single
``synthesize(spec, ctx)`` entry point.  The CLI, the benchmark runner,
the NPN database, hierarchical prime-block synthesis, and the
fault-tolerant fallback chain all dispatch through this protocol, so
adding an engine means registering one adapter, not editing five call
sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..core.context import SynthesisContext
from ..core.spec import SynthesisResult, SynthesisSpec

__all__ = ["EngineCapabilities", "Engine"]


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine can honour from a :class:`SynthesisSpec`.

    Attributes
    ----------
    all_solutions:
        The engine can enumerate the *full* optimal-solution set (the
        paper's headline mode); engines without it return one chain.
    verification:
        Candidates are verified (AllSAT or simulation) before being
        returned.
    custom_operators:
        ``spec.operators`` restricts the gate library; engines without
        it always use the full nontrivial binary set.
    exact:
        Returned chains are guaranteed gate-count optimal.
    """

    all_solutions: bool = False
    verification: bool = True
    custom_operators: bool = False
    exact: bool = True


@runtime_checkable
class Engine(Protocol):
    """A synthesis engine: ``name``, ``capabilities``, ``synthesize``.

    ``synthesize`` consumes a full :class:`SynthesisSpec` and an
    optional :class:`SynthesisContext`; when ``ctx`` is ``None`` the
    engine creates a fresh one from the spec's timeout and the
    process-global cache.
    """

    name: str
    capabilities: EngineCapabilities

    def synthesize(
        self, spec: SynthesisSpec, ctx: SynthesisContext | None = None
    ) -> SynthesisResult:
        ...
