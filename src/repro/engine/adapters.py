"""Engine-protocol adapters for every synthesizer in the repository.

Each adapter maps :class:`~repro.core.spec.SynthesisSpec` fields onto
its backend's knobs and exposes the uniform
``synthesize(spec, ctx)`` entry point.  Constructor keyword arguments
act as *spec overrides*: the fault-tolerant runtime configures engines
with a shared ``engine_kwargs`` dict (e.g. ``{"max_solutions": 64}``),
and each adapter keeps only the keys its backend honours — unknown
knobs are silently ignored so one dict can configure a heterogeneous
fallback chain.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.context import SynthesisContext
from ..core.spec import SynthesisResult, SynthesisSpec
from .protocol import EngineCapabilities
from .registry import register_engine

__all__ = [
    "STPEngine",
    "HierEngine",
    "FENEngine",
    "BMSEngine",
    "LutExactEngine",
    "CegisEngine",
]


class _SpecAdapter:
    """Shared plumbing: spec overrides and context-aware timeouts."""

    #: Spec fields this engine's backend honours as ctor overrides.
    _SPEC_KEYS: tuple[str, ...] = ()

    def __init__(self, **kwargs) -> None:
        self._overrides = {
            key: value
            for key, value in kwargs.items()
            if key in self._SPEC_KEYS and value is not None
        }

    def _effective_spec(self, spec: SynthesisSpec) -> SynthesisSpec:
        if not self._overrides:
            return spec
        return replace(spec, **self._overrides)

    @staticmethod
    def _timeout(
        spec: SynthesisSpec, ctx: SynthesisContext | None
    ) -> float | None:
        if ctx is not None:
            return ctx.deadline.remaining()
        return spec.timeout


@register_engine("stp")
class STPEngine(_SpecAdapter):
    """The paper's STP factorization pipeline (Section III)."""

    capabilities = EngineCapabilities(
        all_solutions=True,
        verification=True,
        custom_operators=True,
        exact=True,
    )
    _SPEC_KEYS = (
        "operators",
        "max_gates",
        "all_solutions",
        "verify",
        "max_solutions",
        "canonicalize_dont_cares",
        "npn_canonicalize",
    )

    def synthesize(
        self, spec: SynthesisSpec, ctx: SynthesisContext | None = None
    ) -> SynthesisResult:
        from ..core.pipeline import run_pipeline

        return run_pipeline(self._effective_spec(spec), ctx)


@register_engine("hier")
class HierEngine(_SpecAdapter):
    """DSD-hierarchical synthesis with exact prime blocks."""

    capabilities = EngineCapabilities(
        all_solutions=True,
        verification=True,
        custom_operators=True,
        exact=False,
    )
    _SPEC_KEYS = ("operators", "all_solutions", "max_solutions")

    def synthesize(
        self, spec: SynthesisSpec, ctx: SynthesisContext | None = None
    ) -> SynthesisResult:
        from ..core.hierarchical import HierarchicalSynthesizer

        eff = self._effective_spec(spec)
        return HierarchicalSynthesizer(
            operators=eff.operators,
            max_solutions=eff.max_solutions,
            all_solutions=eff.all_solutions,
        ).run(eff, ctx=ctx)


class _BaselineAdapter(_SpecAdapter):
    """Shared dispatch for the single-solution SSV baselines."""

    _SPEC_KEYS = ("max_gates",)

    def _backend(self, spec: SynthesisSpec):
        raise NotImplementedError

    def synthesize(
        self, spec: SynthesisSpec, ctx: SynthesisContext | None = None
    ) -> SynthesisResult:
        eff = self._effective_spec(spec)
        result = self._backend(eff).synthesize(
            eff.function, timeout=self._timeout(eff, ctx)
        )
        if ctx is not None:
            ctx.stats.merge(result.stats)
        return result


@register_engine("fen")
class FENEngine(_BaselineAdapter):
    """Fence-enumerating CNF baseline (FEN)."""

    capabilities = EngineCapabilities(
        all_solutions=False,
        verification=True,
        custom_operators=False,
        exact=True,
    )

    def _backend(self, spec: SynthesisSpec):
        from ..baselines.fence_synth import FenceSynthesizer

        return FenceSynthesizer(max_gates=spec.max_gates)


@register_engine("bms")
class BMSEngine(_BaselineAdapter):
    """Topology-free CNF baseline (BMS)."""

    capabilities = EngineCapabilities(
        all_solutions=False,
        verification=True,
        custom_operators=False,
        exact=True,
    )

    def _backend(self, spec: SynthesisSpec):
        from ..baselines.bms import BMSSynthesizer

        return BMSSynthesizer(max_gates=spec.max_gates)


@register_engine("lutexact")
class LutExactEngine(_BaselineAdapter):
    """CEGAR-refined SSV baseline (ABC lutexact-style)."""

    capabilities = EngineCapabilities(
        all_solutions=False,
        verification=True,
        custom_operators=False,
        exact=True,
    )

    def _backend(self, spec: SynthesisSpec):
        from ..baselines.lutexact import LutExactSynthesizer

        return LutExactSynthesizer(max_gates=spec.max_gates)


@register_engine("cegis")
class CegisEngine(_BaselineAdapter):
    """Counterexample-guided sample-based exact synthesis (CEGIS)."""

    capabilities = EngineCapabilities(
        all_solutions=False,
        verification=True,
        custom_operators=False,
        exact=True,
    )

    def _backend(self, spec: SynthesisSpec):
        from ..core.cegis import CegisSynthesizer

        return CegisSynthesizer(max_gates=spec.max_gates)
