"""Engine-protocol adapters for every synthesizer in the repository.

Each adapter exposes the uniform ``synthesize(spec, ctx)`` entry point
and reads its settings from the :class:`~repro.core.spec.SynthesisSpec`.
Constructor keyword arguments act as *spec overrides*: the
fault-tolerant runtime configures engines with a shared
``engine_kwargs`` dict (e.g. ``{"max_solutions": 64}``), and each
adapter keeps only the keys its backend honours — unknown knobs are
silently ignored so one dict can configure a heterogeneous fallback
chain.

The four single-solution SAT engines (``fen``, ``bms``, ``lutexact``
and ``cegis``) share one size loop, :meth:`_SatEngine.synthesize`;
each supplies only its search at one gate count.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import replace

from ..chain.transform import lift_chain, shrink_to_support, trivial_chain
from ..core.context import SynthesisContext
from ..core.spec import SynthesisResult, SynthesisSpec
from ..runtime.errors import SynthesisInfeasible
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
    """Shared plumbing: spec overrides."""

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


@register_engine("stp")
class STPEngine(_SpecAdapter):
    """The paper's STP factorization pipeline (Section III)."""

    capabilities = EngineCapabilities(exact=True)
    _SPEC_KEYS = (
        "operators",
        "max_gates",
        "all_solutions",
        "verify",
        "max_solutions",
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

    capabilities = EngineCapabilities(exact=False)
    _SPEC_KEYS = ("operators", "max_gates", "all_solutions", "max_solutions")

    def synthesize(
        self, spec: SynthesisSpec, ctx: SynthesisContext | None = None
    ) -> SynthesisResult:
        from ..core.hierarchical import HierarchicalSynthesizer

        return HierarchicalSynthesizer().run(self._effective_spec(spec), ctx)


class _SatEngine(_SpecAdapter):
    """The single-solution SAT engines' one size loop.

    Each engine supplies only ``searcher(normal, complemented, ctx)``
    in the module it names: it returns ``search(r)``, the engine's
    search at one gate count, which answers an ``r``-gate chain of the
    normal form or ``None`` when there is none.  The loop tries ``r``
    upwards from the support bound, so the first chain found is
    size-optimal.
    """

    capabilities = EngineCapabilities(exact=True)
    _SPEC_KEYS = ("max_gates",)
    #: The module with the engine's ``searcher``, imported on first use.
    _searcher_module = ""

    def synthesize(
        self, spec: SynthesisSpec, ctx: SynthesisContext | None = None
    ) -> SynthesisResult:
        # The SAT layer loads on the first SAT-engine call, not with the
        # registry.
        from ..sat.encodings import normalize_function

        spec = self._effective_spec(spec)
        if ctx is None:
            ctx = SynthesisContext.create(timeout=spec.timeout)
        start = time.perf_counter()
        function = spec.function

        chain = trivial_chain(function)
        if chain is not None:
            return SynthesisResult(
                spec, [chain], 0, time.perf_counter() - start, ctx.stats
            )

        local, support = shrink_to_support(function)
        normal, complemented = normalize_function(local)
        module = importlib.import_module(self._searcher_module)
        search = module.searcher(normal, complemented, ctx)
        cap = spec.effective_max_gates()
        for r in range(max(1, len(support) - 1), cap + 1):
            ctx.deadline.check()
            found = search(r)
            if found is not None:
                lifted = lift_chain(found, function.num_vars, support)
                if lifted.simulate_output() != function:
                    raise AssertionError(
                        f"decoded {self.name} chain does not realise "
                        "the target"
                    )
                return SynthesisResult(
                    spec, [lifted], r, time.perf_counter() - start, ctx.stats
                )
        raise SynthesisInfeasible(
            f"{self.name} found no chain within {cap} gates"
        )


@register_engine("fen")
class FENEngine(_SatEngine):
    """Fence-enumerating CNF baseline (FEN)."""

    _searcher_module = "repro.baselines.fence_synth"


@register_engine("bms")
class BMSEngine(_SatEngine):
    """Topology-free CNF baseline (BMS)."""

    _searcher_module = "repro.baselines.bms"


@register_engine("lutexact")
class LutExactEngine(_SatEngine):
    """CEGAR-refined SSV baseline (ABC lutexact-style)."""

    _searcher_module = "repro.baselines.lutexact"


@register_engine("cegis")
class CegisEngine(_SatEngine):
    """Counterexample-guided sample-based exact synthesis (CEGIS)."""

    _searcher_module = "repro.core.cegis"
