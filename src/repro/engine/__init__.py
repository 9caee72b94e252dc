"""First-class synthesis engines.

The protocol (:mod:`~repro.engine.protocol`), the string-keyed
registry (:mod:`~repro.engine.registry`), and one adapter per
synthesizer (:mod:`~repro.engine.adapters`).  Importing this package
registers the six built-in engines: ``stp``, ``hier``, ``fen``,
``bms``, ``lutexact``, and ``cegis``.

:func:`run_engine` is the convenience dispatch the runtime's executor
and isolated workers call by engine name: it builds a
:class:`SynthesisSpec` from a bare ``(function, timeout)`` pair,
instantiates the named engine with any extra knobs as spec overrides,
and runs it.
"""

from __future__ import annotations

from ..core.spec import SynthesisResult, SynthesisSpec
from ..truthtable.table import TruthTable
from . import adapters as _adapters  # noqa: F401  (registers engines)
from .adapters import (
    BMSEngine,
    CegisEngine,
    FENEngine,
    HierEngine,
    LutExactEngine,
    STPEngine,
)
from .protocol import Engine, EngineCapabilities
from .registry import (
    create_engine,
    engine_capabilities,
    engine_names,
    register_engine,
)

__all__ = [
    "Engine",
    "EngineCapabilities",
    "register_engine",
    "create_engine",
    "engine_names",
    "engine_capabilities",
    "run_engine",
    "STPEngine",
    "HierEngine",
    "FENEngine",
    "BMSEngine",
    "LutExactEngine",
    "CegisEngine",
]


def run_engine(
    name: str,
    function: TruthTable,
    timeout: float | None = None,
    ctx=None,
    **kwargs,
) -> SynthesisResult:
    """Dispatch a bare ``(function, timeout)`` call to a named engine.

    Unknown names raise
    :class:`~repro.runtime.errors.EngineUnavailable`.  ``kwargs``
    become spec overrides for knobs the engine supports; the rest are
    ignored (the fallback-chain contract).
    """
    engine = create_engine(name, **kwargs)
    spec = SynthesisSpec(function=function, timeout=timeout)
    return engine.synthesize(spec, ctx)
