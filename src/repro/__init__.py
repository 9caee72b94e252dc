"""repro — exact logic synthesis based on a semi-tensor product (STP)
circuit solver.

A from-scratch Python reproduction of *"Exact Synthesis Based on
Semi-Tensor Product Circuit Solver"* (Pan & Chu, DATE 2023): the STP
matrix substrate, the STP canonical-form AllSAT solver, DAG topology
families, STP matrix factorization, the circuit-based AllSAT verifier,
and the surrounding evaluation machinery (NPN/DSD workloads, a CDCL
SAT solver, and three baseline exact synthesizers).

Quick start::

    from repro import synthesize, from_hex

    result = synthesize(from_hex("8ff8", 4))
    for chain in result.chains:        # ALL optimal 2-LUT chains
        print(chain.format())
"""

from .truthtable import TruthTable, from_function, from_hex, projection
from .chain import BooleanChain, select_best
from .runtime.errors import (
    BudgetExceeded,
    EngineUnavailable,
    SynthesisError,
    SynthesisInfeasible,
    VerificationFailed,
    WorkerCrash,
)
from .core import (
    HierarchicalSynthesizer,
    SynthesisContext,
    SynthesisResult,
    SynthesisSpec,
    hierarchical_synthesize,
    synthesize,
    verify_chain,
)
from .cache import SynthesisCache, get_cache, reset_cache, set_cache
from .engine import (
    Engine,
    EngineCapabilities,
    create_engine,
    engine_names,
    run_engine,
)

__version__ = "1.0.0"

__all__ = [
    "TruthTable",
    "from_function",
    "from_hex",
    "projection",
    "BooleanChain",
    "select_best",
    "SynthesisError",
    "BudgetExceeded",
    "SynthesisInfeasible",
    "WorkerCrash",
    "VerificationFailed",
    "EngineUnavailable",
    "HierarchicalSynthesizer",
    "SynthesisContext",
    "SynthesisResult",
    "SynthesisSpec",
    "SynthesisCache",
    "get_cache",
    "set_cache",
    "reset_cache",
    "Engine",
    "EngineCapabilities",
    "create_engine",
    "engine_names",
    "run_engine",
    "hierarchical_synthesize",
    "synthesize",
    "verify_chain",
    "__version__",
]
