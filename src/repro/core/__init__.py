"""The paper's primary contribution: STP-based exact synthesis —
matrix factorization, the circuit AllSAT solver, and the synthesizer."""

from .spec import (
    Deadline,
    SynthesisResult,
    SynthesisSpec,
    SynthesisStats,
    SynthStats,
)
from .context import SynthesisContext
from .factorization import Factorization, FactorizationEngine, is_complement_closed
from .circuit_sat import (
    chain_all_sat,
    cubes_to_onset,
    merge_cube_sets,
    merge_cubes,
    simulate_solutions,
    verify_chain,
)
from .pipeline import PipelineState, run_pipeline
from .synthesizer import synthesize
from .hierarchical import HierarchicalSynthesizer, hierarchical_synthesize
from .sizebound import exact_min_gates_upto3, min_gates_lower_bound

__all__ = [
    "Deadline",
    "SynthesisResult",
    "SynthesisSpec",
    "SynthesisStats",
    "SynthStats",
    "SynthesisContext",
    "PipelineState",
    "run_pipeline",
    "Factorization",
    "FactorizationEngine",
    "is_complement_closed",
    "chain_all_sat",
    "cubes_to_onset",
    "merge_cube_sets",
    "merge_cubes",
    "simulate_solutions",
    "verify_chain",
    "synthesize",
    "HierarchicalSynthesizer",
    "hierarchical_synthesize",
    "exact_min_gates_upto3",
    "min_gates_lower_bound",
]
