"""Differential verification and fuzzing.

The repository's standing correctness gate: stratified function
generators (:mod:`~repro.verify.generators`), a cross-engine
differential oracle (:mod:`~repro.verify.oracle`), an automatic
failure shrinker (:mod:`~repro.verify.shrink`), the on-disk failure
corpus (:mod:`~repro.verify.corpus`), and budgeted fuzz campaigns
(:mod:`~repro.verify.fuzz`) behind the ``repro-fuzz`` CLI.

See ``TESTING.md`` for how the pieces fit the test tiers.
"""

from .corpus import (
    CORPUS_VERSION,
    CorpusEntry,
    default_corpus_dir,
    load_corpus,
    save_entry,
)
from .fuzz import FuzzConfig, FuzzReport, run_fuzz
from .generators import (
    DEFAULT_SEED_FUNCTIONS,
    STRATEGIES,
    FunctionGenerator,
    strategy_names,
)
from .oracle import (
    DifferentialHarness,
    DifferentialReport,
    Discrepancy,
    EngineObservation,
)
from .shrink import ShrinkResult, shrink_function

__all__ = [
    "CORPUS_VERSION",
    "CorpusEntry",
    "default_corpus_dir",
    "load_corpus",
    "save_entry",
    "FuzzConfig",
    "FuzzReport",
    "run_fuzz",
    "DEFAULT_SEED_FUNCTIONS",
    "STRATEGIES",
    "FunctionGenerator",
    "strategy_names",
    "DifferentialHarness",
    "DifferentialReport",
    "Discrepancy",
    "EngineObservation",
    "ShrinkResult",
    "shrink_function",
]
