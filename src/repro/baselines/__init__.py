"""Comparison algorithms for Table I: BMS (plain SSV SAT), FEN
(fence-constrained SAT), and an ABC lutexact-style CEGAR engine.

Each module supplies only its search at one gate count (``searcher``);
the registered engines ``bms``, ``fen`` and ``lutexact`` share one size
loop (:mod:`repro.engine.adapters`) with the CEGIS engine."""

from . import bms, fence_synth, lutexact

__all__ = ["bms", "fence_synth", "lutexact"]
