"""Bit-parallel kernel layer.

The synthesis core dispatches its hot paths through this package:

* :mod:`~repro.kernels.cubes` / :mod:`~repro.kernels.allsat` — packed
  two-plane cubes, the word-level MERGE, circuit AllSAT, and the
  word-parallel onset expansion;
* :mod:`~repro.kernels.factorization` — packed quartering-part
  profiles, shape index maps, the child-to-union expand gather, and the
  2-input operator flip tables;
* :mod:`~repro.kernels.tables` — truth-table cofactor/support/permute
  kernels and batch exact NPN canonicalization;
* :mod:`~repro.kernels.simulate` — :func:`lut_apply`, one LUT evaluated
  over whole packed truth tables (chain, network and cut simulation,
  don't-care canonicalization, the polarity closure), and
  :func:`check_solution_set`, one verdict per chain record of a
  solution set (the executor's, the store's and the service's check);
* :mod:`~repro.kernels.stats` — the per-kernel invocation/time
  registry (:data:`KERNEL_STATS`) that
  :func:`repro.core.pipeline.run_pipeline` folds into
  :class:`~repro.core.spec.SynthesisStats`;
* :mod:`~repro.kernels.reference` — the original pure-Python
  implementations, kept for equivalence tests and the old-vs-new
  benchmark only.

Layering: kernels import nothing from the rest of :mod:`repro`, so any
layer (truth tables, STP algebra, core, store) may call down into them
without cycles.
"""

from .allsat import (
    chain_onset,
    packed_all_sat,
    stp_assignments,
)
from .bitops import (
    array_to_bits,
    bits_to_array,
    collapse_indices,
    spread_indices,
    var_mask,
)
from .cubes import (
    merge_packed_sets,
    pack_cube,
    pack_cubes,
    packed_onset,
    unpack_cube,
    unpack_cubes,
)
from .factorization import (
    FLIP_INPUT0,
    FLIP_INPUT1,
    expand_positions,
    index_maps,
    quartering_profiles,
)
from .simulate import MAX_LUT_INPUTS, check_solution_set, lut_apply
from .stats import KERNEL_STATS, KernelCounters, SampledTimer
from .tables import (
    cofactor_bits,
    depends_bits,
    npn_apply_bits,
    npn_minimum,
    npn_orbit,
    permute_bits,
    support_bits,
)

__all__ = [
    "KERNEL_STATS",
    "KernelCounters",
    "MAX_LUT_INPUTS",
    "SampledTimer",
    "array_to_bits",
    "bits_to_array",
    "chain_onset",
    "check_solution_set",
    "cofactor_bits",
    "collapse_indices",
    "depends_bits",
    "expand_positions",
    "FLIP_INPUT0",
    "FLIP_INPUT1",
    "index_maps",
    "lut_apply",
    "merge_packed_sets",
    "npn_apply_bits",
    "npn_minimum",
    "npn_orbit",
    "pack_cube",
    "pack_cubes",
    "packed_all_sat",
    "packed_onset",
    "permute_bits",
    "quartering_profiles",
    "spread_indices",
    "stp_assignments",
    "support_bits",
    "unpack_cube",
    "unpack_cubes",
    "var_mask",
]
