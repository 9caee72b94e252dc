"""Index helpers for the STP matrix-factorization engine.

The factorization engine answers each query on first use with pure-int
solvers; this module holds the index work they share:

* :func:`index_maps` — the γ → (α, β) shape maps and, for disjoint
  cones, the inverse (α, β) → γ matrix;
* :func:`quartering_profiles` — the "two unique quartering parts"
  check's raw material: for every assignment α of the A-cone, the
  β-profile of ``g_v`` packed into one int (equal ints are equal
  column blocks);
* :func:`expand_positions` — a child-local table moved onto the
  union-local row space.

2-input operator transforms (complementing either input or the output)
are precomputed 16-entry lookup tables instead of a per-row bit loop.
"""

from __future__ import annotations

import numpy as np

from .bitops import array_to_bits, bits_to_array, collapse_indices
from .stats import KERNEL_STATS, SampledTimer

__all__ = [
    "FLIP_INPUT0",
    "FLIP_INPUT1",
    "index_maps",
    "quartering_profiles",
    "expand_positions",
]

#: 2-input op code with the first input complemented (rows 0↔1, 2↔3).
FLIP_INPUT0 = tuple(
    ((code & 0b0101) << 1) | ((code & 0b1010) >> 1) for code in range(16)
)

#: 2-input op code with the second input complemented (rows 0↔2, 1↔3).
FLIP_INPUT1 = tuple(
    ((code & 0b0011) << 2) | ((code & 0b1100) >> 2) for code in range(16)
)


def index_maps(
    nu: int, a_pos: tuple[int, ...], b_pos: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, bool, np.ndarray | None]:
    """Shape maps ``γ → (α, β)`` plus the disjoint inverse matrix.

    Returns ``(amap, bmap, disjoint, gamma_of)`` where ``amap[γ]`` /
    ``bmap[γ]`` are the child-row indices of joint row ``γ`` and —
    when the cones partition the union — ``gamma_of[α, β]`` is the
    joint row realising the pair.
    """
    KERNEL_STATS.count("fact_index_maps")
    amap = collapse_indices(a_pos, nu)
    bmap = collapse_indices(b_pos, nu)
    disjoint = (
        not (set(a_pos) & set(b_pos)) and len(a_pos) + len(b_pos) == nu
    )
    gamma_of = None
    if disjoint:
        gamma_of = np.empty(
            (1 << len(a_pos), 1 << len(b_pos)), dtype=np.int64
        )
        gamma_of[amap, bmap] = np.arange(1 << nu, dtype=np.int64)
    return amap, bmap, disjoint, gamma_of


#: One quartering pass runs in a few µs; two ``perf_counter`` reads per
#: call would cost as much as the pass itself, so the timer samples one
#: call in 64 and extrapolates.
_QUARTERING_TIMER = SampledTimer("fact_quartering", stride=64)


def quartering_profiles(
    gv_bits: int, nu: int, gamma_flat: list[int], size_a: int, size_b: int
) -> tuple[int, ...]:
    """Quartering parts as ``size_a`` packed β-profile ints.

    Entry α is the β-profile of ``g_v`` over the columns where the
    A-cone takes assignment α, packed LSB-first — the column blocks of
    ``M_{g_v}`` in Examples 5–6.  ``gamma_flat`` is the row-major
    flattening of the shape's ``gamma_of`` matrix from
    :func:`index_maps`.
    """
    t0 = _QUARTERING_TIMER.start()
    profiles = []
    pos = 0
    for _alpha in range(size_a):
        row = 0
        for beta in range(size_b):
            row |= ((gv_bits >> gamma_flat[pos]) & 1) << beta
            pos += 1
        profiles.append(row)
    _QUARTERING_TIMER.stop(t0)
    return tuple(profiles)


def expand_positions(
    child_bits: int, positions: tuple[int, ...], nu: int
) -> int:
    """Expand a child-local table onto the union-local row space."""
    KERNEL_STATS.count("fact_expand")
    local = bits_to_array(child_bits, 1 << len(positions))
    return array_to_bits(local[collapse_indices(positions, nu)])
