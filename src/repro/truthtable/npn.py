"""NPN classification of Boolean functions.

Two functions are NPN-equivalent when one can be obtained from the other
by Negating inputs, Permuting inputs, and/or Negating the output.  The
paper uses NPN classes both as a benchmark suite (all 222 classes of
4-input functions) and to prune DAG candidates.

For ``n <= 4`` we canonicalize *exactly* by enumerating all
``2 * 2**n * n!`` transforms (768 for ``n = 4``).  For larger ``n`` the
exhaustive orbit is too large for pure Python, so
:func:`canonicalize` falls back to a deterministic greedy
semi-canonical form — still a valid normal form for hashing, just not
guaranteed to be the orbit minimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from ..kernels.tables import npn_apply_bits, npn_minimum, npn_orbit
from .table import TruthTable

__all__ = [
    "NPNTransform",
    "canonicalize",
    "exact_canonical",
    "semi_canonical",
    "npn_classes",
    "NUM_NPN4_CLASSES",
]

#: The classic count of NPN classes of 4-input functions.
NUM_NPN4_CLASSES = 222

_EXACT_LIMIT = 4


@dataclass(frozen=True)
class NPNTransform:
    """An NPN transform: ``g(y) = f(..., y_perm[i] ^ flips_i, ...) ^ out``.

    ``perm[i]`` names the *new* variable feeding old input ``i``;
    ``input_flips`` is a bitmask of old inputs that are complemented;
    ``output_flip`` complements the function value.
    """

    perm: tuple[int, ...]
    input_flips: int
    output_flip: bool

    def apply(self, table: TruthTable) -> TruthTable:
        """Apply the transform to ``table`` (cached index-gather kernel)."""
        n = table.num_vars
        if len(self.perm) != n:
            raise ValueError("transform arity does not match table")
        return TruthTable(
            npn_apply_bits(
                table.bits, n, self.perm, self.input_flips, self.output_flip
            ),
            n,
        )

    def inverse(self) -> "NPNTransform":
        """The transform undoing this one."""
        n = len(self.perm)
        inv_perm = [0] * n
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
        inv_flips = 0
        for i in range(n):
            if (self.input_flips >> i) & 1:
                inv_flips |= 1 << self.perm[i]
        return NPNTransform(tuple(inv_perm), inv_flips, self.output_flip)

    @staticmethod
    def identity(num_vars: int) -> "NPNTransform":
        """The do-nothing transform."""
        return NPNTransform(tuple(range(num_vars)), 0, False)


def _all_transforms(num_vars: int) -> Iterator[NPNTransform]:
    for perm in itertools.permutations(range(num_vars)):
        for flips in range(1 << num_vars):
            for out in (False, True):
                yield NPNTransform(perm, flips, out)


def exact_canonical(
    table: TruthTable,
) -> tuple[TruthTable, NPNTransform]:
    """Exact NPN canonical form for small functions.

    Returns the orbit-minimal table (by integer comparison of the
    bit-packed representation) together with the transform that maps
    ``table`` to it.  Exponential in ``n!``; restricted to ``n <= 4``.
    """
    n = table.num_vars
    if n > _EXACT_LIMIT:
        raise ValueError(
            f"exact NPN canonicalization supports up to {_EXACT_LIMIT} "
            f"variables, got {n}"
        )
    # Batch kernel: all 2·2^n·n! transforms in one gather, argmin with
    # the same first-strict-minimum tie-breaking as a sequential scan.
    best_bits, perm, flips, out = npn_minimum(table.bits, n)
    return TruthTable(best_bits, n), NPNTransform(perm, flips, out)


def semi_canonical(table: TruthTable) -> tuple[TruthTable, NPNTransform]:
    """Greedy deterministic NPN normal form for any arity.

    The normal form is reached by (1) complementing the output when the
    onset is larger than the offset, (2) complementing each input whose
    positive cofactor has more minterms than its negative cofactor, and
    (3) sorting inputs by cofactor-count signature.  Ties are broken by
    the bit-packed table, so equal inputs still land in a fixed order.
    The result is NPN-equivalent to the input and identical for many —
    but not all — members of an orbit.
    """
    n = table.num_vars
    work = table
    out_flip = False
    half = work.num_rows // 2
    if work.count_ones() > half or (
        work.count_ones() == half and (work.bits & 1)
    ):
        work = ~work
        out_flip = True

    flips = 0
    for v in range(n):
        pos = work.cofactor(v, 1).count_ones()
        neg = work.cofactor(v, 0).count_ones()
        if pos > neg:
            work = work.flip_var(v)
            flips |= 1 << v

    signature = []
    for v in range(n):
        pos = work.cofactor(v, 1)
        signature.append((pos.count_ones(), pos.bits, v))
    order = [v for (_, _, v) in sorted(signature)]
    # ``order[j] = old variable placed at new position j``; permute with
    # perm[old] = new.
    perm = [0] * n
    for new_pos, old in enumerate(order):
        perm[old] = new_pos
    work = work.permute(perm)

    # Compose the full transform g(y) = f applied through flips+perm.
    # work = permute(flip(out_flip(f))) — express as a single transform:
    # x_i(old) = y_{perm[i]} ^ flip_i.
    transform = NPNTransform(tuple(perm), flips, out_flip)
    return work, transform


def canonicalize(table: TruthTable) -> tuple[TruthTable, NPNTransform]:
    """Best available NPN normal form: exact for ``n <= 4``, greedy above."""
    if table.num_vars <= _EXACT_LIMIT:
        return exact_canonical(table)
    return semi_canonical(table)


def npn_classes(num_vars: int) -> list[TruthTable]:
    """All NPN class representatives of ``num_vars``-input functions.

    Exhaustive orbit sweep; practical for ``n <= 4`` (for ``n = 4`` this
    recovers the classic 222 classes).  Representatives are the
    orbit-minimal tables, returned sorted by their bit-packed value.
    """
    if num_vars > _EXACT_LIMIT:
        raise ValueError("class enumeration is exhaustive; use n <= 4")
    seen: set[int] = set()
    reps: list[TruthTable] = []
    for bits in range(1 << (1 << num_vars)):
        if bits in seen:
            continue
        orbit = npn_orbit(bits, num_vars)
        seen.update(orbit)
        reps.append(TruthTable(min(orbit), num_vars))
    return sorted(reps, key=lambda t: t.bits)
