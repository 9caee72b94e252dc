"""Memoized NPN canonicalization.

Exact NPN canonicalization of a 4-input function enumerates all 768
transforms; the synthesizer's canonicalize stage and the chain store
call it for every lookup.  Within a Table-I suite the same functions
(and the same orbit members) recur constantly, so a ``(bits, n)``-keyed
memo turns the repeated orbit sweeps into dictionary reads.
"""

from __future__ import annotations

from ..truthtable.npn import NPNTransform, canonicalize
from ..truthtable.table import TruthTable

__all__ = ["NPNCache"]


class NPNCache:
    """Cross-call memo over :func:`repro.truthtable.npn.canonicalize`."""

    def __init__(self) -> None:
        self._store: dict[
            tuple[int, int], tuple[TruthTable, NPNTransform]
        ] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def canonical(
        self, table: TruthTable, stats=None
    ) -> tuple[TruthTable, NPNTransform]:
        """Memoized ``canonicalize(table)``.

        ``stats`` (a :class:`~repro.core.spec.SynthesisStats`) receives
        a hit/miss tick under the ``"npn"`` cache name when given.
        """
        key = (table.bits, table.num_vars)
        entry = self._store.get(key)
        hit = entry is not None
        if not hit:
            entry = canonicalize(table)
            self._store[key] = entry
            self.misses += 1
        else:
            self.hits += 1
        if stats is not None:
            stats.record_cache("npn", hit)
        return entry

    def clear(self) -> None:
        """Drop all memoized entries (counters are kept)."""
        self._store.clear()
