"""Stratified function generators for differential fuzzing.

Uniform sampling over ``2**2**n`` truth tables almost never produces
the inputs that break exact synthesizers: constants, single literals,
functions with vacuous variables, orbit-extreme NPN members, or the
DSD shapes whose prime blocks drive the hierarchical engine.  Each
generator here targets one such stratum, and
:class:`FunctionGenerator` cycles through them deterministically so a
fuzz run with a fixed seed covers every stratum in a reproducible
order.

All randomness flows from one explicit :class:`random.Random` — no
generator touches the global RNG or the clock, so a failing function
can always be regenerated from ``(seed, index)`` alone.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from ..truthtable.dsd import DSDKind, dsd_kind
from ..truthtable.generate import random_fully_dsd, random_partially_dsd
from ..truthtable.npn import NPNTransform, npn_classes
from ..truthtable.table import TruthTable, constant, from_hex, projection

__all__ = [
    "STRATEGIES",
    "DEFAULT_SEED_FUNCTIONS",
    "FunctionGenerator",
    "strategy_names",
]

#: Built-in mutation seeds: the paper's Example 7 function, 3-input
#: majority, and the two degenerate poles.
DEFAULT_SEED_FUNCTIONS: tuple[TruthTable, ...] = (
    from_hex("8ff8", 4),
    from_hex("e8", 3),
    constant(0, 3),
    projection(0, 3),
)


def _uniform(rng: random.Random, num_vars: int) -> TruthTable:
    """Uniform over all ``2**2**n`` tables."""
    return TruthTable(rng.getrandbits(1 << num_vars), num_vars)


@lru_cache(maxsize=8)
def _class_reps(num_vars: int) -> tuple[TruthTable, ...]:
    return tuple(npn_classes(num_vars))


def _random_transform(rng: random.Random, num_vars: int) -> NPNTransform:
    perm = list(range(num_vars))
    rng.shuffle(perm)
    return NPNTransform(
        tuple(perm),
        rng.getrandbits(num_vars) if num_vars else 0,
        bool(rng.getrandbits(1)),
    )


def _npn_stratified(rng: random.Random, num_vars: int) -> TruthTable:
    """Uniform over NPN *classes* (n <= 4), then a random orbit member.

    Uniform-over-functions sampling is dominated by the few huge
    orbits; stratifying by class reaches the rare small orbits (the
    symmetric and degenerate functions) every few draws.
    """
    if num_vars > 4:
        return _uniform(rng, num_vars)
    rep = rng.choice(_class_reps(num_vars))
    return _random_transform(rng, num_vars).apply(rep)


def _dsd_shaped(rng: random.Random, num_vars: int) -> TruthTable:
    """Fully or partially DSD-decomposable functions."""
    if num_vars < 2:
        return _uniform(rng, num_vars)
    if num_vars >= 4 and rng.getrandbits(1):
        return random_partially_dsd(num_vars, rng, prime_arity=3)
    return random_fully_dsd(num_vars, rng)


def _high_dont_care(rng: random.Random, num_vars: int) -> TruthTable:
    """Small-cone functions: most variables are unobservable on most
    rows, exercising the don't-care canonicalization and the
    factorization power-reduce paths.

    Either a small-support function padded with vacuous variables, or
    a mux between two small-support cofactors (one variable gates
    which small cone is observable).
    """
    if num_vars < 2:
        return _uniform(rng, num_vars)
    if rng.getrandbits(1):
        support = rng.randint(1, max(1, num_vars - 1))
        small = TruthTable(rng.getrandbits(1 << support), support)
        table = small.extend(num_vars)
        perm = list(range(num_vars))
        rng.shuffle(perm)
        return table.permute(perm)
    sel = rng.randrange(num_vars)
    cone = rng.randint(1, max(1, num_vars - 1))
    g = TruthTable(rng.getrandbits(1 << cone), cone).extend(num_vars)
    h = TruthTable(rng.getrandbits(1 << cone), cone).extend(num_vars)
    s = projection(sel, num_vars)
    return (s & g) | (~s & h)


def _degenerate(rng: random.Random, num_vars: int) -> TruthTable:
    """Constants, literals, and near-constant tables.

    The inputs no random sweep ever lands on, and exactly the ones
    whose zero-gate chains exercised the CONST0 output semantics.
    """
    kind = rng.randrange(4)
    if kind == 0:
        return constant(rng.getrandbits(1), num_vars)
    if kind == 1 and num_vars:
        return projection(
            rng.randrange(num_vars), num_vars, bool(rng.getrandbits(1))
        )
    rows = 1 << num_vars
    base = constant(rng.getrandbits(1), num_vars)
    bits = base.bits
    for _ in range(rng.randint(1, min(2, rows))):
        bits ^= 1 << rng.randrange(rows)
    return TruthTable(bits, num_vars)


class FunctionGenerator:
    """Deterministic round-robin over the stratified generators.

    Parameters
    ----------
    seed:
        Master seed; the whole emitted sequence is a pure function of
        it (plus the configuration).
    num_vars:
        Arities to draw from, uniformly per instance.
    strategies:
        Strategy subset to cycle through (default: all, in registry
        order).
    seed_functions:
        Extra mutation seeds, e.g. loaded from the failure corpus;
        merged with :data:`DEFAULT_SEED_FUNCTIONS`.
    """

    def __init__(
        self,
        seed: int = 0,
        num_vars: Sequence[int] = (2, 3, 4),
        strategies: Sequence[str] | None = None,
        seed_functions: Sequence[TruthTable] = (),
    ) -> None:
        if not num_vars:
            raise ValueError("need at least one arity")
        names = tuple(strategies) if strategies else strategy_names()
        for name in names:
            if name not in STRATEGIES:
                raise ValueError(
                    f"unknown strategy {name!r}; "
                    f"available: {', '.join(strategy_names())}"
                )
        self._strategies = names
        self._num_vars = tuple(num_vars)
        self._rng = random.Random(seed)
        self._seeds = tuple(seed_functions) + DEFAULT_SEED_FUNCTIONS
        self._index = 0

    def _mutate(self, rng: random.Random) -> TruthTable:
        """Mutate a corpus seed: bit flips or a random NPN transform."""
        table = rng.choice(self._seeds)
        if rng.getrandbits(1):
            return _random_transform(rng, table.num_vars).apply(table)
        bits = table.bits
        for _ in range(rng.randint(1, 3)):
            bits ^= 1 << rng.randrange(table.num_rows)
        return TruthTable(bits, table.num_vars)

    def generate(self) -> tuple[str, TruthTable]:
        """The next ``(strategy, function)`` pair."""
        strategy = self._strategies[self._index % len(self._strategies)]
        self._index += 1
        rng = self._rng
        if strategy == "mutation":
            return strategy, self._mutate(rng)
        num_vars = rng.choice(self._num_vars)
        return strategy, STRATEGIES[strategy](rng, num_vars)

    def __iter__(self) -> Iterator[tuple[str, TruthTable]]:
        while True:
            yield self.generate()


#: Strategy registry; ``"mutation"`` is dispatched by the generator
#: itself because it needs the seed-function pool.
STRATEGIES: dict[str, Callable[[random.Random, int], TruthTable]] = {
    "uniform": _uniform,
    "npn": _npn_stratified,
    "dsd": _dsd_shaped,
    "dontcare": _high_dont_care,
    "degenerate": _degenerate,
    "mutation": None,  # type: ignore[dict-item]  — see FunctionGenerator
}


def strategy_names() -> tuple[str, ...]:
    """All strategy names, registry order."""
    return tuple(STRATEGIES)


def classify_emits_dsd(table: TruthTable) -> bool:
    """True when the DSD classifier agrees the table is decomposable
    (used by the generator self-tests)."""
    return dsd_kind(table) in (DSDKind.FULL, DSDKind.PARTIAL)
