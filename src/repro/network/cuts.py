"""k-feasible cut enumeration.

Standard bottom-up cut enumeration: the cut set of a node is the
pairwise merge of its fanins' cut sets plus the trivial cut, keeping
only cuts with at most ``k`` leaves, filtering dominated cuts and
capping the per-node set size (priority: fewer leaves first).  Each
cut's local function is computed word-parallel over the cut leaves so
rewriting can hand it straight to an exact synthesizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels import lut_apply, var_mask
from ..truthtable.table import TruthTable
from .network import LogicNetwork

__all__ = ["Cut", "enumerate_cuts", "cut_function"]


@dataclass(frozen=True)
class Cut:
    """A cut: the root node and its leaf set (sorted node ids)."""

    root: int
    leaves: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of leaves."""
        return len(self.leaves)

    def dominates(self, other: "Cut") -> bool:
        """True when this cut's leaves are a subset of the other's."""
        return set(self.leaves) <= set(other.leaves)


def _merge(a: Cut, b: Cut, root: int, k: int) -> Cut | None:
    leaves = tuple(sorted(set(a.leaves) | set(b.leaves)))
    if len(leaves) > k:
        return None
    return Cut(root, leaves)


def _filter_dominated(cuts: list[Cut]) -> list[Cut]:
    kept: list[Cut] = []
    for cut in sorted(cuts, key=lambda c: c.size):
        if not any(old.dominates(cut) for old in kept):
            kept.append(cut)
    return kept


def enumerate_cuts(
    network: LogicNetwork, k: int = 4, max_cuts_per_node: int = 12
) -> dict[int, list[Cut]]:
    """All k-feasible cuts of every live node.

    The trivial cut ``{node}`` is always included (and listed last so
    rewriting tries real cuts first).
    """
    if k < 2:
        raise ValueError("cuts need k >= 2")
    cut_sets: dict[int, list[Cut]] = {}
    for uid in network.topological_order():
        node = network.node(uid)
        trivial = Cut(uid, (uid,))
        if node.is_pi:
            cut_sets[uid] = [trivial]
            continue
        merged: list[Cut] = []
        fanin_cut_lists = [cut_sets[f] for f in node.fanins]
        combos: list[list[Cut]] = [[]]
        for options in fanin_cut_lists:
            combos = [
                prefix + [option]
                for prefix in combos
                for option in options
            ]
        for combo in combos:
            leaves: set[int] = set()
            for cut in combo:
                leaves.update(cut.leaves)
            if len(leaves) <= k:
                merged.append(Cut(uid, tuple(sorted(leaves))))
        merged = _filter_dominated(merged)
        merged = merged[: max_cuts_per_node - 1]
        cut_sets[uid] = merged + [trivial]
    return cut_sets


def cut_function(network: LogicNetwork, cut: Cut) -> TruthTable:
    """The root's function over the cut leaves (leaf ``i`` = variable
    ``i``), computed by word-parallel cone simulation: one
    :func:`~repro.kernels.lut_apply` per cone node."""
    k = cut.size
    mask = (1 << (1 << k)) - 1
    patterns = {leaf: var_mask(i, k) for i, leaf in enumerate(cut.leaves)}

    def value_of(uid: int) -> int:
        cached = patterns.get(uid)
        if cached is not None:
            return cached
        node = network.node(uid)
        if node.is_pi:
            raise ValueError(
                f"PI {uid} reached outside the cut {cut.leaves}"
            )
        pattern, _ = lut_apply(
            node.function.bits, [value_of(f) for f in node.fanins], mask
        )
        patterns[uid] = pattern
        return pattern

    return TruthTable(value_of(cut.root), k)
