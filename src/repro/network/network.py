"""Multi-level logic networks of k-LUT nodes.

The downstream consumer of exact synthesis: a mutable DAG of LUT nodes
(the paper's 2-LUT chains drop straight in, and rewriting replaces
subnetworks with freshly synthesized optimal chains).

Design notes:

* Nodes carry a :class:`~repro.truthtable.TruthTable` over their fanins
  (``fanins[0]`` is the table's least-significant variable), the same
  convention as :class:`~repro.chain.BooleanChain` gates.
* Node ids are stable; deletion marks nodes dead and cleanup is
  explicit, so iteration during rewriting stays simple.
* Simulation is word-parallel: every node's global function over the
  primary inputs is a Python int of ``2^num_pis`` bits (fine for the
  network sizes exact synthesis plays at), and each node is evaluated
  with a handful of whole-pattern ANDs (:func:`~repro.kernels.lut_apply`),
  not row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..chain.chain import BooleanChain
from ..kernels import lut_apply, var_mask
from ..truthtable.table import TruthTable

__all__ = ["Node", "LogicNetwork"]


@dataclass
class Node:
    """One LUT node; ``function`` is local over ``fanins``."""

    uid: int
    fanins: tuple[int, ...]
    function: TruthTable
    is_pi: bool = False
    dead: bool = False

    @property
    def arity(self) -> int:
        """Number of fanins."""
        return len(self.fanins)


class LogicNetwork:
    """A DAG of k-LUT nodes with primary inputs and outputs."""

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._pis: list[int] = []
        self._pos: list[tuple[int, bool]] = []
        self._next_uid = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_pi(self) -> int:
        """Create a primary input; returns its node id."""
        uid = self._next_uid
        self._next_uid += 1
        self._nodes[uid] = Node(
            uid, (), TruthTable(0b10, 1), is_pi=True
        )
        self._pis.append(uid)
        return uid

    def add_node(
        self, function: TruthTable, fanins: Sequence[int]
    ) -> int:
        """Create a LUT node computing ``function`` over ``fanins``."""
        if function.num_vars != len(fanins):
            raise ValueError(
                f"LUT arity {function.num_vars} does not match "
                f"{len(fanins)} fanins"
            )
        for f in fanins:
            if f not in self._nodes or self._nodes[f].dead:
                raise ValueError(f"fanin {f} does not exist")
        uid = self._next_uid
        self._next_uid += 1
        self._nodes[uid] = Node(uid, tuple(fanins), function)
        return uid

    def add_po(self, node: int, complemented: bool = False) -> None:
        """Declare a primary output."""
        if node not in self._nodes:
            raise ValueError(f"node {node} does not exist")
        self._pos.append((node, complemented))

    def redirect_po(self, index: int, node: int, complemented: bool) -> None:
        """Re-point an existing primary output."""
        if node not in self._nodes:
            raise ValueError(f"node {node} does not exist")
        self._pos[index] = (node, complemented)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def pis(self) -> tuple[int, ...]:
        """Primary input ids, in creation order."""
        return tuple(self._pis)

    @property
    def pos(self) -> tuple[tuple[int, bool], ...]:
        """Primary outputs as ``(node, complemented)``."""
        return tuple(self._pos)

    def node(self, uid: int) -> Node:
        """Access a node by id."""
        return self._nodes[uid]

    def __contains__(self, uid: int) -> bool:
        return uid in self._nodes and not self._nodes[uid].dead

    def live_nodes(self) -> Iterator[Node]:
        """All non-dead nodes (PIs included)."""
        for node in self._nodes.values():
            if not node.dead:
                yield node

    def num_gates(self) -> int:
        """Live internal (non-PI) nodes."""
        return sum(
            1
            for node in self.live_nodes()
            if not node.is_pi
        )

    def fanout_map(self) -> dict[int, list[int]]:
        """Node id → list of reader node ids."""
        fanouts: dict[int, list[int]] = {
            node.uid: [] for node in self.live_nodes()
        }
        for node in self.live_nodes():
            for f in node.fanins:
                fanouts[f].append(node.uid)
        return fanouts

    def topological_order(self) -> list[int]:
        """Live node ids, fanins before fanouts."""
        order: list[int] = []
        state: dict[int, int] = {}

        def visit(uid: int) -> None:
            stack = [(uid, 0)]
            while stack:
                current, phase = stack.pop()
                if phase == 0:
                    if state.get(current) == 2:
                        continue
                    if state.get(current) == 1:
                        raise ValueError("cycle detected")
                    state[current] = 1
                    stack.append((current, 1))
                    for f in self._nodes[current].fanins:
                        if state.get(f) != 2:
                            stack.append((f, 0))
                else:
                    state[current] = 2
                    order.append(current)

        for uid in self._pis:
            visit(uid)
        for node in self._nodes.values():
            if not node.dead:
                visit(node.uid)
        return order

    def depth(self) -> int:
        """Longest PI→PO path in LUT levels."""
        levels: dict[int, int] = {}
        for uid in self.topological_order():
            node = self._nodes[uid]
            if node.is_pi:
                levels[uid] = 0
            else:
                levels[uid] = 1 + max(
                    (levels[f] for f in node.fanins), default=0
                )
        if not self._pos:
            return 0
        return max(levels[n] for n, _ in self._pos)

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def simulate(self) -> list[TruthTable]:
        """Global function of every PO over the primary inputs."""
        patterns = self.simulate_nodes()
        n = len(self._pis)
        out = []
        for node, complemented in self._pos:
            table = TruthTable(patterns[node], n)
            out.append(~table if complemented else table)
        return out

    def simulate_nodes(self) -> dict[int, int]:
        """Global pattern (int over 2^num_pis rows) per live node, one
        word-parallel :func:`~repro.kernels.lut_apply` per node."""
        n = len(self._pis)
        if n > 16:
            raise ValueError("bit-parallel simulation capped at 16 PIs")
        mask = (1 << (1 << n)) - 1
        patterns = {uid: var_mask(i, n) for i, uid in enumerate(self._pis)}
        for uid in self.topological_order():
            node = self._nodes[uid]
            if not node.is_pi:
                patterns[uid], _ = lut_apply(
                    node.function.bits,
                    [patterns[f] for f in node.fanins],
                    mask,
                )
        return patterns

    # ------------------------------------------------------------------
    # structural rewriting support
    # ------------------------------------------------------------------
    def mffc(self, root: int) -> set[int]:
        """Maximum fanout-free cone: nodes that die if ``root`` dies."""
        fanouts = self.fanout_map()
        po_nodes = {n for n, _ in self._pos}
        cone: set[int] = set()

        def grab(uid: int) -> None:
            node = self._nodes[uid]
            if node.is_pi or uid in cone:
                return
            cone.add(uid)
            for f in node.fanins:
                child = self._nodes[f]
                if child.is_pi:
                    continue
                readers = set(fanouts[f])
                if readers <= cone | {root} and f not in po_nodes:
                    grab(f)

        grab(root)
        return cone

    def splice_chain(
        self, chain: BooleanChain, leaves: Sequence[int]
    ) -> tuple[int, bool]:
        """Instantiate a Boolean chain with its PIs bound to ``leaves``.

        Returns ``(node, complemented)`` for the chain's *first*
        output; multi-output chains splice through
        :meth:`splice_chain_multi`.  Zero-gate chains resolve to a
        leaf or to a constant node.
        """
        return self.splice_chain_multi(chain, leaves)[0]

    def splice_chain_multi(
        self, chain: BooleanChain, leaves: Sequence[int]
    ) -> list[tuple[int, bool]]:
        """Instantiate a chain and return every output's
        ``(node, complemented)`` pair, in the chain's output order.

        Shared interior gates are instantiated once; a CONST0 output
        resolves to a single constant node shared by all such outputs.
        """
        if len(leaves) != chain.num_inputs:
            raise ValueError("leaf count must match the chain inputs")
        mapping: dict[int, int] = {
            i: leaf for i, leaf in enumerate(leaves)
        }
        for gi, gate in enumerate(chain.gates):
            uid = self.add_node(
                gate.local_table(),
                tuple(mapping[f] for f in gate.fanins),
            )
            mapping[chain.num_inputs + gi] = uid
        const: int | None = None
        out: list[tuple[int, bool]] = []
        for signal, complemented in chain.outputs:
            if signal == BooleanChain.CONST0:
                if const is None:
                    const = self.add_node(TruthTable(0, 0), ())
                out.append((const, complemented))
            else:
                out.append((mapping[signal], complemented))
        return out

    def replace_node(
        self, old: int, new: int, complemented: bool
    ) -> None:
        """Route every reader (and PO) of ``old`` to ``new``.

        A complemented replacement is absorbed into the reader LUTs.
        """
        if old == new:
            return
        for node in list(self.live_nodes()):
            if old in node.fanins:
                function = node.function
                if complemented:
                    for pos, f in enumerate(node.fanins):
                        if f == old:
                            function = function.flip_var(pos)
                fanins = tuple(
                    new if f == old else f for f in node.fanins
                )
                node.fanins = fanins
                node.function = function
        for index, (po, po_compl) in enumerate(self._pos):
            if po == old:
                self._pos[index] = (new, po_compl ^ complemented)

    def sweep_dead(self) -> int:
        """Mark unreachable internal nodes dead; returns how many."""
        reachable: set[int] = set()
        stack = [n for n, _ in self._pos]
        while stack:
            uid = stack.pop()
            if uid in reachable:
                continue
            reachable.add(uid)
            stack.extend(self._nodes[uid].fanins)
        swept = 0
        for node in self._nodes.values():
            if node.is_pi or node.dead:
                continue
            if node.uid not in reachable:
                node.dead = True
                swept += 1
        return swept

    def adopt(self, other: "LogicNetwork") -> None:
        """Take over ``other``'s structure in place.

        The commit half of a copy-verify-commit pass: run a rewriting
        pass on ``network.copy()``, check equivalence, then ``adopt``
        the working copy — callers holding a reference to this network
        see the rewritten structure, and a failed check simply drops
        the copy.
        """
        self.name = other.name
        self._nodes = other._nodes
        self._pis = other._pis
        self._pos = other._pos
        self._next_uid = other._next_uid

    def copy(self) -> "LogicNetwork":
        """Deep structural copy."""
        dup = LogicNetwork(self.name)
        dup._next_uid = self._next_uid
        dup._pis = list(self._pis)
        dup._pos = list(self._pos)
        for uid, node in self._nodes.items():
            dup._nodes[uid] = Node(
                node.uid,
                node.fanins,
                node.function,
                node.is_pi,
                node.dead,
            )
        return dup

    def __repr__(self) -> str:
        return (
            f"LogicNetwork({self.name!r}, pis={len(self._pis)}, "
            f"gates={self.num_gates()}, pos={len(self._pos)})"
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_chain(cls, chain: BooleanChain, name: str = "chain") -> "LogicNetwork":
        """Wrap a Boolean chain as a network — one PO per chain
        output, shared gates instantiated once."""
        net = cls(name)
        leaves = [net.add_pi() for _ in range(chain.num_inputs)]
        for node, complemented in net.splice_chain_multi(chain, leaves):
            net.add_po(node, complemented)
        return net
