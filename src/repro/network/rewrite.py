"""Exact-synthesis-based network rewriting.

The application the paper's introduction motivates ("SAT has been used
in logic synthesis to synthesize optimum Boolean chains … exact
synthesis"): walk the network, and for each node try to replace the
logic inside one of its cuts with an *optimal* chain for the cut's
NPN class, served by the persistent chain store or synthesized on a
miss.  A replacement is accepted when the new chain is smaller than
the logic it makes dead (DAG-aware gain, as in "On-the-fly and
DAG-aware" rewriting).

Because the store keeps *all* optimal chains, the replacement can be
chosen by a secondary cost (depth by default) — the flexibility the
paper's all-solutions output is for.  :func:`rewrite_with_store` hands
a cost that no NPN transform changes (gates, depth, fanout) to the
store as its ``pick``: the store chooses the same chain in canonical
space, from a row it checks once per process, and transforms, checks
and builds that chain alone.  Any other cost, a callable included,
picks here over every chain the store serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..chain.chain import BooleanChain
from ..chain.costs import COST_MODELS, NPN_INVARIANT_COSTS
from ..chain.transform import trivial_chain
from ..truthtable.table import TruthTable
from .cuts import Cut, cut_function, enumerate_cuts
from .network import LogicNetwork

__all__ = ["RewriteResult", "rewrite_with_store"]


def _cone_above(
    network: LogicNetwork, root: int, leaves: tuple[int, ...]
) -> set[int]:
    """Internal nodes reachable from ``root`` without crossing the cut."""
    stop = set(leaves)
    cone: set[int] = set()
    stack = [root]
    while stack:
        uid = stack.pop()
        if uid in stop or uid in cone:
            continue
        node = network.node(uid)
        if node.is_pi:
            continue
        cone.add(uid)
        stack.extend(node.fanins)
    return cone


@dataclass
class RewriteResult:
    """What a :func:`rewrite_with_store` pass did, with its store
    traffic.

    ``store_hits`` counts cuts answered by the store, directly or
    through the pass's memo of a store answer; ``store_misses`` counts
    the rest, except cuts whose function needs no gate, which count in
    neither.  ``synthesis_calls`` counts executor runs that did not
    come back from the store, so a repeat of a failed function is a
    miss but not a call — a warm store replays the same rewrite with
    this at zero.  ``verified`` reports the pass-level
    packed-simulation equivalence check (the pass is rolled back when
    it fails, and skipped — reported False — above the 16-PI
    simulation cap).
    """

    gates_before: int
    gates_after: int
    replacements: int = 0
    cuts_tried: int = 0
    store_hits: int = 0
    store_misses: int = 0
    synthesis_calls: int = 0
    verified: bool = False

    @property
    def gain(self) -> int:
        """Gates saved."""
        return self.gates_before - self.gates_after


def _rewrite_pass(
    network: LogicNetwork,
    choose: Callable[[TruthTable], BooleanChain | None],
    *,
    cut_size: int,
    max_cuts_per_node: int,
    zero_gain: bool,
    result: RewriteResult,
) -> None:
    """The DAG-aware replacement loop (in place).

    ``choose(local)`` maps a cut's local function (leaf ``i`` is
    variable ``i``) to the chain to splice, or None; the loop prices
    the replacement by MFFC-above-the-cut and commits the best
    positive-gain choice per node.  The network does not change inside
    a node's cut loop, so the node's MFFC is computed once, on its
    first cut with a chain.
    """
    cut_sets = enumerate_cuts(
        network, k=cut_size, max_cuts_per_node=max_cuts_per_node
    )
    for uid in network.topological_order():
        node = network.node(uid)
        if node.is_pi or node.dead:
            continue
        best_choice: tuple[int, BooleanChain, Cut] | None = None
        mffc: set[int] | None = None
        for cut in cut_sets.get(uid, []):
            if cut.size < 2 or cut.leaves == (uid,):
                continue
            if any(network.node(l).dead for l in cut.leaves):
                continue
            result.cuts_tried += 1
            chain = choose(cut_function(network, cut))
            if chain is None:
                continue
            if mffc is None:
                mffc = network.mffc(uid)
            # Only the part of the MFFC strictly above the cut leaves
            # actually dies (logic below stays alive through them).
            cone = _cone_above(network, uid, cut.leaves)
            saved = len(mffc & cone)
            added = chain.num_gates
            gain = saved - added
            if gain > 0 or (zero_gain and gain == 0):
                if best_choice is None or gain > best_choice[0]:
                    best_choice = (gain, chain, cut)
        if best_choice is None:
            continue
        _, chain, cut = best_choice
        new_node, complemented = network.splice_chain(
            chain, list(cut.leaves)
        )
        network.replace_node(uid, new_node, complemented)
        network.sweep_dead()
        result.replacements += 1

    network.sweep_dead()
    result.gates_after = network.num_gates()


def rewrite_with_store(
    network: LogicNetwork,
    store,
    *,
    cut_size: int = 4,
    tie_break: str | Callable[[BooleanChain], float] = "depth",
    max_cuts_per_node: int = 8,
    zero_gain: bool = False,
    engines: Sequence[str] = ("stp",),
    timeout_per_cut: float | None = 5.0,
    verify: bool = True,
    executor=None,
) -> RewriteResult:
    """One store-backed DAG-aware rewriting pass (copy-verify-commit).

    Cut functions are served from the persistent
    :class:`~repro.store.ChainStore` when possible (inverse-NPN on
    hit) and synthesized through a fault-tolerant executor on a miss,
    which writes the fresh optimum back — so a benchmark suite warms
    the store once and every later pass over any circuit sharing the
    same NPN classes replays with **zero** synthesis calls.

    A ``tie_break`` in :data:`~repro.chain.costs.NPN_INVARIANT_COSTS`
    goes to the executor as ``pick``, so a store hit carries only the
    chain ``tie_break`` chooses (see the module docstring).

    Each distinct cut function is resolved once per pass: the chain
    picked by ``tie_break`` from a store answer, and a failed run
    (timeout, crash, infeasible or a degraded upper bound), serve
    every later cut with the same truth table without another
    executor run, store lookup or cost pick.  A function an engine
    just synthesized is looked up again at its next cut, which reads
    the store's merged row.

    The pass runs on ``network.copy()``; with ``verify`` the rewritten
    copy's packed simulation is compared output-for-output against the
    original before :meth:`~repro.network.network.LogicNetwork.adopt`
    commits it.  A mismatch (or a network above the 16-PI simulation
    cap) leaves ``network`` untouched and reports ``verified=False``
    with ``gates_after == gates_before``.

    Parameters
    ----------
    store:
        The :class:`~repro.store.ChainStore` serving and receiving
        optimal chains.
    cut_size:
        Cut leaf limit; 4 keeps lookups inside the exact-NPN range.
    tie_break:
        Secondary cost choosing among the optimal chains of a class:
        a name in :data:`~repro.chain.costs.COST_MODELS` or a callable.
    max_cuts_per_node:
        Cuts kept per node by the enumeration.
    zero_gain:
        Accept replacements that keep the size (useful to reshape for
        depth); by default only strictly size-reducing rewrites apply.
    engines:
        Engine fallback chain for cache misses (registry names).
    timeout_per_cut:
        Synthesis budget per cut miss, seconds (None = unbounded).
    executor:
        Pre-built executor override (must expose
        ``run(function, timeout, pick=...)``); ``engines`` is ignored
        when given.  The executor should share ``store`` so
        write-backs land in the same store.
    """
    if cut_size > 4:
        raise ValueError(
            "rewriting uses exact NPN classification (cut_size <= 4)"
        )
    if isinstance(tie_break, str):
        cost = COST_MODELS[tie_break]
        pick = tie_break if tie_break in NPN_INVARIANT_COSTS else None
    else:
        cost, pick = tie_break, None
    if executor is None:
        from ..runtime.executor import FaultTolerantExecutor

        executor = FaultTolerantExecutor(tuple(engines), store=store)

    result = RewriteResult(
        gates_before=network.num_gates(),
        gates_after=network.num_gates(),
    )

    # The store is written only after a miss, and a function it
    # answered is never missed again in this pass, so no memoized store
    # answer goes stale.
    memo: dict[tuple[int, int], BooleanChain | None] = {}

    def choose(local):
        trivial = trivial_chain(local)
        if trivial is not None:
            return trivial
        key = (local.bits, local.num_vars)
        if key in memo:
            chain = memo[key]
            if chain is None:
                result.store_misses += 1
            else:
                result.store_hits += 1
            return chain
        outcome = executor.run(local, timeout_per_cut, pick=pick)
        # A failed run is remembered because a repeat would spend the
        # same budget again.  A failure may degrade to a stored upper
        # bound, which is not a hit: only a solved outcome served from
        # the store counts.
        if outcome.status != "ok" or outcome.result is None:
            result.store_misses += 1
            result.synthesis_calls += 1
            memo[key] = None
            return None
        chain = min(outcome.result.chains, key=cost)
        if outcome.engine == "store":
            result.store_hits += 1
            memo[key] = chain
        else:
            result.store_misses += 1
            result.synthesis_calls += 1
        return chain

    working = network.copy()
    _rewrite_pass(
        working,
        choose,
        cut_size=cut_size,
        max_cuts_per_node=max_cuts_per_node,
        zero_gain=zero_gain,
        result=result,
    )

    if verify:
        if len(network.pis) > 16:
            result.gates_after = result.gates_before
            result.verified = False
            return result
        before = [t.bits for t in network.simulate()]
        after = [t.bits for t in working.simulate()]
        if before != after:
            result.gates_after = result.gates_before
            result.verified = False
            return result
        result.verified = True
    network.adopt(working)
    return result
