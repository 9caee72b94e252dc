"""Exact-synthesis-based network rewriting.

The application the paper's introduction motivates ("SAT has been used
in logic synthesis to synthesize optimum Boolean chains … exact
synthesis"): walk the network, and for each node try to replace the
logic inside one of its cuts with a freshly synthesized *optimal*
chain from the NPN database.  A replacement is accepted when the new
chain is smaller than the logic it makes dead (DAG-aware gain, as in
"On-the-fly and DAG-aware" rewriting).

Because the database serves *all* optimal chains, the replacement can
be chosen by a secondary cost (depth by default) — the flexibility the
paper's all-solutions output is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..chain.chain import BooleanChain
from ..chain.costs import COST_MODELS
from ..chain.transform import trivial_chain
from ..core.database import NPNDatabase
from .cuts import Cut, cut_function, enumerate_cuts
from .network import LogicNetwork

__all__ = [
    "RewriteResult",
    "StoreRewriteResult",
    "rewrite_network",
    "rewrite_with_store",
]


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
    """What a rewriting pass did."""

    gates_before: int
    gates_after: int
    replacements: int = 0
    cuts_tried: int = 0

    @property
    def gain(self) -> int:
        """Gates saved."""
        return self.gates_before - self.gates_after


@dataclass
class StoreRewriteResult(RewriteResult):
    """A :func:`rewrite_with_store` pass, with its store traffic.

    ``synthesis_calls`` counts cuts that actually reached a synthesis
    engine — a warm store replays the same rewrite with this at zero.
    ``verified`` reports the pass-level packed-simulation equivalence
    check (the pass is rolled back when it fails, and skipped —
    reported False — above the 16-PI simulation cap).
    """

    store_hits: int = 0
    store_misses: int = 0
    synthesis_calls: int = 0
    verified: bool = False


def _rewrite_pass(
    network: LogicNetwork,
    chain_source: Callable[..., "Sequence[BooleanChain] | None"],
    *,
    cut_size: int,
    cost: Callable[[BooleanChain], float],
    max_cuts_per_node: int,
    zero_gain: bool,
    result: RewriteResult,
) -> None:
    """The shared DAG-aware replacement loop (in place).

    ``chain_source(local)`` maps a cut's local function to candidate
    chains (or None); the loop picks the cheapest by ``cost``, prices
    the replacement by MFFC-above-the-cut, and commits the best
    positive-gain choice per node.
    """
    cut_sets = enumerate_cuts(
        network, k=cut_size, max_cuts_per_node=max_cuts_per_node
    )
    for uid in network.topological_order():
        node = network.node(uid)
        if node.is_pi or node.dead:
            continue
        best_choice: tuple[int, BooleanChain, Cut] | None = None
        for cut in cut_sets.get(uid, []):
            if cut.size < 2 or cut.leaves == (uid,):
                continue
            if any(network.node(l).dead for l in cut.leaves):
                continue
            result.cuts_tried += 1
            local = cut_function(network, cut)
            chains = chain_source(local)
            if not chains:
                continue
            chain = min(chains, key=cost)
            # Only the part of the MFFC strictly above the cut leaves
            # actually dies (logic below stays alive through them).
            cone = _cone_above(network, uid, cut.leaves)
            saved = len(network.mffc(uid) & cone)
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


def rewrite_network(
    network: LogicNetwork,
    database: NPNDatabase | None = None,
    cut_size: int = 4,
    tie_break: str | Callable[[BooleanChain], float] = "depth",
    max_cuts_per_node: int = 8,
    zero_gain: bool = False,
) -> RewriteResult:
    """One DAG-aware rewriting pass over the network (in place).

    Parameters
    ----------
    database:
        NPN chain database (shared across passes for caching); a fresh
        one is created when omitted.
    cut_size:
        Cut leaf limit; 4 keeps lookups inside the exact-NPN range.
    tie_break:
        Secondary cost choosing among the optimal chains of a class.
    zero_gain:
        Accept replacements that keep the size (useful to reshape for
        depth); by default only strictly size-reducing rewrites apply.
    """
    if cut_size > 4:
        raise ValueError(
            "rewriting uses exact NPN classification (cut_size <= 4)"
        )
    db = database if database is not None else NPNDatabase()
    cost = (
        COST_MODELS[tie_break] if isinstance(tie_break, str) else tie_break
    )
    result = RewriteResult(
        gates_before=network.num_gates(),
        gates_after=network.num_gates(),
    )
    _rewrite_pass(
        network,
        db.lookup,
        cut_size=cut_size,
        cost=cost,
        max_cuts_per_node=max_cuts_per_node,
        zero_gain=zero_gain,
        result=result,
    )
    return result


def rewrite_with_store(
    network: LogicNetwork,
    store,
    *,
    cut_size: int = 4,
    tie_break: str | Callable[[BooleanChain], float] = "depth",
    max_cuts_per_node: int = 8,
    zero_gain: bool = False,
    engines: Sequence[str] = ("stp",),
    race: bool = False,
    timeout_per_cut: float | None = 5.0,
    verify: bool = True,
    executor=None,
) -> StoreRewriteResult:
    """One store-backed DAG-aware rewriting pass (copy-verify-commit).

    Cut functions are served from the persistent
    :class:`~repro.store.ChainStore` when possible (inverse-NPN on
    hit) and synthesized through a fault-tolerant executor on a miss,
    which writes the fresh optimum back — so a benchmark suite warms
    the store once and every later pass over any circuit sharing the
    same NPN classes replays with **zero** synthesis calls.

    The pass runs on ``network.copy()``; with ``verify`` the rewritten
    copy's packed simulation is compared output-for-output against the
    original before :meth:`~repro.network.network.LogicNetwork.adopt`
    commits it.  A mismatch (or a network above the 16-PI simulation
    cap) leaves ``network`` untouched and reports ``verified=False``
    with ``gates_after == gates_before``.

    Parameters beyond :func:`rewrite_network`'s:

    engines:
        Engine fallback chain for cache misses (registry names).
    race:
        Race the default engine portfolio per miss in isolated workers
        (the executor's ``width``) instead of walking a fallback
        chain.
    timeout_per_cut:
        Synthesis budget per cut miss, seconds (None = unbounded).
    executor:
        Pre-built executor override (must expose
        ``run(function, timeout)``); ``engines``/``race`` are ignored
        when given.  The executor should share ``store`` so write-backs
        land in the same database.
    """
    if cut_size > 4:
        raise ValueError(
            "rewriting uses exact NPN classification (cut_size <= 4)"
        )
    cost = (
        COST_MODELS[tie_break] if isinstance(tie_break, str) else tie_break
    )
    if executor is None:
        from ..runtime.executor import FaultTolerantExecutor
        from ..runtime.health import EngineHealth
        from ..runtime.racing import DEFAULT_RACE_ENGINES, RACE_WIDTH

        executor = FaultTolerantExecutor(
            DEFAULT_RACE_ENGINES if race else tuple(engines),
            width=RACE_WIDTH if race else 1,
            health=EngineHealth() if race else None,
            store=store,
        )

    result = StoreRewriteResult(
        gates_before=network.num_gates(),
        gates_after=network.num_gates(),
    )

    def chain_source(local):
        trivial = trivial_chain(local)
        if trivial is not None:
            return [trivial]
        outcome = executor.run(local, timeout_per_cut)
        solved = outcome.status == "ok" and outcome.result is not None
        # A failure may degrade to a stored upper bound, which is not
        # a hit: only a solved outcome served from the store counts.
        if solved and outcome.engine == "store":
            result.store_hits += 1
        else:
            result.store_misses += 1
            result.synthesis_calls += 1
        return outcome.result.chains if solved else None

    working = network.copy()
    _rewrite_pass(
        working,
        chain_source,
        cut_size=cut_size,
        cost=cost,
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
