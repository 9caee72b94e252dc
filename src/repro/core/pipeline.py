"""The STP synthesis pipeline as composable stages.

The paper's algorithm (Section III) is a fixed sequence of concerns;
this module expresses each as a stage function over a shared
:class:`PipelineState` and :class:`~repro.core.context.SynthesisContext`:

1. :func:`normalize_stage` — trivial-chain check and projection onto
   the functional support;
2. :func:`canonicalize_stage` — optional NPN canonicalization so the
   search runs on the class representative (memoized via the cache);
3. :func:`search_stage` — the bottom-up gate-count loop: cached
   fence/pDAG topology families (Section III-A), operator assignment
   by STP matrix factorization (Section III-B), AllSAT verification
   (Section III-C), and polarity expansion of the normal-form
   solutions;
4. :func:`finalize_stage` — inverse-NPN rewrite, lifting back to the
   original input space, don't-care canonicalization, and dedup.

Stages communicate only through the state object and record their
wall-clock cost under per-stage names in ``ctx.stats.stage_seconds``,
so entry points can report exactly where a run's budget went.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator

from ..chain.chain import BooleanChain
from ..chain.transform import (
    lift_chain,
    npn_transform_chain,
    polarity_closure,
    shrink_to_support,
    trivial_chain,
)
from ..kernels import KERNEL_STATS
from ..runtime.errors import SynthesisInfeasible
from ..topology.dag import DagTopology
from ..truthtable.dsd import feasible_top_splits
from ..truthtable.npn import NPNTransform
from ..truthtable.table import TruthTable, projection
from .circuit_sat import verify_chain
from .context import SynthesisContext
from .factorization import FactorizationEngine
from .sizebound import min_gates_lower_bound
from .spec import Deadline, SynthesisResult, SynthesisSpec, SynthesisStats

__all__ = [
    "PipelineState",
    "run_pipeline",
    "normalize_stage",
    "canonicalize_stage",
    "search_stage",
    "finalize_stage",
]

#: Cross-run cache of size lower bounds, keyed by (table bits, arity).
_BOUND_CACHE: dict[tuple[int, int], int] = {}

#: Per-pDAG static structure (reachable-PI cones, cone gate counts, PI
#: bitmasks, cone shape terms, private-tree flags), shared by every
#: target searched over the same topology.
_DAG_INFO: dict[DagTopology, tuple] = {}

#: Global interning tables for recursive shape terms and child
#: structure descriptors: the engine-wide memos key on the interned
#: small ints instead of the nested tuples, so a probe hashes one
#: machine word.  Ids are process-stable names — every engine's memo
#: dicts are separate, so sharing the tables is safe.
_SHAPE_IDS: dict = {}
_STRUCT_IDS: dict = {}


def _intern(table: dict, term) -> int:
    sid = table.get(term)
    if sid is None:
        sid = table[term] = len(table)
    return sid

#: Re-entrancy depth of :func:`run_pipeline` in this process.  Nested
#: runs (an engine adapter delegating to the pipeline, say) must not
#: fold the kernel-counter delta twice, so only the outermost call —
#: the one returning to depth 0 — owns the window between its snapshot
#: and the global counters.
_PIPELINE_DEPTH = 0


@dataclass
class PipelineState:
    """Mutable state threaded through the pipeline stages.

    ``target`` is the function the search actually runs on — the
    support-local projection, or its NPN class representative when the
    spec asks for it; ``chains`` always computes ``target`` until
    :func:`finalize_stage` rewrites them back over the original inputs.
    """

    spec: SynthesisSpec
    trivial: BooleanChain | None = None
    local: TruthTable | None = None
    support: tuple[int, ...] = ()
    target: TruthTable | None = None
    npn_transform: NPNTransform | None = None
    chains: list[BooleanChain] = field(default_factory=list)
    num_gates: int = 0


def run_pipeline(
    spec: SynthesisSpec, ctx: SynthesisContext | None = None
) -> SynthesisResult:
    """Run the full stage sequence for one synthesis problem."""
    global _PIPELINE_DEPTH
    if ctx is None:
        ctx = SynthesisContext.create(timeout=spec.timeout)
    start = time.perf_counter()
    kernel_snapshot = KERNEL_STATS.snapshot()
    _PIPELINE_DEPTH += 1
    try:
        state = normalize_stage(spec, ctx)
        if state.trivial is not None:
            return SynthesisResult(
                spec,
                [state.trivial],
                0,
                time.perf_counter() - start,
                ctx.stats,
            )
        canonicalize_stage(state, ctx)
        search_stage(state, ctx)
        chains = finalize_stage(state, ctx)
        return SynthesisResult(
            spec,
            chains,
            state.num_gates,
            time.perf_counter() - start,
            ctx.stats,
        )
    finally:
        _PIPELINE_DEPTH -= 1
        if _PIPELINE_DEPTH == 0:
            ctx.stats.record_kernels(*KERNEL_STATS.since(kernel_snapshot))


# ----------------------------------------------------------------------
# stage 1: normalize / support-shrink
# ----------------------------------------------------------------------
def normalize_stage(
    spec: SynthesisSpec, ctx: SynthesisContext
) -> PipelineState:
    """Trivial-chain check and projection onto the functional support."""
    state = PipelineState(spec)
    with ctx.stage("normalize"):
        state.trivial = trivial_chain(spec.function)
        if state.trivial is None:
            state.local, state.support = shrink_to_support(spec.function)
            state.target = state.local
    return state


# ----------------------------------------------------------------------
# stage 2: NPN canonicalize
# ----------------------------------------------------------------------
def canonicalize_stage(
    state: PipelineState, ctx: SynthesisContext
) -> None:
    """Swap the target for its NPN class representative (optional).

    Gate counts and solution-set sizes are NPN-invariant, so searching
    on the representative is exact; the payoff is that every orbit
    member shares the representative's factorization memo and search
    effort.  The transform is remembered for :func:`finalize_stage`.
    """
    if not state.spec.npn_canonicalize:
        return
    with ctx.stage("canonicalize"):
        rep, transform = ctx.cache.npn_canonical(
            state.local, stats=ctx.stats
        )
        state.target = rep
        state.npn_transform = transform


# ----------------------------------------------------------------------
# stage 3: topology enumeration + factorization + verification
# ----------------------------------------------------------------------
def search_stage(state: PipelineState, ctx: SynthesisContext) -> None:
    """Find all optimal chains for the target at the first feasible size.

    Raises :class:`~repro.runtime.errors.SynthesisInfeasible` when the
    gate cap is exhausted.
    """
    spec = state.spec
    target = state.target
    s = target.num_vars
    engine = ctx.cache.factorization_engine(
        s,
        spec.operators,
        spec.max_solutions,
        deadline=ctx.deadline,
        stats=ctx.stats,
    )
    split_profile = feasible_top_splits(target, tuple(spec.operators))
    lo = max(1, s - 1)
    for r in range(lo, spec.effective_max_gates() + 1):
        normal = _search_at_size(
            target, r, engine, spec, ctx, split_profile
        )
        if normal:
            state.chains = normal
            if spec.all_solutions and engine.prunes_enabled:
                # Blow the normal forms up to the full optimal set by
                # complementing internal (non-output) signals; every
                # variant is simulated against the target.  Only a
                # complement-closed operator set has normal forms: for
                # any other the search already tried every polarity.
                with ctx.stage("expand"):
                    seen: set[tuple] = set()
                    variants = (
                        variant
                        for base in normal
                        for variant in polarity_closure(
                            base,
                            seen,
                            target=target,
                            deadline=ctx.deadline,
                        )
                    )
                    cap = max(1, spec.max_solutions)
                    state.chains = list(itertools.islice(variants, cap))
            state.num_gates = r
            return
    raise SynthesisInfeasible(
        f"no chain with up to {spec.effective_max_gates()} gates "
        f"found for 0x{spec.function.to_hex()}"
    )


def _search_at_size(
    f: TruthTable,
    r: int,
    engine: FactorizationEngine,
    spec: SynthesisSpec,
    ctx: SynthesisContext,
    split_profile: frozenset[int] | None = None,
) -> list[BooleanChain]:
    """All *normal-form* chains with exactly ``r`` gates (empty if none).

    With a complement-closed operator set the search pins every
    internal non-output signal to a function that is 0 on the all-zero
    input (the canonical polarity of the factorization engine).  Each
    polarity orbit has exactly one normal member, so the full solution
    set is the normal set expanded by all ``2^(r-1)`` internal-signal
    complementations — the search can therefore stop well before the
    solution cap.  Any other set is searched in every polarity, and
    its chains are the whole answer.
    """
    stats = ctx.stats
    deadline = ctx.deadline
    s = f.num_vars
    with ctx.stage("topology"):
        families = ctx.cache.topology_families(
            r, s, require_all_pis=True, deadline=deadline, stats=stats
        )
    normal_solutions: list[BooleanChain] = []
    seen: set[tuple] = set()
    orbit = 1 << max(0, r - 1) if engine.prunes_enabled else 1
    normal_cap = max(1, -(-spec.max_solutions // orbit))
    with ctx.stage("search"):
        for fence, dags in families:
            stats.fences_examined += 1
            for dag in dags:
                stats.dags_examined += 1
                deadline.check()
                for chain in assign_operators(
                    dag,
                    f,
                    engine,
                    deadline,
                    stats=stats,
                    split_profile=split_profile,
                ):
                    stats.candidates_generated += 1
                    if spec.verify:
                        stats.candidates_verified += 1
                        if not verify_chain(chain, f):
                            stats.verification_failures += 1
                            continue
                    key = chain.signature()
                    if key in seen:
                        continue
                    seen.add(key)
                    normal_solutions.append(chain)
                    if not spec.all_solutions:
                        return normal_solutions
                    if len(normal_solutions) >= normal_cap:
                        return normal_solutions
    return normal_solutions


def _dag_info(dag: DagTopology) -> tuple:
    """Static per-topology structure, cached across targets and runs.

    Returns ``(cones, cone_gates, cone_masks, shape_ids, tree_flags,
    tsizes, priv, struct_ids)``: per-signal reachable-PI cones (sorted
    tuples), cone gate counts, cone PI bitmasks, *interned* recursive
    shape terms (a PI is its index, a gate is the pair of its fanin
    terms — structurally equal cones in different pDAGs produce equal
    terms, interned to one small int each, keying the engine's
    cross-topology ``tree_memo``), per-gate *private tree* flags
    (every gate strictly below is consumed exactly once, by a gate
    inside the cone), unfolded tree sizes, per-gate *private sub-DAG*
    descriptors, and per-gate interned child-structure ids (the
    engine-wide verdict/group memo key components).

    Every non-tree gate gets ``priv[i] = (sub_fanins, cone_pis,
    gate_list, private)`` — the cone relabeled as a standalone pDAG
    (PIs in sorted-cone order, gates in topological order), the global
    PI tuple, the global gate signals, and whether the cone is
    *private*: every gate strictly below the top feeds only gates
    inside the cone, making the cone's solution set independent of the
    surrounding pDAG.  Private cones key the engine's exact
    ``cone_memo`` solution sets on the relabeled structure plus the
    *localized* demand, collapsing isomorphic subproblems across
    sibling pDAGs, fences and targets; the descriptor of a shared
    (non-private) cone identifies the child's structure-plus-embedding
    in the engine-level verdict and group memo keys.
    """
    info = _DAG_INFO.get(dag)
    if info is None:
        n = dag.num_pis
        cone_sets: list[frozenset[int]] = [
            frozenset((i,)) for i in range(n)
        ]
        gate_sets: list[frozenset[int]] = [frozenset() for _ in range(n)]
        shapes: list = list(range(n))
        tsizes: list[int] = [0] * n
        consumers: dict[int, list[int]] = {}
        for i, (a, b) in enumerate(dag.fanins):
            cone_sets.append(cone_sets[a] | cone_sets[b])
            gate_sets.append(gate_sets[a] | gate_sets[b] | {n + i})
            shapes.append((shapes[a], shapes[b]))
            tsizes.append(1 + tsizes[a] + tsizes[b])
            consumers.setdefault(a, []).append(n + i)
            consumers.setdefault(b, []).append(n + i)
        num_nodes = len(dag.fanins)
        tree_flags = []
        priv: list[tuple | None] = []
        cones = tuple(tuple(sorted(c)) for c in cone_sets)
        for i in range(num_nodes):
            sig = n + i
            gates = gate_sets[sig]
            tree = all(
                len(consumers.get(g, ())) == 1
                and consumers[g][0] in gates
                for g in gates
                if g != sig
            )
            tree_flags.append(tree)
            sub = None
            if not tree:
                private = len(gates) < num_nodes and all(
                    all(c in gates for c in consumers.get(g, ()))
                    for g in gates
                    if g != sig
                )
                cone_pis = cones[sig]
                gate_list = sorted(gates)
                relabel = {p: j for j, p in enumerate(cone_pis)}
                for j, g in enumerate(gate_list):
                    relabel[g] = len(cone_pis) + j
                sub_fanins = tuple(
                    (
                        relabel[dag.fanins[g - n][0]],
                        relabel[dag.fanins[g - n][1]],
                    )
                    for g in gate_list
                )
                sub = (sub_fanins, cone_pis, tuple(gate_list), private)
            priv.append(sub)
        cone_gates = tuple(len(g) for g in gate_sets)
        cone_masks = tuple(sum(1 << v for v in c) for c in cones)
        # Intern the nested terms once per topology: the search keys
        # its engine-wide memos millions of times per run, and hashing
        # a small int beats re-walking a recursive tuple every probe.
        shape_ids = tuple(_intern(_SHAPE_IDS, s) for s in shapes)
        struct_ids = []
        for i in range(num_nodes):
            pv = priv[i]
            if pv is not None:
                # Structure plus PI embedding: the same relabeled
                # sub-DAG over different PI tuples localizes a global
                # demand differently, so the embedding is part of the
                # child-verdict key.
                term = (pv[0], pv[1])
            else:
                term = (shapes[n + i], cone_gates[n + i], tree_flags[i])
            struct_ids.append(_intern(_STRUCT_IDS, term))
        info = (
            cones,
            cone_gates,
            cone_masks,
            shape_ids,
            tuple(tree_flags),
            tuple(tsizes),
            tuple(priv),
            tuple(struct_ids),
        )
        _DAG_INFO[dag] = info
    return info


#: Standalone topologies for private cones, keyed on the relabeled
#: fanin tuple (the PI count is implied by the smallest fanin labels).
_SUBDAG_CACHE: dict[tuple, DagTopology] = {}


def _subdag_topology(
    sub_fanins: tuple[tuple[int, int], ...], n_loc: int
) -> DagTopology:
    key = (n_loc, sub_fanins)
    dag = _SUBDAG_CACHE.get(key)
    if dag is None:
        levels: list[int] = []
        depth = [0] * n_loc
        for a, b in sub_fanins:
            lvl = max(depth[a], depth[b]) + 1
            depth.append(lvl)
            while len(levels) < lvl:
                levels.append(0)
            levels[lvl - 1] += 1
        dag = DagTopology(
            num_pis=n_loc, fanins=sub_fanins, fence=tuple(levels)
        )
        _SUBDAG_CACHE[key] = dag
    return dag


def _solve_subdag(
    sub_fanins: tuple[tuple[int, int], ...],
    n_loc: int,
    bits: int,
    engine: FactorizationEngine,
    deadline: Deadline,
) -> tuple:
    """Complete op-vector solution set of a private cone.

    The cone, relabeled as a standalone pDAG over its own PIs, is
    searched by a recursive :func:`assign_operators` run on a pooled
    sub-engine; each solution is compressed to the tuple of operator
    codes in gate order.  Privacy guarantees the surrounding pDAG
    interacts with the cone only through the demand on its top signal,
    so the set is context-free and memoizable engine-wide.
    """
    sub = engine.for_num_vars(n_loc)
    dag = _subdag_topology(sub_fanins, n_loc)
    table = TruthTable(bits, n_loc)
    return tuple(
        tuple(g.op for g in chain.gates)
        for chain in assign_operators(dag, table, sub, deadline)
    )


def assign_operators(
    dag: DagTopology,
    f: TruthTable,
    engine: FactorizationEngine,
    deadline: Deadline,
    stats: SynthesisStats | None = None,
    split_profile: frozenset[int] | None = None,
) -> Iterator[BooleanChain]:
    """Section III-B: assign a 2-LUT to every pDAG vertex by repeated
    STP factorization, top node first.

    The branch tree runs over *child pairs*, not individual operators:
    once both children of a node are fixed the operator choices are
    mutually independent, so each engine result groups the codes per
    ``(g_a, g_b)`` pair and complete assignments multiply the per-node
    operator lists out at the leaves.  Demands are carried as packed
    truth-table ints end to end.

    Three sound prunes keep the backtracking shallow:

    * when the top node splits the PIs into disjoint cones covering all
      inputs, the split must be in the target's precomputed DSD
      ``split_profile`` (:func:`feasible_top_splits`) or the whole pDAG
      is rejected before any engine call;
    * a demanded function whose support exceeds the fanin cones cannot
      be factorized (checked inside the engine);
    * a demand of support ``s`` placed on a signal whose cone contains
      ``m`` gates is infeasible when ``m < s - 1`` (every 2-input chain
      needs at least ``support - 1`` gates).

    Each factorization query is solved when the search first reaches
    it, so branches pruned before their children are visited never pay
    for the children's queries; the engine memoizes every answer.
    """
    n = dag.num_pis
    num_nodes = dag.num_nodes
    (
        cones,
        cone_gates,
        cone_masks,
        shapes,
        tree_flags,
        tsizes,
        priv,
        struct_ids,
    ) = _dag_info(dag)
    top = dag.top_signal

    if split_profile is not None:
        ta, tb = dag.fanins[num_nodes - 1]
        am, bm = cone_masks[ta], cone_masks[tb]
        if (
            (am | bm) == (1 << n) - 1
            and not am & bm
            and am not in split_profile
        ):
            if stats is not None:
                stats.dags_pruned_dsd += 1
            return

    pi_bits = tuple(projection(i, n).bits for i in range(n))
    pairs = [
        engine.pair_info(cones[a], cones[b]) for a, b in dag.fanins
    ]
    demands: dict[int, int] = {top: f.bits}
    op_choices: list[tuple[int, ...] | None] = [None] * num_nodes
    tree_sols: dict[int, tuple] = {}
    cone_sols: dict[int, tuple] = {}

    def fixed_bits(signal: int) -> int | None:
        if signal < n:
            return pi_bits[signal]
        return demands.get(signal)

    def bound_of(demand_bits: int) -> int:
        key = (demand_bits, n)
        bound = _BOUND_CACHE.get(key)
        if bound is None:
            bound = min_gates_lower_bound(TruthTable(demand_bits, n))
            _BOUND_CACHE[key] = bound
        return bound

    def feasible(signal: int, demand_bits: int) -> bool:
        return bound_of(demand_bits) <= cone_gates[signal]

    def realizable(signal: int, demand_bits: int) -> bool:
        """Tree-relaxation realizability of a demand on a gate's cone.

        Sound necessary condition: sharing inside or below the cone
        only *adds* constraints, so checking the demand against the
        cone's unfolded tree skeleton — recursing through disjoint
        fanin splits only, conservatively accepting overlapping ones —
        can never reject a realizable demand.  This kills the
        shared-spine branch explosion: most demand pairs emitted by a
        top-level shared-cone solve die here instead of in a full
        backtracking descent.  The verdict is not memoized here: its
        caller's ``viable_memo`` answers repeated child demands, and
        its factorizations come from the engine's query memo.
        """
        pr = pairs[signal - n]
        if pr.amask & pr.bmask:
            return True
        if bound_of(demand_bits) > tsizes[signal]:
            return False
        a, b = dag.fanins[signal - n]
        groups = engine.decompositions_pairs(
            demand_bits,
            pr,
            pi_bits[a] if a < n else None,
            pi_bits[b] if b < n else None,
        )
        return any(
            (a < n or realizable(a, ga)) and (b < n or realizable(b, gb))
            for ga, gb, _ in groups
        )

    def pick_node(pending: set[int]) -> int:
        """Most-constrained-first ordering: nodes whose fanins are both
        fixed are pure consistency checks and fail fastest; prefer one
        fixed fanin next; fall back to the highest (topmost) node."""
        best = -1
        best_score = -1.0
        for node in pending:
            a, b = dag.fanins[node]
            score = 4 * (
                (a < n or a in demands) + (b < n or b in demands)
            ) + (node / num_nodes)
            if score > best_score:
                best_score = score
                best = node
        return best

    def solve_tree(signal: int, demand_bits: int) -> tuple:
        """All factorizations of a private tree cone, bottom-up.

        Returns a nested solution forest: one ``(ops, sub_a, sub_b)``
        entry per viable child pair, where ``sub_x`` is ``None`` for a
        PI fanin and a (non-empty) nested forest for a gate fanin.
        Memoized on ``(shape term, demand)`` in the engine's
        ``tree_memo``, so structurally equal cones across sibling pDAGs
        and successive fences resolve to one dict lookup.
        """
        memo = engine.tree_memo
        key = (shapes[signal], demand_bits)
        hit = memo.get(key)
        if hit is not None:
            return hit
        deadline.check(every=16)
        a, b = dag.fanins[signal - n]
        fa = pi_bits[a] if a < n else None
        fb = pi_bits[b] if b < n else None
        groups = engine.decompositions_pairs(
            demand_bits, pairs[signal - n], fa, fb
        )
        sols = []
        for ga, gb, group_ops in groups:
            sub_a = None
            if a >= n:
                if not feasible(a, ga):
                    continue
                sub_a = solve_tree(a, ga)
                if not sub_a:
                    continue
            sub_b = None
            if b >= n:
                if not feasible(b, gb):
                    continue
                sub_b = solve_tree(b, gb)
                if not sub_b:
                    continue
            sols.append((group_ops, sub_a, sub_b))
        result = tuple(sols)
        memo[key] = result
        return result

    def tree_assignments(signal: int, sols: tuple):
        """Expand a nested solution forest into concrete
        ``((node, op), ...)`` assignment tuples for the cone's gates."""
        a, b = dag.fanins[signal - n]
        for group_ops, sub_a, sub_b in sols:
            a_asgs = (
                ((),)
                if sub_a is None
                else tuple(tree_assignments(a, sub_a))
            )
            b_asgs = (
                ((),)
                if sub_b is None
                else tuple(tree_assignments(b, sub_b))
            )
            for asg_a in a_asgs:
                for asg_b in b_asgs:
                    rest = asg_a + asg_b
                    for op in group_ops:
                        yield ((signal - n, op),) + rest

    def solve_cone(signal: int, demand_bits: int) -> tuple:
        """All op-vectors realizing a demand on a private non-tree cone.

        The cone is relabeled as a standalone pDAG and solved by a
        recursive :func:`assign_operators` search on a sub-engine of
        the cone's width; results are memoized in the engine's
        ``cone_memo`` keyed on the relabeled structure and the
        localized demand, so structurally equal cones across sibling
        pDAGs, fences and targets — and different PI embeddings of the
        same structure — resolve to one dict probe.  An empty set
        vetoes every branch that would place this demand, killing
        shared-spine families wholesale.
        """
        sub_fanins, cone_pis, _, _ = priv[signal - n]
        local = engine.localize(demand_bits, cone_pis)
        key = (sub_fanins, len(cone_pis), local)
        memo = engine.cone_memo
        hit = memo.get(key)
        if hit is None:
            hit = _solve_subdag(
                sub_fanins, len(cone_pis), local, engine, deadline
            )
            memo[key] = hit
        return hit

    def emit() -> Iterator[BooleanChain]:
        pools = []
        for i in range(num_nodes):
            if op_choices[i] is not None:
                pools.append(
                    tuple(((i, op),) for op in op_choices[i])
                )
        for signal, sols in tree_sols.items():
            pools.append(tuple(tree_assignments(signal, sols)))
        for signal, opvecs in cone_sols.items():
            gate_list = priv[signal - n][2]
            pools.append(
                tuple(
                    tuple(
                        (g - n, op) for g, op in zip(gate_list, vec)
                    )
                    for vec in opvecs
                )
            )
        for combo in itertools.product(*pools):
            deadline.check(every=64)
            assigned = dict(
                pair for part in combo for pair in part
            )
            chain = BooleanChain(n)
            for i, (fa_i, fb_i) in enumerate(dag.fanins):
                chain.add_gate(assigned[i], (fa_i, fb_i))
            chain.set_output(top)
            yield chain

    def viable_groups(
        node: int, gv: int, fa: int | None, fb: int | None
    ) -> tuple:
        """The node's factorization groups with doomed children removed.

        A group dies when a fresh child demand fails the gate-count
        bound, the tree-relaxation realizability filter, or (for a
        private tree child) has no exact subtree solution.  The
        filtered list is memoized at the engine level keyed on the
        query plus each free child's cone structure, so shared-spine
        solves returning hundreds of demand pairs are winnowed once —
        every later branch context and sibling pDAG iterates only the
        survivors.
        """
        a, b = dag.fanins[node]
        ka = None if fa is not None else struct_ids[a - n]
        kb = None if fb is not None else struct_ids[b - n]
        key = (pairs[node].pid, gv, fa, fb, ka, kb)
        memo = engine.groups_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        groups = engine.decompositions_pairs(gv, pairs[node], fa, fb)
        # Child verdicts depend only on (cone structure, demand) — the
        # same granularity as the memo key's child components — so they
        # are shared engine-wide: filtering a fresh context over demands
        # already judged elsewhere is a dict probe per group.
        da = None if ka is None else engine.viable_memo.setdefault(ka, {})
        db = None if kb is None else engine.viable_memo.setdefault(kb, {})
        out = []
        for ga, gb, group_ops in groups:
            if da is not None:
                v = da.get(ga)
                if v is None:
                    da[ga] = v = child_viable(a, ga)
                if not v:
                    continue
            if db is not None:
                v = db.get(gb)
                if v is None:
                    db[gb] = v = child_viable(b, gb)
                if not v:
                    continue
            out.append((ga, gb, group_ops))
        result = tuple(out)
        memo[key] = result
        return result

    def child_viable(child: int, gbits: int) -> bool:
        if not feasible(child, gbits):
            return False
        if tree_flags[child - n]:
            return bool(solve_tree(child, gbits))
        # Cheap tree-relaxation first: the exact sub-DAG solve only
        # runs on demands the necessary condition cannot refute.
        if not realizable(child, gbits):
            return False
        if priv[child - n][3]:
            return bool(solve_cone(child, gbits))
        return True

    def place_child(child: int, gbits: int, pending: set[int]) -> None:
        """Bind an already-vetted fresh demand on ``child``."""
        if tree_flags[child - n]:
            tree_sols[child] = solve_tree(child, gbits)
        elif priv[child - n][3]:
            cone_sols[child] = solve_cone(child, gbits)
        else:
            pending.add(child - n)
        demands[child] = gbits

    def unplace_child(child: int, pending: set[int]) -> None:
        del demands[child]
        if tree_sols.pop(child, None) is not None:
            return
        if cone_sols.pop(child, None) is not None:
            return
        pending.discard(child - n)

    def rec(pending: set[int]) -> Iterator[BooleanChain]:
        if not pending:
            yield from emit()
            return
        deadline.check(every=64)
        node = pick_node(pending)
        pending.discard(node)
        gv = demands[n + node]
        a, b = dag.fanins[node]
        fa = fixed_bits(a)
        fb = fixed_bits(b)
        new_a = fa is None
        new_b = fb is None
        for ga, gb, group_ops in viable_groups(node, gv, fa, fb):
            if new_a:
                place_child(a, ga, pending)
            if new_b:
                place_child(b, gb, pending)
            op_choices[node] = group_ops
            yield from rec(pending)
            op_choices[node] = None
            if new_a:
                unplace_child(a, pending)
            if new_b:
                unplace_child(b, pending)
        pending.add(node)

    if not feasible(top, f.bits):
        return
    if tree_flags[num_nodes - 1]:
        sols = solve_tree(top, f.bits)
        if sols:
            tree_sols[top] = sols
            yield from emit()
        return
    yield from rec({num_nodes - 1})


# ----------------------------------------------------------------------
# stage 4: inverse-NPN / lift / dedup
# ----------------------------------------------------------------------
def finalize_stage(
    state: PipelineState, ctx: SynthesisContext
) -> list[BooleanChain]:
    """Rewrite the search's chains back over the original inputs."""
    spec = state.spec
    with ctx.stage("finalize"):
        chains = state.chains
        if state.npn_transform is not None:
            inverse = state.npn_transform.inverse()
            chains = [npn_transform_chain(c, inverse) for c in chains]
            if spec.all_solutions:
                chains = [canonicalize_dont_cares(c) for c in chains]
        lifted = [
            lift_chain(c, spec.function.num_vars, state.support)
            for c in chains
        ]
        return dedup_chains(lifted)


def canonicalize_dont_cares(chain: BooleanChain) -> BooleanChain:
    """Zero every LUT row no input assignment can exercise.

    Factorizations through shared variables (power-reduce don't-cares,
    Property 3) leave some gate-code rows unconstrained, so chains that
    behave identically can differ in unobservable LUT bits.  Forcing
    those bits to 0 gives each behaviour a single representative.  The
    reachable rows come from one word-parallel simulation of the chain
    (:meth:`~repro.chain.chain.BooleanChain.simulate_packed`).
    """
    reachable = chain.simulate_packed()[1]
    fixed = BooleanChain(chain.num_inputs)
    for gate, rows in zip(chain.gates, reachable):
        fixed.add_gate(gate.op & rows, gate.fanins)
    for signal, complemented in chain.outputs:
        fixed.set_output(signal, complemented)
    return fixed


def dedup_chains(chains: list[BooleanChain]) -> list[BooleanChain]:
    """Keep the first chain of each signature, preserving order."""
    seen: set[tuple] = set()
    unique = []
    for chain in chains:
        key = chain.signature()
        if key not in seen:
            seen.add(key)
            unique.append(chain)
    return unique
