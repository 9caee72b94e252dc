"""STP matrix factorization of canonical forms (Section III-B).

Given a demanded function ``g_v`` at a DAG node whose two fanins reach
primary-input sets ``S_a`` and ``S_b``, this module enumerates every
way to write ``g_v = φ(g_a, g_b)`` with ``g_a`` over ``S_a``, ``g_b``
over ``S_b`` and ``φ`` a 2-input operator — i.e. it factors the STP
canonical form ``M_{g_v}`` into a structural matrix and two smaller
logic matrices.

*Disjoint* fanin supports use the paper's "two unique quartering
parts" criterion (Examples 5–6): grouping the columns of ``M_{g_v}``
by the assignment of ``S_a`` must produce at most two distinct column
blocks, the block indicator *is* ``g_a`` (up to a polarity absorbed by
``φ``), and ``g_b`` follows column-wise.  Reordering interleaved
variables is Property 1's swap (``M_w``); we realise it by permuting
truth-table variables, the same linear map.

*Overlapping* supports are the power-reducing case (Properties 3–4):
repeated variables introduce don't-care entries, so the factor pair is
no longer block-determined.  We solve the induced binary constraint
system — one constraint ``φ(g_a(α), g_b(β)) = g_v(γ)`` per joint
assignment ``γ`` — by arc consistency plus backtracking, enumerating
exactly the assignments the paper re-checks with the circuit AllSAT
solver.

The search issues millions of queries per hard instance, so each query
is solved when the search first asks for it, and its answer is
memoized once, in the engine's query memo.  The hot paths run entirely
on packed Python ints: quartering parts are packed β-profiles, the
per-β allowed-value scan is a handful of mask ops, and the
both-children-fixed case is a uniformity check per minterm class of
``(g_a, g_b)``.  Below the query memo sit only memos that repeat
often: per engine, support masks and the cone-local/global table
conversions; per cone shape, in a module-level registry shared by every
engine, the index maps, child expansions and cofactor solutions; and
module-wide, the demand-independent half of the minimality prunes.

Demand pruning: at a *minimal* gate count no chain can contain a gate
whose function is constant, a (complemented) projection, or equal
(complemented) to its parent's function — any such gate could be
dropped, contradicting minimality.  When the operator set is closed
under input/output complementation these prunes are sound; for
non-closed operator sets they are disabled automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _product
from typing import Iterable, Iterator, Sequence

from ..kernels.bitops import collapse_indices, spread_indices, var_mask
from ..kernels.factorization import (
    FLIP_INPUT0,
    FLIP_INPUT1,
    expand_positions,
    index_maps,
    quartering_profiles,
)
from ..truthtable.table import TruthTable
from .spec import Deadline

__all__ = ["Factorization", "FactorizationEngine", "is_complement_closed"]


def is_complement_closed(ops: Sequence[int]) -> bool:
    """True when the operator set is closed under complementing either
    input or the output (required for the minimality prunes).  The
    input complements are the kernel layer's precomputed 16-entry flip
    tables."""
    op_set = set(ops)
    for code in ops:
        if not {FLIP_INPUT0[code], FLIP_INPUT1[code], code ^ 0xF} <= op_set:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """One factorization ``g_v = φ(g_a, g_b)``.

    ``op`` is the gate code with the *first* fanin as the low
    truth-table variable; ``g_a``/``g_b`` are global tables (over all
    DAG inputs) whose support lies inside the fanin cones.
    """

    op: int
    g_a: TruthTable
    g_b: TruthTable


class _Shape:
    """One union-local cone shape with its shape-keyed memos.

    Shapes are registered process-globally (see :func:`_shape`) so
    every engine — and every fence family revisiting the same cone
    shape — shares the index maps, γ-class masks and expansion and
    cofactor memos.  Everything here is pure structure: nothing depends
    on the operator set, caps or deadlines.
    """

    __slots__ = (
        "nu",
        "a_pos",
        "b_pos",
        "size_a",
        "size_b",
        "full_a",
        "full_b",
        "full_g",
        "disjoint",
        "gamma_flat",
        "amap_list",
        "bmap_list",
        "aclass_masks",
        "bclass_masks",
        "_aexp",
        "_bexp",
        "_shared",
        "_cof_memo",
    )

    def __init__(
        self, nu: int, a_pos: tuple[int, ...], b_pos: tuple[int, ...]
    ) -> None:
        amap, bmap, disjoint, gamma_of = index_maps(nu, a_pos, b_pos)
        self.nu = nu
        self.a_pos = a_pos
        self.b_pos = b_pos
        self.size_a = 1 << len(a_pos)
        self.size_b = 1 << len(b_pos)
        self.full_a = (1 << self.size_a) - 1
        self.full_b = (1 << self.size_b) - 1
        self.full_g = (1 << (1 << nu)) - 1
        self.disjoint = disjoint
        self.gamma_flat = (
            gamma_of.ravel().tolist() if disjoint else None
        )
        self.amap_list = amap.tolist()
        self.bmap_list = bmap.tolist()
        aclass = [0] * self.size_a
        bclass = [0] * self.size_b
        for gamma in range(1 << nu):
            aclass[self.amap_list[gamma]] |= 1 << gamma
            bclass[self.bmap_list[gamma]] |= 1 << gamma
        self.aclass_masks = aclass
        self.bclass_masks = bclass
        self._aexp: dict[int, int] = {}
        self._bexp: dict[int, int] = {}
        self._shared: tuple | None | bool = False
        self._cof_memo: dict[tuple, tuple] = {}

    def a_expand(self, child_bits: int) -> int:
        """A-child value per γ row, packed over the union rows."""
        out = self._aexp.get(child_bits)
        if out is None:
            out = 0
            m = child_bits
            masks = self.aclass_masks
            while m:
                cell = (m & -m).bit_length() - 1
                m &= m - 1
                out |= masks[cell]
            self._aexp[child_bits] = out
        return out

    def b_expand(self, child_bits: int) -> int:
        """B-child value per γ row, packed over the union rows."""
        out = self._bexp.get(child_bits)
        if out is None:
            out = 0
            m = child_bits
            masks = self.bclass_masks
            while m:
                cell = (m & -m).bit_length() - 1
                m &= m - 1
                out |= masks[cell]
            self._bexp[child_bits] = out
        return out

    def shared_info(self) -> tuple | None:
        """Cofactor-split structure for the shared free-free solver.

        Splitting the union variables into the shared set ``S`` and the
        private remainders ``A' = A \\ S`` / ``B' = B \\ S``, every
        constraint row couples cells of one shared assignment ``s``
        only, so the factorization decomposes into ``2^|S|``
        independent subproblems whose solution sets multiply (the
        cofactors of ``g_a`` at distinct ``s`` are independent
        functions over ``A'``).  Returns ``(sh_count, sap, sbp, gbase,
        offa, offb, a_spread, b_spread)`` — the γ-row offsets of each
        (s, α', β') split and, per ``s``, the table mapping a packed
        cofactor onto its cells of the full child index — or ``None``
        when a private side is too wide and the generic CSP should run
        instead.
        """
        info = self._shared
        if info is False:
            a_pos, b_pos = self.a_pos, self.b_pos
            sset = set(a_pos) & set(b_pos)
            spos = sorted(sset)
            a_fr = [v for v in a_pos if v not in sset]
            b_fr = [v for v in b_pos if v not in sset]
            if len(a_fr) > 3 or len(b_fr) > 3 or len(spos) > 4:
                info = None
            else:
                sh_count = 1 << len(spos)
                sap = 1 << len(a_fr)
                sbp = 1 << len(b_fr)
                gbase = [
                    sum(((s >> k) & 1) << p for k, p in enumerate(spos))
                    for s in range(sh_count)
                ]
                offa = [
                    sum(((m >> j) & 1) << p for j, p in enumerate(a_fr))
                    for m in range(sap)
                ]
                offb = [
                    sum(((m >> j) & 1) << p for j, p in enumerate(b_fr))
                    for m in range(sbp)
                ]
                a_spread = _cofactor_spread(a_pos, spos, a_fr, sap)
                b_spread = _cofactor_spread(b_pos, spos, b_fr, sbp)
                info = (
                    sh_count, sap, sbp, gbase, offa, offb,
                    a_spread, b_spread,
                )
            self._shared = info
        return info


def _cofactor_spread(
    pos: tuple[int, ...],
    spos: list[int],
    free: list[int],
    width: int,
) -> list[list[int]]:
    """Per shared assignment ``s``, the table mapping a packed cofactor
    (one bit per free-variable cell) onto its child-local index bits."""
    sh_j = [pos.index(p) for p in spos]
    fr_j = [pos.index(p) for p in free]
    out = []
    for s in range(1 << len(spos)):
        base = sum(((s >> k) & 1) << j for k, j in enumerate(sh_j))
        cell = [
            base | sum(((m >> j) & 1) << jj for j, jj in enumerate(fr_j))
            for m in range(width)
        ]
        table = [0] * (1 << width)
        for m in range(1, 1 << width):
            low = m & -m
            table[m] = table[m ^ low] | (
                1 << cell[low.bit_length() - 1]
            )
        out.append(table)
    return out


_SHAPES: dict[tuple[int, tuple[int, ...], tuple[int, ...]], _Shape] = {}


def _shape(
    nu: int, a_pos: tuple[int, ...], b_pos: tuple[int, ...]
) -> _Shape:
    key = (nu, a_pos, b_pos)
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _Shape(nu, a_pos, b_pos)
        _SHAPES[key] = shape
    return shape


class _PairInfo:
    """One (cone_a, cone_b) pair as seen by a specific engine.

    ``pid`` is a small per-engine integer used in query-memo keys (the
    engine's and the pipeline's); the variable masks drive the
    support-containment checks and ``shape`` is the shared union-local
    structure.
    """

    __slots__ = (
        "pid",
        "a_vars",
        "b_vars",
        "u_vars",
        "amask",
        "bmask",
        "umask",
        "shape",
    )


class FactorizationEngine:
    """Memoizing factorization for one ``(num_vars, operators, cap)``
    config, shared by every run that binds it.

    Its memos are pure functions of their keys:

    * ``_bits_cache``: every answered query, keyed on ``(g_v, pair id,
      pinned children, canonical)``; the only per-query memo;
    * ``_support_cache``, ``_loc_cache``, ``_exp_cache``: support
      masks and the cone-local/global table conversions;
    * the pipeline's cross-topology memos (``tree_memo``,
      ``groups_memo``, ``viable_memo``, ``cone_memo``).

    Shape-keyed memos live on :class:`_Shape`; the demand-independent
    prune verdicts live in the module-level ``_ADM_BASE``.
    """

    def __init__(
        self,
        num_vars: int,
        operators: Sequence[int],
        max_solutions_per_query: int = 4096,
        deadline: Deadline | None = None,
    ) -> None:
        self._num_vars = num_vars
        self._ops = tuple(operators)
        self._closed = is_complement_closed(self._ops)
        self._cap = max_solutions_per_query
        self._deadline = deadline
        self._stats = None
        self._full = (1 << (1 << num_vars)) - 1
        # pair registry, per-cone index tables and the memos listed in
        # the class docstring
        self._pairs: dict[tuple, _PairInfo] = {}
        self._bits_cache: dict = {}
        self._support_cache: dict[int, int] = {}
        self._loc_cache: dict = {}
        self._exp_cache: dict = {}
        self._spread: dict[tuple[int, ...], list[int]] = {}
        self._collapse: dict[tuple[int, ...], list[int]] = {}
        #: Cross-topology memos owned by the pipeline: complete solution
        #: sets of private tree-shaped cones keyed on ``(cone_shape_term,
        #: demand_bits)``, filtered factorization groups, and per child
        #: structure the viability verdict of each demand.  They live
        #: here so sibling pDAGs and successive fences of every run
        #: sharing this engine reuse the same subtree factorizations.
        self.tree_memo: dict = {}
        self.groups_memo: dict = {}
        self.viable_memo: dict = {}
        #: Private non-tree cones: complete op-vector solution sets
        #: keyed ``(relabeled sub-DAG fanins, num cone PIs, localized
        #: demand)``, plus the pool of narrower sub-engines that solve
        #: them (one per cone PI count, same operators and cap).
        self.cone_memo: dict = {}
        self._sub_engines: dict[int, "FactorizationEngine"] = {}

    @property
    def prunes_enabled(self) -> bool:
        """Whether minimality prunes are active (operator set closed)."""
        return self._closed

    @property
    def cached_queries(self) -> int:
        """Number of memoized top-level queries."""
        return len(self._bits_cache)

    def bind(self, deadline: Deadline | None = None, stats=None) -> None:
        """Rebind the per-run deadline and stats sink.

        The memo keys depend only on the immutable ``(num_vars,
        operators, cap)`` config, so one engine can serve many runs —
        the cross-call factorization memo — as long as each run binds
        its own deadline before querying.
        """
        self._deadline = deadline
        self._stats = stats

    def for_num_vars(self, num_vars: int) -> "FactorizationEngine":
        """A sub-engine over ``num_vars`` inputs with this engine's
        operator set and cap, rebound to the current deadline/stats.

        Private-cone solves relabel a cone as a standalone pDAG over
        its own PIs; the recursive search then needs an engine of that
        narrower width.  Sub-engines are pooled so their memos persist
        alongside the parent's.
        """
        if num_vars == self._num_vars:
            return self
        sub = self._sub_engines.get(num_vars)
        if sub is None:
            sub = FactorizationEngine(
                num_vars, self._ops, max_solutions_per_query=self._cap
            )
            self._sub_engines[num_vars] = sub
        sub.bind(self._deadline, self._stats)
        return sub

    def localize(self, bits: int, vars_: tuple[int, ...]) -> int:
        """Project a demand onto the sorted variable tuple ``vars_``
        (packed truth table over ``len(vars_)`` inputs)."""
        return self._localize(bits, vars_)

    def clear_caches(self) -> None:
        """Drop this engine's and its sub-engines' memos (the memory
        backstop for long suites).

        Kept: the pair registry and per-cone index tables, which grow
        with the cone pairs rather than the queries, and the
        module-level shape registry (with each shape's memos) and
        ``_ADM_BASE``, which every engine shares and no bound reaches.
        """
        self._bits_cache.clear()
        self._support_cache.clear()
        self._loc_cache.clear()
        self._exp_cache.clear()
        self.tree_memo.clear()
        self.groups_memo.clear()
        self.viable_memo.clear()
        self.cone_memo.clear()
        for sub in self._sub_engines.values():
            sub.clear_caches()

    # ------------------------------------------------------------------
    # pair registry
    # ------------------------------------------------------------------
    def pair_info(
        self, cone_a: Sequence[int], cone_b: Sequence[int]
    ) -> _PairInfo:
        """The engine's handle for one (cone_a, cone_b) pair.

        Callers that query the same node across many branch states
        (the pipeline) fetch the handle once and pass it to
        :meth:`decompositions_pairs`.
        """
        a_vars = (
            cone_a if isinstance(cone_a, tuple) else tuple(sorted(cone_a))
        )
        b_vars = (
            cone_b if isinstance(cone_b, tuple) else tuple(sorted(cone_b))
        )
        key = (a_vars, b_vars)
        pair = self._pairs.get(key)
        if pair is None:
            u_vars = tuple(sorted(set(a_vars) | set(b_vars)))
            position = {v: i for i, v in enumerate(u_vars)}
            pair = _PairInfo()
            pair.pid = len(self._pairs)
            pair.a_vars = a_vars
            pair.b_vars = b_vars
            pair.u_vars = u_vars
            pair.amask = sum(1 << v for v in a_vars)
            pair.bmask = sum(1 << v for v in b_vars)
            pair.umask = pair.amask | pair.bmask
            pair.shape = _shape(
                len(u_vars),
                tuple(position[v] for v in a_vars),
                tuple(position[v] for v in b_vars),
            )
            self._pairs[key] = pair
        return pair

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------
    def decompositions(
        self,
        g_v: TruthTable,
        cone_a: Sequence[int],
        cone_b: Sequence[int],
        fixed_a: TruthTable | None = None,
        fixed_b: TruthTable | None = None,
        canonical: bool = True,
    ) -> tuple[Factorization, ...]:
        """Factorizations of ``g_v`` over the given fanin cones.

        ``cone_a`` / ``cone_b`` are the PIs reachable through each fanin
        (sorted tuples preferred — sets are normalised).  ``fixed_a`` /
        ``fixed_b`` pin a child to an already-assigned function (e.g. a
        primary-input projection).

        With ``canonical=True`` (default) free child demands are pinned
        to *normal* functions (value 0 on the all-zero row).  Every
        polarity orbit has exactly one normal representative when the
        operator set is complement-closed, so feasibility and optimal
        size are unaffected while the branching halves per child; the
        synthesizer recovers the full solution set by polarity
        expansion.  ``canonical=False`` enumerates every polarity.
        """
        pair = self.pair_info(cone_a, cone_b)
        fa = None if fixed_a is None else fixed_a.bits
        fb = None if fixed_b is None else fixed_b.bits
        n = self._num_vars
        out = []
        for ga_bits, gb_bits, group_ops in self.decompositions_pairs(
            g_v.bits, pair, fa, fb, canonical
        ):
            g_a = fixed_a if fixed_a is not None else TruthTable(ga_bits, n)
            g_b = fixed_b if fixed_b is not None else TruthTable(gb_bits, n)
            for code in group_ops:
                out.append(Factorization(code, g_a, g_b))
        return tuple(out)

    def decompositions_pairs(
        self,
        gv_bits: int,
        pair: _PairInfo,
        fixed_a_bits: int | None = None,
        fixed_b_bits: int | None = None,
        canonical: bool = True,
    ) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Factorizations grouped by the child pair, on packed ints.

        Returns ``(g_a_bits, g_b_bits, ops)`` triples over the global
        row space — once both children of a node are determined the
        operator choices are mutually independent, so the search
        branches per *pair* and multiplies the operator lists out only
        at complete assignments.  Semantics otherwise match
        :meth:`decompositions` (same solutions, grouped).
        """
        canonical = canonical and self._closed
        key = (gv_bits, pair.pid, fixed_a_bits, fixed_b_bits, canonical)
        cached = self._bits_cache.get(key)
        st = self._stats
        if st is not None:
            bucket = st.cache_hits if cached is not None else st.cache_misses
            bucket["factorization"] = bucket.get("factorization", 0) + 1
        if cached is not None:
            return cached
        if self._deadline is not None:
            self._deadline.check()
        result = self._solve_query(
            gv_bits, pair, fixed_a_bits, fixed_b_bits, canonical
        )
        self._bits_cache[key] = result
        return result

    def prefetch_pairs(self, queries, canonical: bool = True) -> None:
        """No-op, kept so callers that wrap the method by name still
        find it.  Every query is solved when :meth:`decompositions_pairs`
        first asks for it; nothing in the program calls this."""

    # ------------------------------------------------------------------
    # the solve path (cache misses only)
    # ------------------------------------------------------------------
    def _solve_query(
        self,
        gv: int,
        pair: _PairInfo,
        fa: int | None,
        fb: int | None,
        canonical: bool,
    ) -> tuple:
        if self._support_mask(gv) & ~pair.umask:
            return ()  # support leaks outside the union cone
        if fa is not None and self._support_mask(fa) & ~pair.amask:
            return ()
        if fb is not None and self._support_mask(fb) & ~pair.bmask:
            return ()
        if fa is not None and fb is not None:
            ops = self._consistent_ops(gv, fa, fb)
            return ((fa, fb, ops),) if ops else ()
        shape = pair.shape
        gv_local = self._localize(gv, pair.u_vars)
        fa_local = None if fa is None else self._localize(fa, pair.a_vars)
        fb_local = None if fb is None else self._localize(fb, pair.b_vars)
        if shape.disjoint:
            descriptors = self._disjoint_descriptors(
                shape, gv_local, fa_local, fb_local, canonical
            )
            sols = self._finish_disjoint(
                shape, gv_local, descriptors, fa_local, fb_local, canonical
            )
        elif fa_local is not None or fb_local is not None:
            sols = self._solve_shared_pinned(
                shape, gv_local, fa_local, fb_local, canonical
            )
        else:
            sols = self._solve_shared(gv_local, shape, canonical)
        return self._group(sols, pair, fa, fb)

    def _group(
        self,
        sols: Iterable[tuple[int, int, int]],
        pair: _PairInfo,
        fa: int | None,
        fb: int | None,
    ) -> tuple:
        """Globalize local ``(code, a_local, b_local)`` solutions and
        group them by the child pair, in first-seen order."""
        groups: dict[tuple[int, int], list[int]] = {}
        for code, a_loc, b_loc in sols:
            ga = fa if fa is not None else self._expand_bits(
                a_loc, pair.a_vars
            )
            gb = fb if fb is not None else self._expand_bits(
                b_loc, pair.b_vars
            )
            groups.setdefault((ga, gb), []).append(code)
        return tuple(
            (ga, gb, tuple(codes))
            for (ga, gb), codes in groups.items()
        )

    # ------------------------------------------------------------------
    # both children fixed: operator pattern match
    # ------------------------------------------------------------------
    def _consistent_ops(
        self, gv: int, ga: int, gb: int
    ) -> tuple[int, ...]:
        """Operators with ``φ(g_a, g_b) = g_v`` pointwise (global).

        Each joint row falls in one of four minterm classes of
        ``(g_a, g_b)``.  Consistency is a per-class uniformity check,
        and an operator fits when its truth table matches the uniform
        value of every non-empty class.  Not memoized here: the query
        memo in :meth:`decompositions_pairs` answers every repeat
        first.
        """
        full = self._full
        m11 = ga & gb
        m10 = ga & ~gb & full
        m01 = gb & ~ga & full
        m00 = ~(ga | gb) & full
        pattern = 0
        wild = 0
        for i, mask in enumerate((m00, m10, m01, m11)):
            if not mask:
                wild |= 1 << i
                continue
            r = gv & mask
            if r == mask:
                pattern |= 1 << i
            elif r:
                return ()  # class mixes 0s and 1s: no operator fits
        return tuple(
            code for code in self._ops if not (code ^ pattern) & ~wild & 0xF
        )

    # ------------------------------------------------------------------
    # support masks and local/global conversions (cached, pure-int)
    # ------------------------------------------------------------------
    def _support_mask(self, bits: int) -> int:
        """Variable-support bitmask of a global table (memoized)."""
        m = self._support_cache.get(bits)
        if m is None:
            m = 0
            for v in range(self._num_vars):
                vm = var_mask(v, self._num_vars)
                shift = 1 << v
                if (bits & vm) >> shift != bits & (vm >> shift):
                    m |= 1 << v
            self._support_cache[bits] = m
        return m

    def _localize(self, bits: int, vars_: tuple[int, ...]) -> int:
        """Project a global table onto a cone (support known inside)."""
        key = (bits, vars_)
        out = self._loc_cache.get(key)
        if out is None:
            sp = self._spread.get(vars_)
            if sp is None:
                sp = spread_indices(vars_, self._num_vars).tolist()
                self._spread[vars_] = sp
            out = 0
            for i, row in enumerate(sp):
                out |= ((bits >> row) & 1) << i
            self._loc_cache[key] = out
        return out

    def _expand_bits(self, local_bits: int, vars_: tuple[int, ...]) -> int:
        """Expand a cone-local table onto the global row space."""
        key = (local_bits, vars_)
        out = self._exp_cache.get(key)
        if out is None:
            cm = self._collapse.get(vars_)
            if cm is None:
                cm = collapse_indices(vars_, self._num_vars).tolist()
                self._collapse[vars_] = cm
            out = 0
            for m, c in enumerate(cm):
                out |= ((local_bits >> c) & 1) << m
            self._exp_cache[key] = out
        return out

    # ------------------------------------------------------------------
    # minimality prunes
    # ------------------------------------------------------------------
    def _admissible_local(
        self,
        child_bits: int,
        child_pos: tuple[int, ...],
        gv_bits: int,
        nu: int,
    ) -> bool:
        """Minimality prunes on a free child demand (local form).

        The constant/projection verdict and the union-space expansion
        depend only on ``(child_bits, child_pos, nu)``, so they are
        memoized module-wide (``-1`` marks always-inadmissible); per
        call only the parent-equality compare remains.
        """
        if not self._closed:
            return True
        key = (child_bits, child_pos, nu)
        expanded = _ADM_BASE.get(key)
        if expanded is None:
            expanded = _admissible_base(child_bits, child_pos, nu)
            _ADM_BASE[key] = expanded
        if expanded < 0:
            return False
        gv_full = (1 << (1 << nu)) - 1
        return expanded != gv_bits and expanded != (gv_bits ^ gv_full)

    # ------------------------------------------------------------------
    # disjoint cones: quartering parts on packed β-profiles
    # ------------------------------------------------------------------
    def _disjoint_descriptors(
        self,
        shape: _Shape,
        gv_local: int,
        fa_local: int | None,
        fb_local: int | None,
        canonical: bool,
    ) -> list[tuple[int, int, int, int]]:
        """The quartering check for one demand on a disjoint shape.

        Returns ``(code, a_bits, forced_b, free_b_mask)`` descriptors:
        ``forced_b`` carries the B-cells pinned by the per-β
        constraints and ``free_b_mask`` the cells both values satisfy
        (0 when B is pinned, whose validated table is ``forced_b``).
        Order: candidate A-polarity first (normal, then complemented
        when ``canonical`` is false), operator code in ``ops`` order
        within each candidate — the contract of
        :func:`~repro.kernels.reference.solve_disjoint_ref`, its oracle.
        """
        profiles = quartering_profiles(
            gv_local, shape.nu, shape.gamma_flat, shape.size_a, shape.size_b
        )
        full_b = shape.full_b
        candidates: list[tuple[int, int | None, int | None]] = []
        if fa_local is None:
            d = profiles[0]
            c = None
            for p in profiles:
                if p != d:
                    if c is None:
                        c = p
                    elif p != c:
                        return []  # three distinct parts (Example 5.2)
            if c is None:
                return []  # degenerate: g_v independent of the A cone
            a_bits = 0
            for alpha, p in enumerate(profiles):
                if p == c:
                    a_bits |= 1 << alpha
            # a_bits has bit 0 clear (α = 0 falls in the d group), i.e.
            # it is the *normal* polarity; the complemented indicator
            # is the other member of the polarity orbit.
            candidates.append((a_bits, c, d))
            if not canonical:
                candidates.append((a_bits ^ shape.full_a, d, c))
        else:
            # A is pinned; both groups must be internally uniform.
            c = d = None
            for alpha, p in enumerate(profiles):
                if (fa_local >> alpha) & 1:
                    if c is None:
                        c = p
                    elif p != c:
                        return []
                else:
                    if d is None:
                        d = p
                    elif p != d:
                        return []
            candidates.append((fa_local, c, d))

        descriptors = []
        for a_bits, c, d in candidates:
            for code in self._ops:
                # B value v is allowed at β iff the c profile matches
                # φ(1, v) and the d profile matches φ(0, v) there.
                allowed0 = allowed1 = full_b
                if c is not None:
                    allowed0 &= c if (code >> 1) & 1 else ~c
                    allowed1 &= c if (code >> 3) & 1 else ~c
                if d is not None:
                    allowed0 &= d if code & 1 else ~d
                    allowed1 &= d if (code >> 2) & 1 else ~d
                allowed0 &= full_b
                allowed1 &= full_b
                if (allowed0 | allowed1) != full_b:
                    continue
                forced = allowed1 & ~allowed0
                freem = allowed0 & allowed1
                if fb_local is not None:
                    # Pinned B: every non-free cell must carry its
                    # forced value.
                    if (
                        (freem | ~(fb_local ^ forced)) & full_b
                    ) == full_b:
                        descriptors.append((code, a_bits, fb_local, 0))
                    continue
                descriptors.append((code, a_bits, forced, freem))
        return descriptors

    def _finish_disjoint(
        self,
        shape: _Shape,
        gv_local: int,
        descriptors,
        fa_local: int | None,
        fb_local: int | None,
        canonical: bool,
    ) -> Iterator[tuple[int, int, int]]:
        """Expand descriptors into ``(code, a_local, b_local)`` tuples,
        applying admissibility prunes and the per-descriptor cap."""
        free_a = fa_local is None
        a_ok: dict[int, bool] = {}
        nu = shape.nu
        for code, a_bits, b_base, freem in descriptors:
            if free_a:
                ok = a_ok.get(a_bits)
                if ok is None:
                    ok = self._admissible_local(
                        a_bits, shape.a_pos, gv_local, nu
                    )
                    a_ok[a_bits] = ok
                if not ok:
                    continue
            if fb_local is not None:
                yield (code, a_bits, b_base)
                continue
            for b_bits in self._completions(
                b_base, freem, shape.b_pos, gv_local, nu, canonical
            ):
                yield (code, a_bits, b_bits)

    def _completions(
        self,
        forced: int,
        freem: int,
        child_pos: tuple[int, ...],
        gv_local: int,
        nu: int,
        canonical: bool,
    ) -> Iterator[int]:
        """Admissible free-child tables ``forced | subset``, one per
        subset of the free cells ``freem`` in ascending order, at most
        the cap of them.

        Under ``canonical`` the child must be normal: nothing comes out
        when ``forced`` sets cell 0, and cell 0 leaves the free mask,
        which drops exactly the odd tables and keeps the rest in order.
        """
        if canonical:
            if forced & 1:
                return
            freem &= ~1
        cells = []
        while freem:
            cells.append((freem & -freem).bit_length() - 1)
            freem &= freem - 1
        emitted = 0
        for combo in range(1 << len(cells)):
            bits = forced
            for j, cell in enumerate(cells):
                if (combo >> j) & 1:
                    bits |= 1 << cell
            if self._admissible_local(bits, child_pos, gv_local, nu):
                yield bits
                emitted += 1
                if emitted >= self._cap:
                    return

    # ------------------------------------------------------------------
    # shared cones with one child pinned: packed row masks
    # ------------------------------------------------------------------
    def _solve_shared_pinned(
        self,
        shape: _Shape,
        gv_local: int,
        fa_local: int | None,
        fb_local: int | None,
        canonical: bool,
    ) -> Iterator[tuple[int, int, int]]:
        """Shared-support factorization with exactly one child pinned.

        With (say) ``g_a`` known, each constraint involves exactly one
        unknown ``B_β`` cell, so the solution set is a per-cell domain
        intersection followed by a cartesian expansion of the cells
        left unconstrained — no search required.  The row verdicts are
        packed ints over the γ rows; a cell is forced when its γ-class
        mask intersects the failing rows of one value.
        """
        swap = fa_local is None
        if swap:
            pin = fb_local
            pin_rows = shape.b_expand(pin)
            class_masks = shape.aclass_masks
            free_pos = shape.a_pos
        else:
            pin = fa_local
            pin_rows = shape.a_expand(pin)
            class_masks = shape.bclass_masks
            free_pos = shape.b_pos
        full_g = shape.full_g
        npin_rows = ~pin_rows & full_g
        nu = shape.nu
        for code in self._ops:
            # out0/out1: the chain output per γ row when the free child
            # takes value 0/1 (row index of φ is (g_b << 1) | g_a).
            if swap:
                out0 = (pin_rows if (code >> 2) & 1 else 0) | (
                    npin_rows if code & 1 else 0
                )
                out1 = (pin_rows if (code >> 3) & 1 else 0) | (
                    npin_rows if (code >> 1) & 1 else 0
                )
            else:
                out0 = (pin_rows if (code >> 1) & 1 else 0) | (
                    npin_rows if code & 1 else 0
                )
                out1 = (pin_rows if (code >> 3) & 1 else 0) | (
                    npin_rows if (code >> 2) & 1 else 0
                )
            mis0 = out0 ^ gv_local
            mis1 = out1 ^ gv_local
            if mis0 & mis1:
                continue  # some row fails under both free values
            forced = 0
            freem = 0
            ok = True
            for cell, cls in enumerate(class_masks):
                fail0 = mis0 & cls  # value 0 fails on some class row
                fail1 = mis1 & cls  # value 1 fails on some class row
                if fail0:
                    if fail1:
                        ok = False
                        break
                    forced |= 1 << cell
                elif not fail1:
                    freem |= 1 << cell
            if not ok:
                continue
            for bits in self._completions(
                forced, freem, free_pos, gv_local, nu, canonical
            ):
                if swap:
                    yield (code, bits, pin)
                else:
                    yield (code, pin, bits)

    # ------------------------------------------------------------------
    # shared cones, both children free: cofactor product
    # ------------------------------------------------------------------
    def _solve_shared(
        self, gv_bits: int, shape: _Shape, canonical: bool
    ) -> Iterator[tuple[int, int, int]]:
        """Power-reduce factorization (shared variables) by shared-set
        cofactor split.

        For each assignment ``s`` of the shared variables the
        constraint rows touch only the ``s``-cofactors of the children,
        so per operator the solution set is the product over ``s`` of
        tiny independent subproblems (solved by
        :func:`_cofactor_solutions` and memoized on the cofactor
        β-profiles, which repeat heavily across demands).  Shapes with
        a wide private side fall back to the generic CSP."""
        info = shape.shared_info()
        if info is None:
            yield from self._solve_shared_csp(gv_bits, shape, canonical)
            return
        sh_count, sap, sbp, gbase, offa, offb, a_spread, b_spread = info
        fullb = (1 << sbp) - 1
        prof = []
        for s in range(sh_count):
            base = gbase[s]
            row = []
            for ap in range(sap):
                ba = base | offa[ap]
                p = 0
                for bp in range(sbp):
                    p |= ((gv_bits >> (ba | offb[bp])) & 1) << bp
                row.append(p)
            prof.append(tuple(row))
        memo = shape._cof_memo
        nu = shape.nu
        a_pos, b_pos = shape.a_pos, shape.b_pos
        cap = self._cap
        adm = self._admissible_local
        product = _product
        for code in self._ops:
            per_s = []
            for s in range(sh_count):
                pin = canonical and s == 0
                key = (code, prof[s], pin)
                sols = memo.get(key)
                if sols is None:
                    sols = _cofactor_solutions(code, prof[s], fullb, pin)
                    memo[key] = sols
                if not sols:
                    per_s = None
                    break
                per_s.append(sols)
            if per_s is None:
                continue
            emitted = 0
            for combo in product(*per_s):
                a_bits = 0
                b_bits = 0
                for s in range(sh_count):
                    ua, vb = combo[s]
                    a_bits |= a_spread[s][ua]
                    b_bits |= b_spread[s][vb]
                if not adm(a_bits, a_pos, gv_bits, nu):
                    continue
                if not adm(b_bits, b_pos, gv_bits, nu):
                    continue
                yield (code, a_bits, b_bits)
                emitted += 1
                if emitted >= cap:
                    break

    def _solve_shared_csp(
        self, gv_bits: int, shape: _Shape, canonical: bool
    ) -> Iterator[tuple[int, int, int]]:
        """Power-reduce factorization (shared variables) via a binary
        CSP solved with arc consistency + backtracking — the fallback
        for shapes too wide for the cofactor split, and the reference
        the fast path is differentially tested against.  Its branching
        can run far past a budget, so it polls the bound deadline."""
        deadline = self._deadline
        nu = shape.nu
        a_pos, b_pos = shape.a_pos, shape.b_pos
        size_a, size_b = shape.size_a, shape.size_b
        size_g = 1 << nu
        amap = shape.amap_list
        bmap = shape.bmap_list

        cons_a: list[list[tuple[int, int]]] = [[] for _ in range(size_a)]
        cons_b: list[list[tuple[int, int]]] = [[] for _ in range(size_b)]
        for gamma in range(size_g):
            t = (gv_bits >> gamma) & 1
            cons_a[amap[gamma]].append((bmap[gamma], t))
            cons_b[bmap[gamma]].append((amap[gamma], t))

        base_dom_a = [3] * size_a
        base_dom_b = [3] * size_b
        if canonical:
            # Pin both free children to normal polarity (value 0 on the
            # all-zero row); sound because every polarity orbit has a
            # normal member under a complement-closed operator set.
            base_dom_a[0] = 1
            base_dom_b[0] = 1

        g0 = gv_bits & 1
        a0_dom = base_dom_a[amap[0]]
        b0_dom = base_dom_b[bmap[0]]
        for code in self._ops:
            # Row-0 filter: some (u, v) allowed by the row-0 domains
            # must satisfy φ(u, v) = g_v(0), else skip the whole CSP.
            if not any(
                (a0_dom >> u) & 1
                and (b0_dom >> v) & 1
                and ((code >> ((v << 1) | u)) & 1) == g0
                for u in (0, 1)
                for v in (0, 1)
            ):
                continue
            rel = [
                [(code >> ((v << 1) | u)) & 1 for v in range(2)]
                for u in range(2)
            ]
            dom_a = base_dom_a[:]
            dom_b = base_dom_b[:]

            def propagate() -> bool:
                changed = True
                while changed:
                    changed = False
                    for alpha in range(size_a):
                        new = 0
                        d = dom_a[alpha]
                        for u in (0, 1):
                            if not (d >> u) & 1:
                                continue
                            ok = True
                            for beta, t in cons_a[alpha]:
                                db = dom_b[beta]
                                if not (
                                    (db & 1 and rel[u][0] == t)
                                    or (db & 2 and rel[u][1] == t)
                                ):
                                    ok = False
                                    break
                            if ok:
                                new |= 1 << u
                        if new != d:
                            if not new:
                                return False
                            dom_a[alpha] = new
                            changed = True
                    for beta in range(size_b):
                        new = 0
                        d = dom_b[beta]
                        for v in (0, 1):
                            if not (d >> v) & 1:
                                continue
                            ok = True
                            for alpha, t in cons_b[beta]:
                                da = dom_a[alpha]
                                if not (
                                    (da & 1 and rel[0][v] == t)
                                    or (da & 2 and rel[1][v] == t)
                                ):
                                    ok = False
                                    break
                            if ok:
                                new |= 1 << v
                        if new != d:
                            if not new:
                                return False
                            dom_b[beta] = new
                            changed = True
                return True

            if not propagate():
                continue

            emitted = 0

            def branch() -> Iterator[tuple[int, int]]:
                if deadline is not None:
                    deadline.check(every=16)
                for alpha in range(size_a):
                    if dom_a[alpha] == 3:
                        for u in (0, 1):
                            saved_a, saved_b = dom_a[:], dom_b[:]
                            dom_a[alpha] = 1 << u
                            if propagate():
                                yield from branch()
                            dom_a[:], dom_b[:] = saved_a, saved_b
                        return
                for beta in range(size_b):
                    if dom_b[beta] == 3:
                        for v in (0, 1):
                            saved_a, saved_b = dom_a[:], dom_b[:]
                            dom_b[beta] = 1 << v
                            if propagate():
                                yield from branch()
                            dom_a[:], dom_b[:] = saved_a, saved_b
                        return
                a_bits = 0
                for alpha in range(size_a):
                    if dom_a[alpha] == 2:
                        a_bits |= 1 << alpha
                b_bits = 0
                for beta in range(size_b):
                    if dom_b[beta] == 2:
                        b_bits |= 1 << beta
                yield (a_bits, b_bits)

            for a_bits, b_bits in branch():
                if not self._admissible_local(
                    a_bits, a_pos, gv_bits, nu
                ):
                    continue
                if not self._admissible_local(
                    b_bits, b_pos, gv_bits, nu
                ):
                    continue
                yield (code, a_bits, b_bits)
                emitted += 1
                if emitted >= self._cap:
                    break


def _cofactor_solutions(
    code: int, profs: tuple[int, ...], fullb: int, pin: bool
) -> tuple[tuple[int, int], ...]:
    """All ``(ua, vb)`` cofactor pairs of one shared-split subproblem.

    ``profs[α']`` packs the demanded bits over the β' cells for free-A
    assignment α'; the subproblem asks for a bit per α' (the
    ``g_a``-cofactor ``ua``) and a β'-profile ``vb`` (the
    ``g_b``-cofactor) with ``φ_code(ua_{α'}, vb_{β'}) = profs[α'][β']``
    everywhere.  Per α' each choice of ``u`` either pins ``vb`` to one
    value (operator row acts as identity/negation) or leaves it free
    (constant row, feasible only if the profile is that constant), so
    the solutions enumerate by candidate ``vb`` value plus one
    all-rows-constant regime where ``vb`` ranges freely.  ``pin``
    forces normal polarity on both cofactors (the all-zero cells),
    matching the CSP's canonical domains.
    """
    rows = (
        ((code >> 0) & 1, (code >> 2) & 1),
        ((code >> 1) & 1, (code >> 3) & 1),
    )
    opt = []
    for ap, p in enumerate(profs):
        o = []
        for u in (0, 1):
            if pin and ap == 0 and u == 1:
                continue
            c0, c1 = rows[u]
            if c0 == c1:
                if p == (fullb if c0 else 0):
                    o.append((u, None))
            elif c1:
                o.append((u, p))  # row is the identity in v
            else:
                o.append((u, p ^ fullb))  # row negates v
        if not o:
            return ()
        opt.append(o)
    sols = []
    const_opts = [tuple(u for u, vc in o if vc is None) for o in opt]
    if all(const_opts):
        # No chosen row constrains vb: it ranges over every profile
        # (even ones only, when pinned to normal polarity).
        for combo in _product(*const_opts):
            ua = 0
            for ap, u in enumerate(combo):
                ua |= u << ap
            for vb in range(0, fullb + 1, 2 if pin else 1):
                sols.append((ua, vb))
    cands = {vc for o in opt for u, vc in o if vc is not None}
    for vb in sorted(cands):
        if pin and vb & 1:
            continue
        per = []
        for o in opt:
            us = tuple(
                (u, vc is None)
                for u, vc in o
                if vc is None or vc == vb
            )
            if not us:
                per = None
                break
            per.append(us)
        if per is None:
            continue
        for combo in _product(*per):
            ua = 0
            allconst = True
            for ap, (u, isc) in enumerate(combo):
                ua |= u << ap
                if not isc:
                    allconst = False
            if allconst:
                continue  # counted under the free-vb regime above
            sols.append((ua, vb))
    return tuple(sols)


_ADM_BASE: dict[tuple[int, tuple[int, ...], int], int] = {}


def _admissible_base(
    child_bits: int, child_pos: tuple[int, ...], nu: int
) -> int:
    """Demand-independent part of the minimality prunes: ``-1`` when
    the child table is constant or a bare (complemented) projection,
    else its expansion onto the union-local row space."""
    nc = len(child_pos)
    full = (1 << (1 << nc)) - 1
    if child_bits == 0 or child_bits == full:
        return -1
    support = 0
    for i in range(nc):
        if _local_depends(child_bits, nc, i):
            support += 1
            if support > 1:
                break
    if support <= 1:
        return -1
    return expand_positions(child_bits, child_pos, nu)


def _local_depends(bits: int, num_vars: int, var: int) -> bool:
    """Does a local table depend on local variable ``var``?"""
    mask = var_mask(var, num_vars)
    shift = 1 << var
    hi = (bits & mask) >> shift
    lo = bits & (mask >> shift)
    return hi != lo
