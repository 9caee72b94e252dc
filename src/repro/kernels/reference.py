"""Reference (pre-kernel) pure-Python implementations.

Verbatim relocations of the tuple-cube AllSAT solver, the loop-based
quartering/column grouping, the per-row truth-table manipulations, the
per-row chain/network/cut simulation loops, the ``flip_signal``
polarity closures and the chain-building NPN transforms that the kernel
layer and the chain record replaced, plus the per-β disjoint-cone
solver, the oracle of the factorization engine's quartering check.
They exist for two reasons only:

* the randomized old-vs-new equivalence tests in
  ``tests/test_kernels.py`` compare every kernel against its original;
* ``benchmarks/bench_kernels.py`` measures the speedup against them,
  so ``BENCH_kernels_npn4.json`` records old *and* new timings.

Nothing in the synthesis path imports this module.  The simulation
references take and return the repository's own objects (truth tables,
chains, networks), imported inside the functions so that the kernel
package itself still imports nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "merge_cubes_ref",
    "merge_cube_sets_ref",
    "chain_all_sat_ref",
    "cubes_to_onset_ref",
    "verify_chain_ref",
    "quartering_blocks_ref",
    "solve_disjoint_ref",
    "permute_bits_ref",
    "cofactor_bits_ref",
    "support_bits_ref",
    "npn_apply_ref",
    "stp_assignments_ref",
    "compose_ref",
    "simulate_signals_ref",
    "canonicalize_dont_cares_ref",
    "simulate_nodes_ref",
    "cut_function_ref",
    "polarity_closure_ref",
    "npn_transform_chain_ref",
    "npn_transform_chain_multi_ref",
]

_FREE = None


def merge_cubes_ref(c1: tuple, c2: tuple) -> tuple | None:
    """Original cube merge: per-PI loop, None on conflict."""
    merged = []
    for v1, v2 in zip(c1, c2):
        if v1 is _FREE:
            merged.append(v2)
        elif v2 is _FREE or v1 == v2:
            merged.append(v1)
        else:
            return None
    return tuple(merged)


def merge_cube_sets_ref(
    set1: Iterable[tuple], set2: Iterable[tuple]
) -> set[tuple]:
    """Original MERGE: pairwise tuple combination."""
    result: set[tuple] = set()
    list2 = list(set2)
    for c1 in set1:
        for c2 in list2:
            merged = merge_cubes_ref(c1, c2)
            if merged is not None:
                result.add(merged)
    return result


def _traverse_ref(chain, signal: int, target: int, memo: dict) -> frozenset:
    key = (signal, target)
    cached = memo.get(key)
    if cached is not None:
        return cached
    n = chain.num_inputs
    if chain.is_input(signal):
        cube = tuple(target if i == signal else _FREE for i in range(n))
        result = frozenset((cube,))
        memo[key] = result
        return result
    gate = chain.gate(signal)
    solutions: set[tuple] = set()
    arity = gate.arity
    for row in range(1 << arity):
        if ((gate.op >> row) & 1) != target:
            continue
        partial: set[tuple] = {tuple([_FREE] * n)}
        for i, fanin in enumerate(gate.fanins):
            child_target = (row >> i) & 1
            child_cubes = _traverse_ref(chain, fanin, child_target, memo)
            partial = merge_cube_sets_ref(partial, child_cubes)
            if not partial:
                break
        solutions.update(partial)
    result = frozenset(solutions)
    memo[key] = result
    return result


def chain_all_sat_ref(
    chain, targets: Sequence[int] | None = None
) -> set[tuple]:
    """Original tuple-cube Algorithm 1."""
    outputs = chain.outputs
    if not outputs:
        raise ValueError("chain has no outputs")
    if targets is None:
        targets = [1] * len(outputs)
    if len(targets) != len(outputs):
        raise ValueError("one target per output required")
    memo: dict = {}
    n = chain.num_inputs
    solutions: set[tuple] = {tuple([_FREE] * n)}
    for (signal, complemented), target in zip(outputs, targets):
        node_target = target ^ int(complemented)
        po_cubes = _traverse_ref(chain, signal, node_target, memo)
        solutions = merge_cube_sets_ref(solutions, po_cubes)
        if not solutions:
            break
    return solutions


def cubes_to_onset_ref(cubes: Iterable[tuple], num_inputs: int) -> int:
    """Original onset expansion: nested per-combination Python loop."""
    onset = 0
    for cube in cubes:
        free = [i for i, v in enumerate(cube) if v is _FREE]
        base = 0
        for i, v in enumerate(cube):
            if v == 1:
                base |= 1 << i
        for combo in range(1 << len(free)):
            row = base
            for j, var in enumerate(free):
                if (combo >> j) & 1:
                    row |= 1 << var
            onset |= 1 << row
    return onset


def verify_chain_ref(chain, target) -> bool:
    """Original verification: tuple AllSAT expanded to the onset."""
    if target.num_vars != chain.num_inputs:
        raise ValueError("arity mismatch between chain and target")
    cubes = chain_all_sat_ref(chain)
    return cubes_to_onset_ref(cubes, chain.num_inputs) == target.bits


def quartering_blocks_ref(
    gv_bits: int, gamma_of: Sequence[Sequence[int]], size_b: int
) -> list[int]:
    """Original column-block construction: per-(α, β) bit loop.

    Returns one β-profile bitmask per α, as the old ``_solve_disjoint``
    built before grouping.
    """
    blocks = []
    for row in gamma_of:
        bits = 0
        for beta in range(size_b):
            if (gv_bits >> row[beta]) & 1:
                bits |= 1 << beta
        blocks.append(bits)
    return blocks


def solve_disjoint_ref(
    gv_bits: int,
    gamma_of: Sequence[Sequence[int]],
    ops: Sequence[int],
    fixed_a: int | None = None,
    fixed_b: int | None = None,
    canonical: bool = True,
) -> list[tuple[int, int, int, int]]:
    """One-demand disjoint-cone solver, per-β Python loops throughout.

    The oracle for ``FactorizationEngine._disjoint_descriptors``:
    identical ``(op_code, a_bits, forced_b, free_b_mask)`` descriptors
    in identical order (candidate A-polarity outer, ``ops`` order
    inner), derived with the pre-kernel row-at-a-time constraint scan
    instead of packed-mask operations.
    """
    size_a = len(gamma_of)
    size_b = len(gamma_of[0])
    profiles = quartering_blocks_ref(gv_bits, gamma_of, size_b)

    # Candidate (viable, a_bits, c_profile, d_profile, has1, has0)
    # tuples: c constrains the rows where the A-child is 1, d the rows
    # where it is 0; hasX disables the side with no rows.
    candidates = []
    if fixed_a is None:
        d_val = profiles[0]
        lo, hi = min(profiles), max(profiles)
        two = lo != hi and all(p in (lo, hi) for p in profiles)
        c_val = lo + hi - d_val
        a_bits = 0
        for alpha, p in enumerate(profiles):
            if p != d_val:
                a_bits |= 1 << alpha
        candidates.append((two, a_bits, c_val, d_val, True, True))
        if not canonical:
            full_a = (1 << size_a) - 1
            candidates.append(
                (two, full_a - a_bits, d_val, c_val, True, True)
            )
    else:
        ones = [a for a in range(size_a) if (fixed_a >> a) & 1]
        zeros = [a for a in range(size_a) if not (fixed_a >> a) & 1]
        c_val = profiles[ones[0]] if ones else profiles[0]
        d_val = profiles[zeros[0]] if zeros else profiles[0]
        uniform = all(profiles[a] == c_val for a in ones) and all(
            profiles[a] == d_val for a in zeros
        )
        candidates.append(
            (uniform, fixed_a, c_val, d_val, bool(ones), bool(zeros))
        )

    out: list[tuple[int, int, int, int]] = []
    for viable, a_bits, c_val, d_val, has1, has0 in candidates:
        for code in ops:
            # B value v is allowed at β iff the c profile matches
            # φ(1, v) and the d profile matches φ(0, v) there.
            forced = 0
            freem = 0
            sat = viable
            for beta in range(size_b):
                c_bit = (c_val >> beta) & 1
                d_bit = (d_val >> beta) & 1
                allowed = []
                for v in (0, 1):
                    ok = not has1 or c_bit == (code >> ((v << 1) | 1)) & 1
                    ok = ok and (
                        not has0 or d_bit == (code >> (v << 1)) & 1
                    )
                    allowed.append(ok)
                if not (allowed[0] or allowed[1]):
                    sat = False
                    break
                if allowed[0] and allowed[1]:
                    freem |= 1 << beta
                elif allowed[1]:
                    forced |= 1 << beta
            if not sat:
                continue
            if fixed_b is not None:
                mask = (1 << size_b) - 1
                agree = freem | (mask & ~(fixed_b ^ forced))
                if agree != mask:
                    continue
                out.append((code, a_bits, fixed_b, 0))
            else:
                out.append((code, a_bits, forced, freem))
    return out


def permute_bits_ref(bits: int, num_vars: int, perm: Sequence[int]) -> int:
    """Original per-row permutation loop."""
    out = 0
    for m in range(1 << num_vars):
        if (bits >> m) & 1:
            m2 = 0
            for i in range(num_vars):
                if (m >> i) & 1:
                    m2 |= 1 << perm[i]
            out |= 1 << m2
    return out


def cofactor_bits_ref(bits: int, num_vars: int, var: int, value: int) -> int:
    """Row-by-row cofactor oracle (deliberately naive)."""
    out = 0
    for m in range(1 << num_vars):
        src = (m | (1 << var)) if value else (m & ~(1 << var))
        if (bits >> src) & 1:
            out |= 1 << m
    return out


def support_bits_ref(bits: int, num_vars: int) -> tuple[int, ...]:
    """Support via naive cofactor comparison."""
    return tuple(
        v
        for v in range(num_vars)
        if cofactor_bits_ref(bits, num_vars, v, 0)
        != cofactor_bits_ref(bits, num_vars, v, 1)
    )


def npn_apply_ref(
    bits: int,
    num_vars: int,
    perm: Sequence[int],
    input_flips: int,
    output_flip: bool,
) -> int:
    """Original per-row NPN transform application."""
    out = 0
    for row in range(1 << num_vars):
        src = 0
        for i in range(num_vars):
            x_i = ((row >> perm[i]) & 1) ^ ((input_flips >> i) & 1)
            src |= x_i << i
        v = ((bits >> src) & 1) ^ int(output_flip)
        if v:
            out |= 1 << row
    return out


def stp_assignments_ref(top_row, num_vars: int) -> list[tuple[int, ...]]:
    """Original recursive halving descent over a canonical-form row."""
    out: list[tuple[int, ...]] = []

    def descend(lo: int, hi: int, prefix: tuple[int, ...]) -> None:
        if not any(top_row[lo:hi]):
            return
        if hi - lo == 1:
            out.append(prefix)
            return
        mid = (lo + hi) // 2
        descend(lo, mid, prefix + (1,))
        descend(mid, hi, prefix + (0,))

    descend(0, len(top_row), ())
    return out


def compose_ref(table, inner):
    """Original ``TruthTable.compose``: one pass per row of the inner
    space, assembling each row's outer input bit by bit."""
    from ..truthtable.table import TruthTable

    if len(inner) != table.num_vars:
        raise ValueError(
            f"need {table.num_vars} inner functions, got {len(inner)}"
        )
    if not inner:
        return TruthTable(table.bits, 0)
    n_inner = inner[0].num_vars
    for g in inner:
        if g.num_vars != n_inner:
            raise ValueError("inner functions disagree on variable count")
    bits = 0
    for m in range(1 << n_inner):
        row = 0
        for i, g in enumerate(inner):
            if (g.bits >> m) & 1:
                row |= 1 << i
        if (table.bits >> row) & 1:
            bits |= 1 << m
    return TruthTable(bits, n_inner)


def simulate_signals_ref(chain):
    """Original ``BooleanChain.simulate_signals``: one per-row
    composition per gate."""
    from ..truthtable.table import projection

    tables = [
        projection(v, chain.num_inputs) for v in range(chain.num_inputs)
    ]
    for gate in chain.gates:
        local = gate.local_table()
        tables.append(compose_ref(local, [tables[f] for f in gate.fanins]))
    return tables


def canonicalize_dont_cares_ref(chain):
    """Original ``canonicalize_dont_cares``: every gate's reachable
    local rows collected one input row at a time."""
    from ..chain.chain import BooleanChain

    tables = simulate_signals_ref(chain)
    fixed = BooleanChain(chain.num_inputs)
    for gate in chain.gates:
        reachable = 0
        child = [tables[f] for f in gate.fanins]
        for m in range(1 << chain.num_inputs):
            row = 0
            for i, t in enumerate(child):
                row |= t.value(m) << i
            reachable |= 1 << row
        fixed.add_gate(gate.op & reachable, gate.fanins)
    for signal, complemented in chain.outputs:
        fixed.set_output(signal, complemented)
    return fixed


def simulate_nodes_ref(network) -> dict[int, int]:
    """Original ``LogicNetwork.simulate_nodes``: every PI pattern and
    every node value assembled row by row."""
    n = len(network.pis)
    if n > 16:
        raise ValueError("bit-parallel simulation capped at 16 PIs")
    rows = 1 << n
    patterns: dict[int, int] = {}
    pi_index = {uid: i for i, uid in enumerate(network.pis)}
    for uid in network.topological_order():
        node = network.node(uid)
        if node.is_pi:
            i = pi_index[uid]
            pattern = 0
            for m in range(rows):
                if (m >> i) & 1:
                    pattern |= 1 << m
            patterns[uid] = pattern
        else:
            fanin_patterns = [patterns[f] for f in node.fanins]
            pattern = 0
            for m in range(rows):
                row = 0
                for j, fp in enumerate(fanin_patterns):
                    row |= ((fp >> m) & 1) << j
                if node.function.value(row):
                    pattern |= 1 << m
            patterns[uid] = pattern
    return patterns


def cut_function_ref(network, cut):
    """Original ``cut_function``: the cone simulated row by row over
    the cut leaves."""
    from ..truthtable.table import TruthTable

    k = cut.size
    rows = 1 << k
    patterns: dict[int, int] = {}
    for i, leaf in enumerate(cut.leaves):
        pattern = 0
        for m in range(rows):
            if (m >> i) & 1:
                pattern |= 1 << m
        patterns[leaf] = pattern

    def value_of(uid: int) -> int:
        cached = patterns.get(uid)
        if cached is not None:
            return cached
        node = network.node(uid)
        if node.is_pi:
            raise ValueError(
                f"PI {uid} reached outside the cut {cut.leaves}"
            )
        fanin_patterns = [value_of(f) for f in node.fanins]
        pattern = 0
        for m in range(rows):
            row = 0
            for j, fp in enumerate(fanin_patterns):
                row |= ((fp >> m) & 1) << j
            if node.function.value(row):
                pattern |= 1 << m
        patterns[uid] = pattern
        return pattern

    return TruthTable(value_of(cut.root), k)


def polarity_closure_ref(
    base,
    seen: set,
    *,
    canonicalize: bool = True,
    max_combos: int | None = None,
    target=None,
    deadline=None,
):
    """The original polarity closures (the pipeline's
    ``_expand_polarities`` and ``HierarchicalSynthesizer.
    _polarity_closure``) under the contract of
    :func:`repro.chain.transform.polarity_closure`: every variant is
    rebuilt through one ``flip_signal`` per complemented signal,
    simulated again against ``target`` and canonicalized row by row."""
    from ..chain.transform import flip_signal

    output_signal = base.outputs[0][0]
    flippable = [
        base.num_inputs + i
        for i in range(base.num_gates)
        if base.num_inputs + i != output_signal
    ]
    combos = 1 << len(flippable)
    if max_combos is not None:
        combos = min(combos, max_combos)
    for combo in range(combos):
        if deadline is not None:
            deadline.check(every=32)
        variant = base
        for j, signal in enumerate(flippable):
            if (combo >> j) & 1:
                variant = flip_signal(variant, signal)
        if (
            target is not None
            and combo
            and variant.simulate_output() != target
        ):
            raise AssertionError("polarity variant changed the function")
        if canonicalize:
            variant = canonicalize_dont_cares_ref(variant)
        key = variant.signature()
        if key in seen:
            continue
        seen.add(key)
        yield variant


def npn_transform_chain_ref(chain, transform):
    """A chain computing ``transform.apply(f)`` from one computing ``f``.

    ``g(y) = f(x) ^ out`` with ``x_i = y_{perm[i]} ^ flips_i``, so the
    rewrite permutes the input signals, absorbs each input complement
    into the reading gates' codes (and the output flag for direct
    input outputs), and XORs the output complement flag.  Gate count is
    unchanged, making this the bijection that maps the optimal solution
    set of an NPN class representative onto any orbit member's.
    """
    from ..chain.chain import BooleanChain
    from ..chain.transform import _flip_code_input

    n = chain.num_inputs
    perm = transform.perm
    flips = transform.input_flips
    if len(perm) != n:
        raise ValueError("transform arity does not match chain")

    def remap(signal: int) -> int:
        if signal != BooleanChain.CONST0 and signal < n:
            return perm[signal]
        return signal

    rewritten = BooleanChain(n)
    for gate in chain.gates:
        code = gate.op
        for pos, fanin in enumerate(gate.fanins):
            if fanin != BooleanChain.CONST0 and fanin < n:
                if (flips >> fanin) & 1:
                    code = _flip_code_input(code, gate.arity, pos)
        rewritten.add_gate(code, tuple(remap(f) for f in gate.fanins))
    for signal, complemented in chain.outputs:
        flipped_input = (
            signal != BooleanChain.CONST0
            and signal < n
            and bool((flips >> signal) & 1)
        )
        rewritten.set_output(
            remap(signal),
            complemented ^ flipped_input ^ bool(transform.output_flip),
        )
    return rewritten


def npn_transform_chain_multi_ref(chain, perm, flips, output_flips):
    """Rewrite a multi-output chain through an NPN transform with one
    shared input permutation/negation (``perm``, ``flips``) and
    a *per-output* negation flag (``output_flips``).

    Same absorption rules as :func:`npn_transform_chain_ref` — the
    gate codes swallow the input complements, the output flags swallow
    the rest — so gate count is preserved.  The reference for
    :func:`~repro.chain.transform.npn_transform_record`'s per-output
    flips.
    """
    from ..chain.chain import BooleanChain
    from ..chain.transform import _flip_code_input

    n = chain.num_inputs
    if len(perm) != n:
        raise ValueError("transform arity does not match chain")
    if len(output_flips) != len(chain.outputs):
        raise ValueError("transform output count does not match chain")

    def remap(signal: int) -> int:
        if signal != BooleanChain.CONST0 and signal < n:
            return perm[signal]
        return signal

    rewritten = BooleanChain(n)
    for gate in chain.gates:
        code = gate.op
        for pos, fanin in enumerate(gate.fanins):
            if fanin != BooleanChain.CONST0 and fanin < n:
                if (flips >> fanin) & 1:
                    code = _flip_code_input(code, gate.arity, pos)
        rewritten.add_gate(code, tuple(remap(f) for f in gate.fanins))
    for (signal, complemented), out_flip in zip(
        chain.outputs, output_flips
    ):
        flipped_input = (
            signal != BooleanChain.CONST0
            and signal < n
            and bool((flips >> signal) & 1)
        )
        rewritten.set_output(
            remap(signal), complemented ^ flipped_input ^ bool(out_flip)
        )
    return rewritten
