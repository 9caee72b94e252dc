"""Chain rewrites shared by the synthesizers.

Exact synthesis engines work over the *functional support* of the
target; these helpers shrink a function to its support and lift the
resulting chains back to the original input space.  The polarity
machinery rewrites chains by complementing internal signals — gate
codes absorb the complement, so every variant realises the same
function with the same gate count (a large part of the paper's
"all optimal solutions" sets).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from ..kernels import FLIP_INPUT0, FLIP_INPUT1, MAX_LUT_INPUTS, lut_apply
from ..truthtable.table import TruthTable
from .chain import BooleanChain

__all__ = [
    "shrink_to_support",
    "lift_chain",
    "trivial_chain",
    "flip_signal",
    "polarity_closure",
    "polarity_variants",
    "npn_transform_record",
    "npn_transform_chain",
]


def shrink_to_support(f: TruthTable) -> tuple[TruthTable, tuple[int, ...]]:
    """Project ``f`` onto its support; local variable ``i`` corresponds
    to original variable ``support[i]``."""
    support = f.support()
    local = f
    for v in reversed(range(f.num_vars)):
        if v not in support:
            local = local.remove_vacuous_variable(v)
    return local, support


def lift_chain(
    chain: BooleanChain, num_vars: int, support: tuple[int, ...]
) -> BooleanChain:
    """Re-express a support-local chain over the original inputs."""
    s = len(support)
    lifted = BooleanChain(num_vars)

    def remap(signal: int) -> int:
        if signal == BooleanChain.CONST0:
            return signal
        if signal < s:
            return support[signal]
        return num_vars + (signal - s)

    for gate in chain.gates:
        lifted.add_gate(gate.op, tuple(remap(f) for f in gate.fanins))
    for signal, complemented in chain.outputs:
        lifted.set_output(remap(signal), complemented)
    return lifted


def trivial_chain(f: TruthTable) -> BooleanChain | None:
    """Zero-gate realisations: constants and (inverted) projections."""
    n = f.num_vars
    support = f.support()
    if not support:
        chain = BooleanChain(n)
        chain.set_output(BooleanChain.CONST0, complemented=bool(f.bits & 1))
        return chain
    if len(support) == 1:
        var = support[0]
        chain = BooleanChain(n)
        complemented = f.value(0) == 1
        chain.set_output(var, complemented)
        return chain
    return None


def _flip_code_input(code: int, arity: int, position: int) -> int:
    """Gate code with local input ``position`` complemented."""
    if arity == 2:
        return (FLIP_INPUT1 if position else FLIP_INPUT0)[code]
    out = 0
    for row in range(1 << arity):
        if (code >> (row ^ (1 << position))) & 1:
            out |= 1 << row
    return out


def flip_signal(chain: BooleanChain, signal: int) -> BooleanChain:
    """Complement an internal signal, absorbing the inversion into the
    driving gate's code and every reader's code — the chain's outputs
    are unchanged."""
    if chain.is_input(signal):
        raise ValueError("primary inputs cannot be flipped")
    flipped = BooleanChain(chain.num_inputs)
    for i, gate in enumerate(chain.gates):
        current = chain.num_inputs + i
        code = gate.op
        if current == signal:
            code ^= (1 << (1 << gate.arity)) - 1
        for pos, fanin in enumerate(gate.fanins):
            if fanin == signal:
                code = _flip_code_input(code, gate.arity, pos)
        flipped.add_gate(code, gate.fanins)
    for out_signal, complemented in chain.outputs:
        flipped.set_output(
            out_signal, complemented ^ (out_signal == signal)
        )
    return flipped


def polarity_closure(
    base: BooleanChain,
    seen: set[tuple],
    *,
    canonicalize: bool = True,
    max_combos: int | None = None,
    target: TruthTable | None = None,
    deadline=None,
) -> Iterator[BooleanChain]:
    """The polarity variants of ``base`` whose signatures are not in
    ``seen`` (each one is added to it), in combination order.

    Combination ``c`` complements, as :func:`flip_signal` would, every
    gate signal except the first output's with bit ``j`` of ``c`` set
    (``j`` counts those signals in order); ``max_combos`` caps how
    many combinations are tried.  With ``canonicalize`` each variant
    comes out as :func:`~repro.core.pipeline.canonicalize_dont_cares`
    would return it.  With ``target`` every combination but the first
    is simulated and must compute ``target`` on the first output.
    ``deadline.check(every=32)`` is polled once per combination.

    The base chain is simulated once.  Complementing a set ``S`` of
    signals complements exactly their patterns, so gate ``g``'s
    variant code is its base code ``C_g`` with the inputs read from
    ``S`` complemented, XOR-ed with the full mask when ``g`` is in
    ``S``; its reachable rows are the base rows ``R_g`` under the same
    input complement.  Both are table lookups by the input-flip mask,
    and a variant's chain is built only when its signature is new.
    """
    n = base.num_inputs
    outputs = base.outputs
    patterns, reachable = base.simulate_packed()
    flippable = [
        n + i for i in range(base.num_gates) if n + i != outputs[0][0]
    ]
    bit_of = {signal: 1 << j for j, signal in enumerate(flippable)}
    mask = (1 << (1 << n)) - 1
    gates = []
    for i, gate in enumerate(base.gates):
        full = (1 << (1 << gate.arity)) - 1
        codes = [gate.op]
        keeps = [reachable[i] if canonicalize else full]
        for pos in range(gate.arity):
            codes += [_flip_code_input(c, gate.arity, pos) for c in codes]
            keeps += [_flip_code_input(k, gate.arity, pos) for k in keeps]
        reads = tuple(
            (bit_of[f], 1 << pos)
            for pos, f in enumerate(gate.fanins)
            if f in bit_of
        )
        gates.append(
            (codes, keeps, full, reads, bit_of.get(n + i, 0), gate.fanins)
        )
    output_bits = [
        (signal, complemented, bit_of.get(signal, 0))
        for signal, complemented in outputs
    ]
    combos = 1 << len(flippable)
    if max_combos is not None:
        combos = min(combos, max_combos)
    for combo in range(combos):
        if deadline is not None:
            deadline.check(every=32)
        flipped_codes = []
        variant_gates = []
        for codes, keeps, full, reads, own, fanins in gates:
            flips = 0
            for bit, pos_bit in reads:
                if combo & bit:
                    flips |= pos_bit
            code = codes[flips] ^ full if combo & own else codes[flips]
            flipped_codes.append(code)
            variant_gates.append((code & keeps[flips], fanins))
        variant_outputs = tuple(
            (signal, complemented ^ bool(combo & bit))
            for signal, complemented, bit in output_bits
        )
        if target is not None and combo:
            signals = patterns[:n]
            for code, (_, fanins) in zip(flipped_codes, variant_gates):
                signals.append(
                    lut_apply(code, [signals[f] for f in fanins], mask)[0]
                )
            signal, complemented = variant_outputs[0]
            value = 0 if signal == BooleanChain.CONST0 else signals[signal]
            if TruthTable(value ^ (mask if complemented else 0), n) != target:
                raise AssertionError("polarity variant changed the function")
        key = (n, tuple(variant_gates), variant_outputs)
        if key in seen:
            continue
        seen.add(key)
        variant = BooleanChain(n)
        for code, fanins in variant_gates:
            variant.add_gate(code, fanins)
        for signal, complemented in variant_outputs:
            variant.set_output(signal, complemented)
        yield variant


def npn_transform_record(
    record: tuple,
    perm: Sequence[int],
    input_flips: int,
    output_flips: Sequence[bool],
) -> tuple:
    """The chain record computing an NPN image of ``record``'s outputs.

    ``record`` is a :meth:`~repro.chain.BooleanChain.signature` tuple
    computing ``f``; the result computes ``g_j(y) = f_j(x) ^
    output_flips[j]`` with ``x_i = y_{perm[i]} ^ flips_i``.  The
    rewrite permutes the input signals, absorbs each input complement
    into the reading gates' codes (and the output flag for direct
    input outputs), and XORs the output complement flags.  Gate count
    is unchanged, making this the bijection that maps the optimal
    solution set of an NPN class representative onto any orbit
    member's.

    Only in-range fanins, outputs and op codes are rewritten, so a
    malformed record stays malformed (and fails
    :func:`~repro.kernels.check_solution_set`) rather than wrapping a
    negative index into a valid one, and a gate wider than
    :data:`~repro.kernels.MAX_LUT_INPUTS` costs no ``2**arity`` work.
    """
    n, gates, outputs = record
    if len(perm) != n:
        raise ValueError("transform arity does not match chain")
    if len(output_flips) != len(outputs):
        raise ValueError("transform output count does not match chain")
    rewritten = []
    for code, fanins in gates:
        arity = len(fanins)
        well_formed = arity <= MAX_LUT_INPUTS and 0 <= code < 1 << (1 << arity)
        remapped = []
        for pos, fanin in enumerate(fanins):
            if 0 <= fanin < n:
                remapped.append(perm[fanin])
                if well_formed and (input_flips >> fanin) & 1:
                    code = _flip_code_input(code, arity, pos)
            else:
                remapped.append(fanin)
        rewritten.append((code, tuple(remapped)))
    return (
        n,
        tuple(rewritten),
        tuple(
            (
                perm[signal] if 0 <= signal < n else signal,
                complemented
                ^ (0 <= signal < n and bool((input_flips >> signal) & 1))
                ^ bool(out_flip),
            )
            for (signal, complemented), out_flip in zip(
                outputs, output_flips
            )
        ),
    )


def npn_transform_chain(chain: BooleanChain, transform) -> BooleanChain:
    """A chain computing ``transform.apply(f)`` from one computing ``f``
    (:func:`npn_transform_record`), for a one-output chain and an
    :class:`~repro.truthtable.npn.NPNTransform`."""
    return BooleanChain.from_record(
        npn_transform_record(
            chain.signature(),
            transform.perm,
            transform.input_flips,
            (transform.output_flip,),
        )
    )


def polarity_variants(
    chain: BooleanChain, max_variants: int | None = None
) -> Iterator[BooleanChain]:
    """All polarity rewrites of a chain (the chain itself first).

    Every subset of internal gate signals is complemented in turn;
    each variant computes the same outputs with the same gate count.
    Output-driving signals are included (the output complement flag
    absorbs them).  ``2**num_gates`` variants exist; cap with
    ``max_variants``.
    """
    signals = [
        chain.num_inputs + i for i in range(chain.num_gates)
    ]
    emitted = 0
    for size in range(len(signals) + 1):
        for subset in combinations(signals, size):
            variant = chain
            for signal in subset:
                variant = flip_signal(variant, signal)
            yield variant
            emitted += 1
            if max_variants is not None and emitted >= max_variants:
                return
