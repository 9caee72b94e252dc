"""Hierarchical STP synthesis: DSD-guided factorization with exact
synthesis of prime blocks.

The STP quartering criterion (Section III-B) factors disjoint-support
structure *greedily and deterministically* — exactly what makes the
paper's method fast on the FDSD/PDSD suites: a fully DSD-decomposable
function factors all the way down to single variables without any
search, and a partially decomposable one factors down to small prime
blocks that the DAG-based engine then synthesizes exactly.

The resulting chain is optimal whenever the DSD skeleton is
optimal-compatible (always true for fully-DSD functions, whose optimum
is the read-once tree with ``support - 1`` gates).  The solution *set*
is generated as (product of prime-block solution sets) × (all internal
polarity variants), mirroring the all-solutions semantics of the flat
engine within the fixed DSD skeleton.

Prime blocks are dispatched through the engine registry
(:mod:`repro.engine`), each in a child
:class:`~repro.core.context.SynthesisContext` so sub-deadlines nest
under the run's budget, the cross-call caches are shared, and prime
stats merge back without double counting.
"""

from __future__ import annotations

import time
from itertools import product as iter_product
from typing import Sequence

from ..chain.chain import BooleanChain
from ..chain.transform import (
    _flip_code_input,
    lift_chain,
    polarity_closure,
    shrink_to_support,
    trivial_chain,
)
from ..truthtable.dsd import DSDNode, dsd_decompose
from ..truthtable.operations import NONTRIVIAL_BINARY_OPS
from ..truthtable.table import TruthTable
from .context import SynthesisContext
from .pipeline import canonicalize_dont_cares
from .spec import SynthesisResult, SynthesisSpec

__all__ = ["HierarchicalSynthesizer", "hierarchical_synthesize"]


class HierarchicalSynthesizer:
    """DSD-first exact synthesis (the STP fast path).

    Parameters
    ----------
    operators:
        Allowed 2-input codes, handed to the prime-block engine.
    max_solutions:
        Cap on the returned solution set.
    all_solutions:
        When False only the base chain is returned.
    prime_synthesizer:
        Optional explicit engine object for non-decomposable blocks
        (anything with the ``synthesize(function, timeout=...)``
        signature); overrides ``prime_engine``.
    prime_engine:
        Registry name of the prime-block engine (default ``"stp"``).
    """

    def __init__(
        self,
        operators: Sequence[int] = NONTRIVIAL_BINARY_OPS,
        max_solutions: int = 10_000,
        all_solutions: bool = True,
        prime_synthesizer=None,
        prime_engine: str = "stp",
    ) -> None:
        self._operators = tuple(operators)
        self._max_solutions = max_solutions
        self._all_solutions = all_solutions
        self._prime = prime_synthesizer
        self._prime_engine = prime_engine

    def synthesize(
        self,
        function: TruthTable,
        timeout: float | None = None,
        ctx: SynthesisContext | None = None,
    ) -> SynthesisResult:
        """Synthesize via DSD factorization + exact prime synthesis."""
        spec = SynthesisSpec(
            function=function,
            operators=self._operators,
            timeout=timeout,
            all_solutions=self._all_solutions,
            max_solutions=self._max_solutions,
        )
        return self.run(spec, ctx=ctx)

    def run(
        self, spec: SynthesisSpec, ctx: SynthesisContext | None = None
    ) -> SynthesisResult:
        """Synthesize according to an explicit spec."""
        if ctx is None:
            ctx = SynthesisContext.create(timeout=spec.timeout)
        start = time.perf_counter()
        deadline = ctx.deadline
        stats = ctx.stats

        chain = trivial_chain(spec.function)
        if chain is not None:
            return SynthesisResult(
                spec, [chain], 0, time.perf_counter() - start, stats
            )

        with ctx.stage("normalize"):
            local, support = shrink_to_support(spec.function)
        with ctx.stage("dsd"):
            tree = dsd_decompose(local)

        # Synthesize every prime block exactly; collect alternatives.
        prime_nodes = _collect_primes(tree)
        prime_solutions: list[list[BooleanChain]] = []
        for node in prime_nodes:
            assert node.prime_table is not None
            result = self._synthesize_prime(node.prime_table, ctx)
            stats.merge(result.stats)
            prime_solutions.append(result.chains)

        # Base chain for each combination of prime alternatives.
        chains: list[BooleanChain] = []
        seen: set[tuple] = set()
        combos = iter_product(*prime_solutions) if prime_solutions else [()]
        for combo in combos:
            deadline.check()
            picked = dict(zip(map(id, prime_nodes), combo))
            built = BooleanChain(local.num_vars)
            top, complemented = _build(tree, built, picked)
            built.set_output(top, complemented)
            base = canonicalize_dont_cares(built)
            if base.simulate_output() != local:
                raise AssertionError("hierarchical chain is incorrect")
            for variant in polarity_closure(
                base,
                seen,
                max_combos=self._max_solutions if self._all_solutions else 1,
                deadline=deadline,
            ):
                chains.append(variant)
                if len(chains) >= self._max_solutions:
                    break
            if len(chains) >= self._max_solutions or not self._all_solutions:
                break

        if not self._all_solutions:
            chains = chains[:1]
        lifted = [
            lift_chain(c, spec.function.num_vars, support) for c in chains
        ]
        num_gates = lifted[0].num_gates if lifted else 0
        return SynthesisResult(
            spec, lifted, num_gates, time.perf_counter() - start, stats
        )

    def _synthesize_prime(
        self, prime_table: TruthTable, ctx: SynthesisContext
    ) -> SynthesisResult:
        """One prime block, in a child context of the run.

        A caller-supplied ``prime_synthesizer`` object is honoured
        as-is; otherwise the block dispatches through the engine
        registry, sharing the run's caches and nesting its deadline.
        """
        if self._prime is not None:
            return self._prime.synthesize(
                prime_table, timeout=ctx.deadline.remaining()
            )
        # Imported lazily: repro.engine imports this module's package.
        from ..engine import create_engine

        prime_spec = SynthesisSpec(
            function=prime_table,
            operators=self._operators,
            timeout=ctx.deadline.remaining(),
            all_solutions=self._all_solutions,
            max_solutions=max(64, self._max_solutions // 8),
        )
        engine = create_engine(self._prime_engine)
        return engine.synthesize(prime_spec, ctx.child(fresh_stats=True))


def _collect_primes(tree: DSDNode) -> list[DSDNode]:
    out: list[DSDNode] = []
    if tree.kind == "prime":
        out.append(tree)
    for child in tree.children:
        out.extend(_collect_primes(child))
    return out


def _build(
    node: DSDNode,
    chain: BooleanChain,
    picked: dict[int, BooleanChain],
) -> tuple[int, bool]:
    """Emit gates for a DSD node; returns (signal, complemented)."""
    if node.kind == "var":
        return node.var_index, False
    if node.kind == "gate":
        (sig_a, comp_a) = _build(node.children[0], chain, picked)
        (sig_b, comp_b) = _build(node.children[1], chain, picked)
        code = node.op_code
        if comp_a:
            code = _flip_code_input(code, 2, 0)
        if comp_b:
            code = _flip_code_input(code, 2, 1)
        return chain.add_gate(code, (sig_a, sig_b)), False
    # Prime block: splice the selected sub-chain onto the child signals.
    assert node.prime_table is not None
    child_signals = []
    complemented_pis: set[int] = set()
    for i, child in enumerate(node.children):
        sig, comp = _build(child, chain, picked)
        if comp:
            complemented_pis.add(i)
        child_signals.append(sig)
    sub = picked[id(node)]
    mapping: dict[int, int] = {}
    for i, sig in enumerate(child_signals):
        mapping[i] = sig
    for gi, gate in enumerate(sub.gates):
        new_fanins = tuple(mapping[f] for f in gate.fanins)
        code = gate.op
        # Absorb complemented child drivers into the gate codes.
        for pos, f in enumerate(gate.fanins):
            if f < sub.num_inputs and f in complemented_pis:
                code = _flip_code_input(code, gate.arity, pos)
        new_signal = chain.add_gate(code, new_fanins)
        mapping[sub.num_inputs + gi] = new_signal
    out_signal, out_comp = sub.outputs[0]
    if out_signal == BooleanChain.CONST0:
        raise AssertionError("prime blocks are never constant")
    return mapping[out_signal], out_comp


def hierarchical_synthesize(
    function: TruthTable, timeout: float | None = None, **kwargs
) -> SynthesisResult:
    """One-call hierarchical (DSD-first) STP synthesis."""
    return HierarchicalSynthesizer(**kwargs).synthesize(
        function, timeout=timeout
    )
