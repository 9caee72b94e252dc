"""Ablations of the design choices DESIGN.md calls out.

* canonical (normal-form) search + polarity expansion vs full-polarity
  enumeration inside the factorization engine,
* the exact 3-variable size-bound prune vs the generic ``support - 1``
  bound,
* hierarchical (DSD-first) STP vs the flat DAG engine,
* the STP circuit AllSAT verifier vs plain truth-table simulation,
* the cross-call topology cache vs per-call fence/DAG re-enumeration.
"""

import pytest

from repro.cache import SynthesisCache
from repro.core import (
    FactorizationEngine,
    SynthesisContext,
    SynthesisSpec,
    run_pipeline,
    verify_chain,
)
from repro.core.sizebound import min_gates_lower_bound
from repro.engine import create_engine, run_engine
from repro.truthtable import from_hex, majority

MAJ = majority(3)

# A small NPN4 subset: the paper's running example plus three
# structurally distinct 4-input functions.
NPN4_SUBSET = ["8ff8", "1ee1", "0357", "6996"]


@pytest.mark.parametrize("canonical", [True, False])
def test_ablation_canonical_factorization(benchmark, canonical):
    """Normal-form pinning should shrink the factorization output."""
    engine = FactorizationEngine(3, operators=(0x1, 0x2, 0x4, 0x6, 0x7, 0x8, 0x9, 0xB, 0xD, 0xE))
    cone_a, cone_b = (0, 1), (1, 2)

    def decompose():
        return engine.decompositions(
            MAJ, cone_a, cone_b, canonical=canonical
        )

    result = benchmark(decompose)
    if canonical:
        assert all(
            fac.g_a.value(0) == 0 and fac.g_b.value(0) == 0
            for fac in result
        )


def test_ablation_size_bound(benchmark):
    """The exact 3-var bound dominates the generic support bound."""

    def bounds():
        tight = 0
        for bits in range(0, 256, 7):
            from repro.truthtable import TruthTable

            t = TruthTable(bits, 3)
            generic = max(0, t.support_size() - 1)
            exact = min_gates_lower_bound(t)
            assert exact >= generic
            if exact > generic:
                tight += 1
        return tight

    tighter = benchmark(bounds)
    assert tighter > 0


def test_ablation_flat_vs_hierarchical(benchmark):
    """On a DSD-structured function the hierarchical path must win big;
    both must agree on the optimal gate count."""
    f = from_hex("8ff8", 4)  # or(and(a,b), xor(c,d)) — fully DSD

    def hierarchical():
        return run_engine("hier", f, timeout=60, max_solutions=16)

    result = benchmark(hierarchical)
    flat = create_engine("stp", all_solutions=False).synthesize(
        SynthesisSpec(function=f, timeout=60)
    )
    assert result.num_gates == flat.num_gates == 3


def test_ablation_circuit_sat_verifier(benchmark):
    """The circuit AllSAT verifier agrees with direct simulation."""
    result = run_engine("stp", MAJ, timeout=60, max_solutions=8)
    chains = result.chains

    def verify_all():
        return [verify_chain(c, MAJ) for c in chains]

    verdicts = benchmark(verify_all)
    assert all(verdicts)
    assert all(c.simulate_output() == MAJ for c in chains)


@pytest.mark.parametrize("cached", [True, False], ids=["cache-on", "cache-off"])
def test_ablation_topology_cache(benchmark, cached):
    """A warm topology/factorization cache vs per-call re-enumeration.

    Runs the same NPN4 subset either against one shared warm
    ``SynthesisCache`` (steady-state ``run_suite`` behaviour) or with a
    fresh bundle per call (every call re-enumerates fences and DAGs,
    the pre-cache behaviour: a run asks for each family once).
    Results must be identical either way; the cache-on timing should
    be measurably below cache-off.
    """
    functions = [from_hex(bits, 4) for bits in NPN4_SUBSET]
    shared = SynthesisCache()

    def run_subset():
        sizes = []
        for f in functions:
            cache = shared if cached else SynthesisCache()
            ctx = SynthesisContext.create(timeout=60, cache=cache)
            result = run_pipeline(
                SynthesisSpec(function=f, timeout=60, max_solutions=8),
                ctx,
            )
            sizes.append(result.num_gates)
        return sizes

    if cached:
        run_subset()  # warm the cache; measure steady state

    sizes = benchmark(run_subset)
    assert sizes == [3, 3, 3, 3]
    if cached:
        assert shared.topology.hits > 0
