"""Bit-parallel kernel layer: randomized old-vs-new equivalence.

Every kernel is compared against the original pure-Python
implementation it replaced (relocated verbatim into
``repro.kernels.reference``): the tuple-cube AllSAT solver, the
loop-based quartering construction, the per-row truth-table
manipulations, the recursive STP descent, the per-row chain, network
and cut simulation loops, the ``flip_signal`` polarity closures and
the chain-building NPN transforms.  The solution-set check is compared
against the paper's AllSAT verifier it replaced at the store, the
executor and the service.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import InstanceOutcome, SuiteReport
from repro.chain import BooleanChain
from repro.core import (
    SynthesisSpec,
    chain_all_sat,
    cubes_to_onset,
    merge_cube_sets,
    run_pipeline,
    verify_chain,
)
from repro.kernels import (
    KERNEL_STATS,
    KernelCounters,
    check_solution_set,
    cofactor_bits,
    index_maps,
    npn_apply_bits,
    npn_minimum,
    pack_cube,
    pack_cubes,
    packed_onset,
    permute_bits,
    quartering_profiles,
    stp_assignments,
    support_bits,
    unpack_cube,
    unpack_cubes,
)
from repro.kernels.reference import (
    canonicalize_dont_cares_ref,
    chain_all_sat_ref,
    cofactor_bits_ref,
    compose_ref,
    cubes_to_onset_ref,
    cut_function_ref,
    merge_cube_sets_ref,
    npn_apply_ref,
    npn_transform_chain_multi_ref,
    npn_transform_chain_ref,
    permute_bits_ref,
    polarity_closure_ref,
    quartering_blocks_ref,
    simulate_nodes_ref,
    simulate_signals_ref,
    stp_assignments_ref,
    support_bits_ref,
    verify_chain_ref,
)
from repro.truthtable import TruthTable, from_hex
from repro.truthtable.npn import NPNTransform

from tests.helpers import assert_chain_realizes, random_chain


def random_cube(rnd, n):
    return tuple(rnd.choice((None, 0, 1)) for _ in range(n))


class TestPackedCubeRoundTrip:
    def test_pack_unpack_all_3ary_cubes(self):
        for cube in itertools.product((None, 0, 1), repeat=3):
            assert unpack_cube(pack_cube(cube), 3) == cube

    def test_pack_cubes_set_round_trip(self):
        rnd = random.Random(7)
        cubes = {random_cube(rnd, 5) for _ in range(40)}
        assert unpack_cubes(pack_cubes(cubes), 5) == cubes


class TestMergeEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_merge_sets_match_reference(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 6)
        s1 = {random_cube(rnd, n) for _ in range(rnd.randint(1, 25))}
        s2 = {random_cube(rnd, n) for _ in range(rnd.randint(1, 25))}
        assert merge_cube_sets(s1, s2) == merge_cube_sets_ref(s1, s2)

    def test_large_sets_cross_vector_threshold(self):
        # 80 × 80 = 6400 pairs exceeds the NumPy dispatch threshold, so
        # this exercises the vectorized branch against the reference.
        rnd = random.Random(11)
        n = 8
        s1 = {random_cube(rnd, n) for _ in range(80)}
        s2 = {random_cube(rnd, n) for _ in range(80)}
        assert merge_cube_sets(s1, s2) == merge_cube_sets_ref(s1, s2)


class TestAllSatEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_chains_match_reference(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(2, 5)
        chain = random_chain(rnd, num_inputs=n, num_gates=rnd.randint(1, 7))
        for targets in ([0], [1], None):
            assert chain_all_sat(chain, targets) == chain_all_sat_ref(
                chain, targets
            ), f"seed={seed} targets={targets}"

    @pytest.mark.parametrize("seed", range(10))
    def test_verify_chain_matches_reference(self, seed):
        rnd = random.Random(100 + seed)
        chain = random_chain(rnd, num_inputs=4, num_gates=5)
        truth = chain.simulate_output()
        wrong = TruthTable(truth.bits ^ 1, truth.num_vars)
        assert verify_chain(chain, truth) is verify_chain_ref(chain, truth)
        assert verify_chain(chain, wrong) is verify_chain_ref(chain, wrong)
        assert_chain_realizes(truth, chain)

    def test_multi_output_targets(self):
        chain = BooleanChain(2)
        g_and = chain.add_gate(0b1000, (0, 1))
        g_xor = chain.add_gate(0b0110, (0, 1))
        chain.set_output(g_and, False)
        chain.set_output(g_xor, True)
        for targets in itertools.product((0, 1), repeat=2):
            assert chain_all_sat(chain, targets) == chain_all_sat_ref(
                chain, targets
            )


class TestOnsetEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_cube_sets(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 7)
        cubes = [random_cube(rnd, n) for _ in range(rnd.randint(1, 20))]
        assert cubes_to_onset(cubes, n) == cubes_to_onset_ref(cubes, n)

    def test_all_free_cube_covers_everything(self):
        # The free-variable expansion (the old exponential loop) is one
        # shift-or cascade; the all-free cube is its worst case.
        n = 10
        cube = (None,) * n
        onset = cubes_to_onset([cube], n)
        assert onset == (1 << (1 << n)) - 1

    def test_packed_onset_matches_tuple_path(self):
        rnd = random.Random(3)
        n = 6
        cubes = [random_cube(rnd, n) for _ in range(12)]
        assert packed_onset(pack_cubes(cubes), n) == cubes_to_onset_ref(
            cubes, n
        )


class TestQuarteringEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_blocks_match_loop_reference(self, seed):
        rnd = random.Random(seed)
        nu = rnd.randint(2, 5)
        positions = list(range(nu))
        rnd.shuffle(positions)
        split = rnd.randint(1, nu - 1)
        a_pos = tuple(sorted(positions[:split]))
        b_pos = tuple(sorted(positions[split:]))
        _, _, disjoint, gamma_of = index_maps(nu, a_pos, b_pos)
        assert disjoint
        gv_bits = rnd.getrandbits(1 << nu)
        profiles = quartering_profiles(
            gv_bits,
            nu,
            gamma_of.ravel().tolist(),
            1 << len(a_pos),
            1 << len(b_pos),
        )
        ref = quartering_blocks_ref(
            gv_bits, gamma_of.tolist(), 1 << len(b_pos)
        )
        assert list(profiles) == ref


class TestTruthTableKernels:
    @pytest.mark.parametrize("seed", range(10))
    def test_cofactor_support_permute(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 6)
        bits = rnd.getrandbits(1 << n)
        for var in range(n):
            for value in (0, 1):
                assert cofactor_bits(bits, n, var, value) == (
                    cofactor_bits_ref(bits, n, var, value)
                )
        assert support_bits(bits, n) == support_bits_ref(bits, n)
        perm = list(range(n))
        rnd.shuffle(perm)
        assert permute_bits(bits, n, tuple(perm)) == permute_bits_ref(
            bits, n, perm
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_npn_apply(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 5)
        bits = rnd.getrandbits(1 << n)
        perm = list(range(n))
        rnd.shuffle(perm)
        flips = rnd.getrandbits(n)
        out = bool(rnd.getrandbits(1))
        assert npn_apply_bits(bits, n, tuple(perm), flips, out) == (
            npn_apply_ref(bits, n, perm, flips, out)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_npn_minimum_matches_sequential_scan(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 3)
        bits = rnd.getrandbits(1 << n)
        best = None
        for perm in itertools.permutations(range(n)):
            for flips in range(1 << n):
                for out in (False, True):
                    cand = npn_apply_ref(bits, n, perm, flips, out)
                    if best is None or cand < best[0]:
                        best = (cand, perm, flips, out)
        got = npn_minimum(bits, n)
        assert got == best
        # The returned transform really maps bits onto the minimum.
        min_bits, perm, flips, out = got
        assert npn_apply_bits(bits, n, perm, flips, out) == min_bits

    def test_npn_minimum_example_8ff8(self):
        table = from_hex("8ff8", 4)
        min_bits, perm, flips, out = npn_minimum(table.bits, 4)
        assert npn_apply_bits(table.bits, 4, perm, flips, out) == min_bits
        assert min_bits <= table.bits


class TestStpAssignments:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_recursive_descent(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 8)
        top = [rnd.randint(0, 1) for _ in range(1 << n)]
        assert stp_assignments(top, n) == stp_assignments_ref(top, n)

    def test_empty_and_full_rows(self):
        assert stp_assignments([0, 0, 0, 0], 2) == []
        assert len(stp_assignments([1] * 8, 3)) == 8


class TestKernelStats:
    def test_snapshot_since_delta(self):
        counters = KernelCounters()
        counters.count("cube_merge", 3)
        snap = counters.snapshot()
        counters.count("cube_merge", 2)
        counters.add("chain_allsat", 0.5)
        calls, seconds = counters.since(snap)
        assert calls == {"cube_merge": 2, "chain_allsat": 1}
        assert seconds == {"chain_allsat": 0.5}

    def test_pipeline_folds_kernel_counters(self):
        result = run_pipeline(
            SynthesisSpec(function=from_hex("8ff8", 4), timeout=120)
        )
        record = result.stats.to_record()
        assert record["kernel_calls"].get("chain_allsat", 0) > 0
        assert "chain_allsat" in record["kernel_seconds"]

    def test_global_registry_counts_allsat(self):
        snap = KERNEL_STATS.snapshot()
        chain = random_chain(random.Random(0))
        chain_all_sat(chain)
        calls, _ = KERNEL_STATS.since(snap)
        assert calls.get("chain_allsat", 0) >= 1


class TestWorkerSummaryStoreHits:
    def test_store_hit_latency_keys(self):
        report = SuiteReport(algorithm="STP", suite="unit")
        report.outcomes = [
            InstanceOutcome(
                "8ff8", True, 0.25, engine="store", worker=0
            ),
            InstanceOutcome(
                "1ee1", True, 1.5, engine="hier", worker=0
            ),
            InstanceOutcome(
                "0001", True, 0.75, engine="store", worker=1
            ),
        ]
        summary = report.worker_summary()
        assert summary[0]["store_hits"] == 1
        assert summary[0]["store_hit_seconds"] == pytest.approx(0.25)
        assert summary[1]["store_hits"] == 1
        assert summary[1]["store_hit_seconds"] == pytest.approx(0.75)
        assert report.num_store_hits == 2


class TestSolveDisjointBatchEquivalence:
    """The engine's disjoint-cone solver
    (``FactorizationEngine._disjoint_descriptors``) against its per-β
    oracle, over a batch of random and composed demands per shape."""

    @staticmethod
    def _random_shape(rnd):
        nu = rnd.randint(2, 5)
        positions = list(range(nu))
        rnd.shuffle(positions)
        split = rnd.randint(1, nu - 1)
        a_pos = tuple(sorted(positions[:split]))
        b_pos = tuple(sorted(positions[split:]))
        _, _, disjoint, gamma_of = index_maps(nu, a_pos, b_pos)
        assert disjoint
        return nu, a_pos, b_pos, gamma_of.tolist()

    @staticmethod
    def _demands(rnd, gamma_of, count=12):
        """``(g_v, g_a, g_b)`` triples: half random tables, half
        ``g_v = φ(g_a, g_b)`` composed so the quartering check passes."""
        from repro.truthtable.operations import NONTRIVIAL_BINARY_OPS

        size_a, size_b = len(gamma_of), len(gamma_of[0])
        out = []
        for k in range(count):
            ga = rnd.getrandbits(size_a)
            gb = rnd.getrandbits(size_b)
            if k % 2:
                gv = rnd.getrandbits(size_a * size_b)
            else:
                code = rnd.choice(NONTRIVIAL_BINARY_OPS)
                gv = 0
                for alpha, row in enumerate(gamma_of):
                    u = (ga >> alpha) & 1
                    for beta, gamma in enumerate(row):
                        v = (gb >> beta) & 1
                        gv |= ((code >> ((v << 1) | u)) & 1) << gamma
            out.append((gv, ga, gb))
        return out

    @staticmethod
    def _solver(nu, a_pos, b_pos):
        from repro.core.factorization import FactorizationEngine, _shape
        from repro.truthtable.operations import NONTRIVIAL_BINARY_OPS

        engine = FactorizationEngine(nu, NONTRIVIAL_BINARY_OPS)
        shape = _shape(nu, a_pos, b_pos)

        def solve(gv, fa=None, fb=None, canonical=True):
            return engine._disjoint_descriptors(
                shape, gv, fa, fb, canonical
            )

        return solve

    @pytest.mark.parametrize("seed", range(10))
    def test_free_children_match_reference(self, seed):
        from repro.kernels.reference import solve_disjoint_ref
        from repro.truthtable.operations import NONTRIVIAL_BINARY_OPS

        rnd = random.Random(seed)
        nu, a_pos, b_pos, gamma_of = self._random_shape(rnd)
        solve = self._solver(nu, a_pos, b_pos)
        found = 0
        for k, (gv, _, _) in enumerate(self._demands(rnd, gamma_of)):
            for canonical in (True, False):
                got = solve(gv, canonical=canonical)
                assert got == solve_disjoint_ref(
                    gv,
                    gamma_of,
                    NONTRIVIAL_BINARY_OPS,
                    canonical=canonical,
                ), f"seed={seed} k={k} canonical={canonical}"
                found += bool(got)
        assert found

    @pytest.mark.parametrize("seed", range(10))
    def test_pinned_children_match_reference(self, seed):
        """Pinned-A and pinned-B queries (the PI-projection case)."""
        from repro.kernels.reference import solve_disjoint_ref
        from repro.truthtable.operations import NONTRIVIAL_BINARY_OPS

        rnd = random.Random(1000 + seed)
        nu, a_pos, b_pos, gamma_of = self._random_shape(rnd)
        solve = self._solver(nu, a_pos, b_pos)
        found = 0
        for k, (gv, ga, gb) in enumerate(self._demands(rnd, gamma_of)):
            for canonical in (True, False):
                got_a = solve(gv, fa=ga, canonical=canonical)
                assert got_a == solve_disjoint_ref(
                    gv, gamma_of, NONTRIVIAL_BINARY_OPS,
                    fixed_a=ga, canonical=canonical,
                ), f"seed={seed} k={k} canonical={canonical} pinned=A"
                got_b = solve(gv, fb=gb, canonical=canonical)
                assert got_b == solve_disjoint_ref(
                    gv, gamma_of, NONTRIVIAL_BINARY_OPS,
                    fixed_b=gb, canonical=canonical,
                ), f"seed={seed} k={k} canonical={canonical} pinned=B"
                found += bool(got_a) + bool(got_b)
        assert found


def random_lut_chain(rnd, num_inputs, num_gates, num_outputs=1):
    """A random chain of 1-3-input LUTs (fanins may repeat); outputs may
    be complemented or point at CONST0."""
    chain = BooleanChain(num_inputs)
    for _ in range(num_gates if num_inputs else 0):
        arity = rnd.randint(1, 3)
        fanins = [rnd.randrange(chain.num_signals) for _ in range(arity)]
        chain.add_gate(rnd.getrandbits(1 << arity), fanins)
    for _ in range(num_outputs):
        signal = rnd.randrange(-1, chain.num_signals)
        chain.set_output(signal, bool(rnd.getrandbits(1)))
    return chain


def random_network_with_constants(rnd, num_pis, num_nodes):
    """A random LUT network whose nodes have 0-3 fanins (0 = constant)."""
    from repro.network import LogicNetwork

    net = LogicNetwork()
    uids = [net.add_pi() for _ in range(num_pis)]
    for _ in range(num_nodes):
        arity = rnd.randint(0, 3)
        fanins = [rnd.choice(uids) for _ in range(arity)]
        function = TruthTable(rnd.getrandbits(1 << arity), arity)
        uids.append(net.add_node(function, fanins))
    for uid in uids[-2:]:
        net.add_po(uid, bool(rnd.getrandbits(1)))
    return net


class TestPackedSimulationEquivalence:
    """Word-parallel simulation (``lut_apply``) against the per-row
    loops it replaced, and the table-lookup polarity closure against
    the ``flip_signal`` closures."""

    @pytest.mark.parametrize("seed", range(6))
    def test_chains_match_reference(self, seed):
        from repro.core.pipeline import canonicalize_dont_cares

        rnd = random.Random(seed)
        for num_inputs in range(9):
            chain = random_lut_chain(
                rnd, num_inputs, rnd.randint(1, 8), rnd.randint(1, 3)
            )
            tables = simulate_signals_ref(chain)
            assert chain.simulate_signals() == tables
            want = [
                TruthTable(0, num_inputs)
                if signal == BooleanChain.CONST0
                else tables[signal]
                for signal, _ in chain.outputs
            ]
            want = [
                ~table if complemented else table
                for table, (_, complemented) in zip(want, chain.outputs)
            ]
            assert chain.simulate() == want
            assert (
                canonicalize_dont_cares(chain).signature()
                == canonicalize_dont_cares_ref(chain).signature()
            ), f"seed={seed} n={num_inputs}"

    @pytest.mark.parametrize("seed", range(4))
    def test_networks_and_cuts_match_reference(self, seed):
        from repro.network import cut_function, enumerate_cuts

        rnd = random.Random(100 + seed)
        net = random_network_with_constants(
            rnd, rnd.randint(1, 6), rnd.randint(3, 12)
        )
        assert net.simulate_nodes() == simulate_nodes_ref(net)
        for cuts in enumerate_cuts(net, k=4).values():
            for cut in cuts:
                assert cut_function(net, cut) == cut_function_ref(net, cut)

    @pytest.mark.parametrize("seed", range(4))
    def test_compose_matches_reference(self, seed):
        rnd = random.Random(200 + seed)
        for outer_vars in range(6):
            # Inner variable counts on both sides of the outer arity.
            for inner_vars in {0, max(0, outer_vars - 2), outer_vars + 2}:
                outer = TruthTable(
                    rnd.getrandbits(1 << outer_vars), outer_vars
                )
                inner = [
                    TruthTable(rnd.getrandbits(1 << inner_vars), inner_vars)
                    for _ in range(outer_vars)
                ]
                assert outer.compose(inner) == compose_ref(outer, inner)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cap", [1, 7, 256])
    @pytest.mark.parametrize("canonicalize", [True, False])
    def test_polarity_closure_matches_reference(
        self, seed, cap, canonicalize
    ):
        from repro.chain.transform import polarity_closure

        rnd = random.Random(300 + seed)
        for num_inputs in (2, 3, 4, 6):
            base = random_lut_chain(
                rnd, num_inputs, rnd.randint(1, 7), rnd.randint(1, 2)
            )
            target = base.simulate_output()
            # A shared ``seen`` across bases, as both callers use it.
            seen_new: set = set()
            seen_ref: set = set()
            for chain in (base, canonicalize_dont_cares_ref(base)):
                got = list(
                    itertools.islice(
                        polarity_closure(
                            chain,
                            seen_new,
                            canonicalize=canonicalize,
                            max_combos=cap,
                            target=target,
                        ),
                        cap,
                    )
                )
                want = list(
                    itertools.islice(
                        polarity_closure_ref(
                            chain,
                            seen_ref,
                            canonicalize=canonicalize,
                            max_combos=cap,
                            target=target,
                        ),
                        cap,
                    )
                )
                assert [c.signature() for c in got] == [
                    c.signature() for c in want
                ], f"seed={seed} n={num_inputs} cap={cap}"
            assert seen_new == seen_ref

    def test_closure_rejects_a_variant_that_changes_the_function(self):
        from repro.chain.transform import polarity_closure

        chain = BooleanChain(2)
        chain.add_gate(0x8, (0, 1))
        chain.add_gate(0x6, (0, 2))
        chain.set_output(3)
        wrong = ~chain.simulate_output()
        # Combination 0 is the base itself and is never re-checked.
        closure = polarity_closure(
            chain, set(), canonicalize=False, target=wrong
        )
        assert next(closure).signature() == chain.signature()
        with pytest.raises(AssertionError):
            next(closure)


def _mutations(record, rnd, count):
    """Single-bit op mutations of ``record``'s gates."""
    n, gates, outputs = record
    out = []
    for _ in range(count if gates else 0):
        index = rnd.randrange(len(gates))
        op, fanins = gates[index]
        bit = 1 << rnd.randrange(1 << len(fanins))
        mutated = gates[:index] + ((op ^ bit, fanins),) + gates[index + 1 :]
        out.append((n, mutated, outputs))
    return out


class TestSolutionSetCheck:
    """``check_solution_set`` gives the AllSAT verifiers' verdict on
    every well-formed record, and False (never an exception, never a
    wrapped index) on every malformed one."""

    @given(
        seed=st.integers(0, 10**9),
        num_inputs=st.integers(0, 8),
        num_outputs=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_verdicts_match_allsat(self, seed, num_inputs, num_outputs):
        from repro.chain.transform import polarity_variants

        rnd = random.Random(seed)
        base = random_lut_chain(
            rnd, num_inputs, rnd.randint(1, 8), num_outputs
        )
        targets = base.simulate()
        records = [
            chain.signature()
            for chain in polarity_variants(base, max_variants=4)
        ]
        records += [
            random_lut_chain(
                rnd, num_inputs, rnd.randint(1, 8), num_outputs
            ).signature()
            for _ in range(3)
        ]
        records += _mutations(base.signature(), rnd, 6)
        verdicts = check_solution_set(
            records, [t.bits for t in targets], num_inputs
        )
        assert verdicts[0] is True
        for record, verdict in zip(records, verdicts):
            chain = BooleanChain.from_record(record)
            if num_outputs == 1:
                want = verify_chain(chain, targets[0])
            else:
                want = chain.simulate() == targets
            assert verdict == want, record

    def test_malformed_records_are_false(self):
        and2 = (2, ((0x8, (0, 1)),), ((2, False),))
        malformed = [
            # -1 would read the AND gate's own pattern and pass.
            (2, ((0x8, (0, 1)), (0x2, (-1,))), ((3, False),)),
            # -2 would read x1 and pass for the target x1 below.
            (2, ((0x8, (0, 1)),), ((-2, False),)),
            (2, ((0x8, (0, 2)),), ((2, False),)),  # reads itself
            (2, ((0x8, (0, 3)), (0x8, (0, 1))), ((3, False),)),  # later
            (2, ((0x8, (0, 1)),), ((2, False), (2, False))),  # 2 outputs
            (2, ((0x8, (0, 1)),), ()),  # no output
            (2, ((0x18, (0, 1)),), ((2, False),)),  # op too wide
            (2, ((-8, (0, 1)),), ((2, False),)),  # negative op
            (2, ((0x8, ()),), ((2, False),)),  # no fanins
            (2, ((0x8, (0, 1)),), ((3, False),)),  # missing signal
            (3, ((0x8, (0, 1)),), ((3, False),)),  # wrong arity
            (2, ((0x8, (0, "1")),), ((2, False),)),  # not an int
            (2, ((0x8, (0,) * 64),), ((2, False),)),  # too many fanins
            (2, ((0x8, (0, 1)),)),  # not a record
            None,
            "garbage",
        ]
        verdicts = check_solution_set([and2] + malformed, [0x8], 2)
        assert verdicts == [True] + [False] * len(malformed)
        assert check_solution_set(
            [(2, ((0x8, (0, 1)),), ((-2, False),))], [0xC], 2
        ) == [False]

    @pytest.mark.parametrize("seed", range(6))
    def test_npn_transform_record_matches_reference(self, seed):
        from repro.chain.transform import (
            npn_transform_chain,
            npn_transform_record,
        )

        rnd = random.Random(500 + seed)
        for num_inputs in range(7):
            for num_outputs in (1, 2, 3):
                chain = random_lut_chain(
                    rnd, num_inputs, rnd.randint(0, 7), num_outputs
                )
                perm = list(range(num_inputs))
                rnd.shuffle(perm)
                flips = rnd.getrandbits(num_inputs) if num_inputs else 0
                single = NPNTransform(
                    tuple(perm), flips, bool(rnd.getrandbits(1))
                )
                output_flips = tuple(
                    bool(rnd.getrandbits(1)) for _ in range(num_outputs)
                )
                want = npn_transform_chain_ref(chain, single).signature()
                if num_outputs == 1:
                    assert (
                        npn_transform_chain(chain, single).signature()
                        == want
                    )
                else:
                    with pytest.raises(ValueError):
                        npn_transform_chain(chain, single)
                assert npn_transform_record(
                    chain.signature(),
                    single.perm,
                    flips,
                    (single.output_flip,) * num_outputs,
                ) == want
                want = npn_transform_chain_multi_ref(
                    chain, tuple(perm), flips, output_flips
                ).signature()
                assert npn_transform_record(
                    chain.signature(), tuple(perm), flips, output_flips
                ) == want


class TestOrderedSolutionSetsLocked:
    """Engine-level lock: ``hier`` and flat ``stp`` return the same
    chains in the same order whether the polarity closure and don't-care
    canonicalization run packed or as the ``flip_signal``/per-row
    references.  Comparing counts alone would miss a reordering that
    changes which variants survive the 256-solution cap."""

    #: (suite, pool, picks, engines).  Flat ``stp`` stays on the suites
    #: it solves in about a second; ``hier`` covers all four (its prime
    #: blocks run the pipeline's closure).
    SUITES = (
        ("npn4", 222, 3, ("hier", "stp")),
        ("fdsd6", 40, 3, ("hier", "stp")),
        ("fdsd8", 20, 2, ("hier",)),
        ("pdsd6", 20, 3, ("hier",)),
    )

    @classmethod
    def _solve_all(cls):
        from repro.bench.suites import get_suite
        from repro.engine import run_engine

        rnd = random.Random(2)
        out = []
        for suite, pool, picks, engines in cls.SUITES:
            for function in rnd.sample(get_suite(suite, pool), picks):
                for engine in engines:
                    result = run_engine(
                        engine,
                        function,
                        timeout=60,
                        max_solutions=256,
                        all_solutions=True,
                    )
                    out.append(
                        (
                            suite,
                            function.to_hex(),
                            engine,
                            [c.signature() for c in result.chains],
                        )
                    )
        return out

    def test_packed_matches_reference(self, monkeypatch):
        import repro.core.hierarchical as hier_mod
        import repro.core.pipeline as pipeline_mod

        shipped = self._solve_all()
        for module in (pipeline_mod, hier_mod):
            monkeypatch.setattr(
                module, "polarity_closure", polarity_closure_ref
            )
            monkeypatch.setattr(
                module, "canonicalize_dont_cares", canonicalize_dont_cares_ref
            )
        reference = self._solve_all()
        assert [row[:3] for row in shipped] == [row[:3] for row in reference]
        for got, want in zip(shipped, reference):
            assert got[3], got[:3]
            assert got[3] == want[3], got[:3]
