"""Store-backed rewriting, the repro-rewrite CLI, and multi-output
network round trips."""

from pathlib import Path

from repro.chain import BooleanChain
from repro.chain.transform import trivial_chain
from repro.core import synthesize
from repro.network import (
    LogicNetwork,
    blif_to_network,
    network_to_blif,
    rewrite_with_store,
)
from repro.network.cli import main as rewrite_main
from repro.network.cuts import cut_function
from repro.runtime.executor import ExecutionOutcome, FaultTolerantExecutor
from repro.store import ChainStore
from repro.truthtable import TruthTable, from_hex

from tests.helpers import stacked_chain

AND = TruthTable(0x8, 2)
OR = TruthTable(0xE, 2)

CIRCUITS = Path(__file__).resolve().parent.parent / "benchmarks" / "circuits"

#: Cold-pass gate counts of the checked-in suite, before -> after.
SUITE_COLD_GATES = {
    "fulladder_naive": (9, 6),
    "maj3_redundant": (9, 4),
    "mux41_redundant": (18, 9),
    "xor4_redundant": (8, 4),
}


def store_lookups(store):
    counters = store.counters()
    return counters["hits"] + counters["misses"]


def redundant_maj():
    """MAJ3 with a duplicated, OR-merged cone — reliably reducible."""
    net = LogicNetwork("maj3_redundant")
    a, b, c = (net.add_pi() for _ in range(3))
    ab = net.add_node(AND, (a, b))
    ac = net.add_node(AND, (a, c))
    bc = net.add_node(AND, (b, c))
    o1 = net.add_node(OR, (ab, ac))
    o2 = net.add_node(OR, (o1, bc))
    x1 = net.add_node(OR, (ab, bc))
    x2 = net.add_node(OR, (x1, ac))
    net.add_po(net.add_node(OR, (o2, x2)))
    return net


class TestRewriteWithStore:
    def test_cold_pass_reduces_and_verifies(self, tmp_path):
        net = redundant_maj()
        baseline = [t.bits for t in net.simulate()]
        with ChainStore(tmp_path / "s.db") as store:
            result = rewrite_with_store(
                net, store, timeout_per_cut=60.0
            )
        assert result.verified
        assert result.gain > 0
        assert result.synthesis_calls > 0
        assert [t.bits for t in net.simulate()] == baseline

    def test_warm_replay_needs_zero_synthesis(self, tmp_path):
        with ChainStore(tmp_path / "s.db") as store:
            cold = rewrite_with_store(
                redundant_maj(), store, timeout_per_cut=60.0
            )
            warm = rewrite_with_store(
                redundant_maj(), store, timeout_per_cut=60.0
            )
        assert warm.synthesis_calls == 0
        assert warm.store_misses == 0
        assert warm.gain == cold.gain

    def test_failed_verification_rolls_back(self, tmp_path):
        net = redundant_maj()
        gates_before = net.num_gates()
        baseline = [t.bits for t in net.simulate()]

        class LyingOutcome:
            status = "ok"
            engine = "liar"

        class LyingExecutor:
            """Serves a wrong-but-plausible chain for every cut."""

            def run(self, function, timeout=None, **kwargs):
                from repro.core.spec import (
                    SynthesisResult,
                    SynthesisSpec,
                )

                wrong = ~function
                chains = synthesize(wrong).chains
                outcome = LyingOutcome()
                outcome.result = SynthesisResult(
                    spec=SynthesisSpec(function=wrong),
                    chains=chains,
                    num_gates=chains[0].num_gates,
                    runtime=0.0,
                )
                return outcome

        with ChainStore(tmp_path / "s.db") as store:
            result = rewrite_with_store(
                net, store, executor=LyingExecutor()
            )
        assert not result.verified
        assert result.gates_after == gates_before
        assert net.num_gates() == gates_before
        assert [t.bits for t in net.simulate()] == baseline

    def test_checked_in_suite_is_reducible(self, tmp_path):
        paths = sorted(CIRCUITS.glob("*.blif"))
        assert paths, "benchmarks/circuits/ suite is missing"
        gates = {}
        with ChainStore(tmp_path / "s.db") as store:
            for path in paths:
                net = blif_to_network(path.read_text())
                result = rewrite_with_store(
                    net, store, timeout_per_cut=60.0
                )
                assert result.verified, path.name
                gates[path.stem] = (result.gates_before, result.gates_after)
        assert gates == SUITE_COLD_GATES

    def test_every_tie_break_rewrites_as_the_all_chains_path(self, tmp_path):
        """A store pick and a pick over every served chain rewrite the
        suite to the same BLIF and counters, under each tie-break: the
        invariant costs take the store pick, ``weighted``,
        ``inverters`` and a callable keep the full answer."""

        class AllChainsExecutor(FaultTolerantExecutor):
            """Drops ``pick``: every store hit carries the whole row."""

            def run(self, function, timeout=None, *, pick=None, **kwargs):
                return super().run(function, timeout, **kwargs)

        paths = sorted(CIRCUITS.glob("*.blif"))
        tie_breaks = ["depth", "gates", "fanout", "weighted", "inverters"]
        tie_breaks.append(lambda chain: (chain.depth(), -chain.num_gates))
        passes = {}
        for name, executor_cls in (
            ("pick", FaultTolerantExecutor),
            ("all", AllChainsExecutor),
        ):
            with ChainStore(tmp_path / f"{name}.db") as store:
                executor = executor_cls(("stp",), store=store)
                rows = []
                for tie_break in ["depth"] + tie_breaks:  # cold, then warm
                    for path in paths:
                        net = blif_to_network(path.read_text())
                        result = rewrite_with_store(
                            net,
                            store,
                            tie_break=tie_break,
                            timeout_per_cut=60.0,
                            executor=executor,
                        )
                        assert result.verified, path.name
                        rows.append((network_to_blif(net), result))
                passes[name] = rows
        assert passes["pick"] == passes["all"]
        assert sum(r.synthesis_calls for _, r in passes["pick"]) == 14

    def test_warm_pass_looks_up_each_cut_function_once(
        self, tmp_path, monkeypatch
    ):
        import repro.network.rewrite as rewrite_mod

        seen = []

        def recording_cut_function(network, cut):
            local = cut_function(network, cut)
            seen.append(local)
            return local

        monkeypatch.setattr(
            rewrite_mod, "cut_function", recording_cut_function
        )
        lookups = {}
        with ChainStore(tmp_path / "s.db") as store:
            for name in SUITE_COLD_GATES:
                text = (CIRCUITS / f"{name}.blif").read_text()
                cold = blif_to_network(text)
                rewrite_with_store(cold, store, timeout_per_cut=60.0)
                warm = blif_to_network(text)
                seen.clear()
                before = store_lookups(store)
                result = rewrite_with_store(
                    warm, store, timeout_per_cut=60.0
                )
                lookups[name] = store_lookups(store) - before
                distinct = {
                    (local.bits, local.num_vars)
                    for local in seen
                    if trivial_chain(local) is None
                }
                assert lookups[name] == len(distinct), name
                assert result.store_hits == result.cuts_tried, name
                assert network_to_blif(warm) == network_to_blif(cold), name
        assert lookups == {
            "fulladder_naive": 7,
            "maj3_redundant": 9,
            "mux41_redundant": 11,
            "xor4_redundant": 8,
        }

    def test_failed_cut_function_runs_once_per_pass(self):
        class TimingOutExecutor:
            """Times out on every function, counting its runs."""

            calls = 0

            def run(self, function, timeout=None, **kwargs):
                self.calls += 1
                return ExecutionOutcome(
                    function_hex=function.to_hex(),
                    num_vars=function.num_vars,
                    status="timeout",
                )

        net = blif_to_network(
            (CIRCUITS / "maj3_redundant.blif").read_text()
        )
        original = network_to_blif(net)
        executor = TimingOutExecutor()
        result = rewrite_with_store(net, None, executor=executor)
        assert executor.calls == 9
        assert result.cuts_tried == 38
        assert result.store_misses == result.cuts_tried
        assert result.store_hits == 0
        assert result.synthesis_calls == 9
        assert result.verified
        assert network_to_blif(net) == original


class TestRewriteCLI:
    def test_end_to_end(self, tmp_path, capsys):
        blif = tmp_path / "in.blif"
        blif.write_text(network_to_blif(redundant_maj()))
        out = tmp_path / "out.blif"
        report = tmp_path / "report.json"
        code = rewrite_main(
            [
                str(blif),
                "--store",
                str(tmp_path / "s.db"),
                "--out",
                str(out),
                "--json",
                str(report),
                "--timeout-per-cut",
                "60",
            ]
        )
        assert code == 0
        assert "gates" in capsys.readouterr().out
        rewritten = blif_to_network(out.read_text())
        original = blif_to_network(blif.read_text())
        assert [t.bits for t in rewritten.simulate()] == [
            t.bits for t in original.simulate()
        ]
        assert rewritten.num_gates() < original.num_gates()
        import json

        record = json.loads(report.read_text())
        assert record["gates_after"] < record["gates_before"]
        assert all(p["verified"] for p in record["passes"])

    def test_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.blif"
        bad.write_text(".model broken\n.latch a b\n.end\n")
        assert rewrite_main([str(bad)]) == 65
        capsys.readouterr()


class TestMultiOutputNetworkRoundTrip:
    def test_from_chain_keeps_every_output(self):
        maj = from_hex("e8", 3)
        fa_sum = from_hex("96", 3)
        merged = stacked_chain(
            [synthesize(maj).chains[0], synthesize(fa_sum).chains[0]]
        )
        net = LogicNetwork.from_chain(merged, name="fa")
        assert len(net.pos) == 2
        tables = net.simulate()
        assert [t.bits for t in tables] == [
            t.bits for t in merged.simulate()
        ]

    def test_blif_round_trip_is_lossless(self):
        maj = from_hex("e8", 3)
        fa_sum = from_hex("96", 3)
        merged = stacked_chain(
            [synthesize(maj).chains[0], synthesize(fa_sum).chains[0]]
        )
        net = LogicNetwork.from_chain(merged, name="fa")
        round_trip = blif_to_network(network_to_blif(net))
        assert len(round_trip.pos) == 2
        assert [t.bits for t in round_trip.simulate()] == [
            t.bits for t in net.simulate()
        ]

    def test_const0_output_round_trips(self):
        chain = BooleanChain(2)
        chain.add_gate(0x6, (0, 1))
        chain.set_output(2, False)
        chain.set_output(BooleanChain.CONST0, True)
        net = LogicNetwork.from_chain(chain)
        assert len(net.pos) == 2
        tables = net.simulate()
        assert tables[0].bits == 0x6
        assert tables[1].bits == 0b1111
        round_trip = blif_to_network(network_to_blif(net))
        assert [t.bits for t in round_trip.simulate()] == [
            t.bits for t in tables
        ]

    def test_splice_chain_multi_shares_gates(self):
        maj = from_hex("e8", 3)
        single = synthesize(maj).chains[0]
        merged = BooleanChain(3)
        for gate in single.gates:
            merged.add_gate(gate.op, gate.fanins)
        for _ in range(2):  # the same output twice: every gate shared
            merged.set_output(*single.outputs[0])
        net = LogicNetwork("host")
        leaves = [net.add_pi() for _ in range(3)]
        outs = net.splice_chain_multi(merged, leaves)
        assert len(outs) == 2
        assert outs[0] == outs[1]  # fully shared duplicate
