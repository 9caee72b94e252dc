"""The first-class Engine protocol: registry, adapters, dispatch."""

import pytest

from repro.core import SynthesisContext, SynthesisSpec
from repro.engine import (
    Engine,
    EngineCapabilities,
    create_engine,
    engine_capabilities,
    engine_names,
    run_engine,
)
from repro.runtime.errors import EngineUnavailable
from repro.truthtable import from_hex, majority, parity

EXAMPLE7 = from_hex("8ff8", 4)  # the paper's example, optimum 3 gates


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert engine_names() == (
            "bms",
            "cegis",
            "fen",
            "hier",
            "lutexact",
            "stp",
        )

    def test_unknown_engine_raises(self):
        with pytest.raises(EngineUnavailable):
            create_engine("nope")
        with pytest.raises(EngineUnavailable):
            engine_capabilities("nope")

    def test_instances_satisfy_protocol(self):
        for name in engine_names():
            engine = create_engine(name)
            assert isinstance(engine, Engine)
            assert engine.name == name
            assert isinstance(engine.capabilities, EngineCapabilities)

    def test_capabilities(self):
        for name in ("stp", "fen", "bms", "lutexact", "cegis"):
            assert engine_capabilities(name).exact, name
        assert not engine_capabilities("hier").exact


class TestSynthesizeDispatch:
    @pytest.mark.parametrize(
        "name", ["stp", "hier", "fen", "bms", "lutexact", "cegis"]
    )
    def test_spec_dispatch(self, name):
        engine = create_engine(name)
        spec = SynthesisSpec(function=EXAMPLE7, timeout=120)
        result = engine.synthesize(spec)
        assert result.num_gates == 3
        for chain in result.chains:
            assert chain.simulate_output() == EXAMPLE7

    @pytest.mark.parametrize(
        "name", ["stp", "hier", "fen", "bms", "lutexact", "cegis"]
    )
    def test_run_engine(self, name):
        result = run_engine(name, parity(3), timeout=120)
        assert result.num_gates == 2

    def test_context_threads_through(self):
        ctx = SynthesisContext.create(timeout=120)
        spec = SynthesisSpec(function=EXAMPLE7)
        result = create_engine("stp").synthesize(spec, ctx)
        assert result.stats is ctx.stats
        assert ctx.stats.stage_seconds  # stages were timed

    def test_constructor_kwargs_override_spec(self):
        engine = create_engine("stp", max_solutions=2)
        spec = SynthesisSpec(function=majority(3), timeout=120)
        result = engine.synthesize(spec)
        assert result.num_solutions <= 2

    def test_unknown_kwargs_ignored(self):
        # The fallback-chain contract: one shared kwargs dict must
        # configure heterogeneous engines without blowing up.
        engine = create_engine("fen", max_solutions=64, bogus_knob=1)
        result = engine.synthesize(
            SynthesisSpec(function=parity(3), timeout=120)
        )
        assert result.num_gates == 2


class TestRunEngine:
    def test_run_engine_resolves_names(self):
        result = run_engine("stp", parity(3), 120, max_solutions=8)
        assert result.num_gates == 2
        assert result.num_solutions <= 8

    def test_run_engine_unknown(self):
        with pytest.raises(EngineUnavailable):
            run_engine("missing", parity(3), 120)


class TestOperatorSets:
    """Only ``stp`` searches within ``SynthesisSpec.operators``; every
    other engine refuses a set that leaves out an operator it may
    emit, so a fallback walk moves on to a lane that keeps to it."""

    AND_OR = (0x8, 0xE)

    @pytest.mark.parametrize(
        "name", ["fen", "bms", "lutexact", "cegis", "hier"]
    )
    def test_engine_refuses_a_set_it_cannot_keep(self, name):
        with pytest.raises(EngineUnavailable):
            create_engine(name).synthesize(
                SynthesisSpec(
                    function=parity(3), operators=self.AND_OR, timeout=30
                )
            )
        # The executor's per-lane override reaches the engine too.
        with pytest.raises(EngineUnavailable):
            run_engine(name, parity(3), 30, operators=self.AND_OR)

    def test_walk_answers_from_the_lane_that_keeps_the_set(self):
        from repro.runtime.executor import FaultTolerantExecutor

        keep = {"operators": self.AND_OR}
        executor = FaultTolerantExecutor(
            ("fen", "stp"), engine_kwargs={"fen": keep, "stp": keep}
        )
        function = majority(3)
        outcome = executor.run(function, 60.0)
        assert outcome.solved and outcome.engine == "stp"
        assert [r.status for r in outcome.trail] == ["unavailable", "ok"]
        assert outcome.result.chains
        for chain in outcome.result.chains:
            assert chain.simulate_output() == function
            assert {gate.op for gate in chain.gates} <= set(self.AND_OR)

    def test_stp_answers_every_optimal_chain_within_the_set(self):
        """All solutions under a set that is not complement-closed are
        exactly the default set's optimal chains that keep to it."""
        function = majority(3)
        restricted = run_engine("stp", function, 60, operators=self.AND_OR)
        default = run_engine("stp", function, 60)
        assert restricted.num_gates == default.num_gates
        assert [chain.signature() for chain in restricted.chains] == [
            chain.signature()
            for chain in default.chains
            if {gate.op for gate in chain.gates} <= set(self.AND_OR)
        ]
        assert len(restricted.chains) == 12
