"""Persistent chain-store tests.

The acceptance path: store → lookup → inverse-NPN re-simulation for
every 3-input NPN class; a cold miss falls through to the engine and
writes back so the next request is served without any synthesis; a
warm store serves a repeated suite with zero new synthesis calls.
"""

import json
import sqlite3
import threading

import pytest

from repro.bench.runner import default_algorithms, run_suite
from repro.bench.suites import get_suite
from repro.engine import run_engine
from repro.runtime.executor import FaultTolerantExecutor
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.store import ChainStore, chain_from_record, chain_to_record
from repro.truthtable import from_hex
from repro.truthtable.npn import NPNTransform, npn_classes

from tests.helpers import assert_chain_realizes, record_race_lanes


class TestSerialization:
    def test_roundtrip_preserves_behaviour(self):
        result = run_engine("fen", from_hex("e8", 3), 30.0)
        for chain in result.chains:
            rebuilt = chain_from_record(chain_to_record(chain))
            assert rebuilt.simulate_output() == chain.simulate_output()
            assert rebuilt.signature() == chain.signature()

    def test_record_is_json_safe(self):
        result = run_engine("fen", from_hex("e8", 3), 30.0)
        record = chain_to_record(result.chains[0])
        assert chain_from_record(
            json.loads(json.dumps(record))
        ).simulate_output() == result.chains[0].simulate_output()

    def test_malformed_records_raise(self):
        with pytest.raises(ValueError):
            chain_from_record("not a dict")
        with pytest.raises(ValueError):
            chain_from_record({"v": 999})
        with pytest.raises(ValueError):
            chain_from_record({"v": 1, "inputs": 2, "gates": "x"})


class TestRoundTripAllThreeInputClasses:
    def test_every_class_serves_its_orbit(self, tmp_path):
        """store → lookup → inverse-NPN re-simulation for all 3-input
        NPN classes, probing a non-trivial orbit member of each."""
        probe = NPNTransform(
            perm=(2, 0, 1), input_flips=0b101, output_flip=True
        )
        with ChainStore(tmp_path / "chains.db") as store:
            for rep in npn_classes(3):
                result = run_engine("fen", rep, 30.0)
                assert result.chains, f"0x{rep.to_hex()} unsolved"
                assert store.put(rep, result, engine="fen")

                member = probe.apply(rep)
                served = store.lookup(member)
                assert served is not None, f"0x{member.to_hex()} missed"
                assert served.num_gates == result.num_gates
                for chain in served.chains:
                    assert_chain_realizes(member, chain)
            assert store.hits == len(npn_classes(3))
            assert len(store) >= 1

    def test_lookup_times_are_recorded(self, tmp_path):
        with ChainStore(tmp_path / "chains.db") as store:
            function = from_hex("e8", 3)
            store.put(function, run_engine("fen", function, 30.0), "fen")
            served = store.lookup(function)
            assert served is not None and served.runtime >= 0.0


class TestExecutorIntegration:
    def test_cold_miss_falls_through_and_writes_back(self, tmp_path):
        path = str(tmp_path / "chains.db")
        function = from_hex("8ff8", 4)

        with ChainStore(path) as store:
            executor = FaultTolerantExecutor(("fen",), store=store)
            cold = executor.run(function, 60.0)
            assert cold.solved and cold.engine == "fen"
            assert store.writes >= 1

        # Second run: the primary engine is scripted to crash on every
        # attempt, so a solved outcome proves zero synthesis happened.
        plan = FaultPlan(
            {
                function.to_hex(): FaultSpec(
                    "crash", engine="fen", times=None
                )
            }
        )
        with ChainStore(path) as store:
            executor = FaultTolerantExecutor(
                ("fen",), store=store, fault_plan=plan
            )
            warm = executor.run(function, 60.0)
            assert warm.solved
            assert warm.engine == "store"
            assert store.hits == 1
            for chain in warm.result.chains:
                assert_chain_realizes(function, chain)

    def test_store_failure_degrades_to_synthesis(self, tmp_path):
        path = str(tmp_path / "chains.db")
        function = from_hex("e8", 3)
        store = ChainStore(path)
        store.close()  # every store call now fails internally
        executor = FaultTolerantExecutor(("fen",), store=store)
        outcome = executor.run(function, 30.0)
        assert outcome.solved and outcome.engine == "fen"

    def test_store_failures_are_counted(self, tmp_path):
        store = ChainStore(str(tmp_path / "chains.db"))
        store.close()
        executor = FaultTolerantExecutor(("fen",), store=store)
        outcome = executor.run(from_hex("e8", 3), 30.0)
        assert outcome.solved and outcome.engine == "fen"
        assert outcome.store_errors >= 1
        assert outcome.to_record()["store_errors"] == outcome.store_errors

    def test_failed_walk_serves_stored_upper_bound(self, tmp_path):
        function = from_hex("e8", 3)
        plan = FaultPlan(
            {FaultPlan.WILDCARD: FaultSpec("crash", times=None)}
        )
        with ChainStore(tmp_path / "chains.db") as store:
            bound = run_engine("fen", function, 30.0)
            assert store.put(function, bound, "hier", exact=False)
            executor = FaultTolerantExecutor(
                ("stp", "fen"), store=store, fault_plan=plan,
                max_retries=0,
            )
            outcome = executor.run(function, 30.0)
        assert outcome.status == "degraded"
        assert outcome.engine == "store" and outcome.exact is False
        assert outcome.result.num_gates == bound.num_gates
        assert_chain_realizes(function, outcome.result.chains[0])

    def test_race_uses_and_extends_the_floor(self, tmp_path, monkeypatch):
        from repro.runtime.racing import RacingExecutor

        tasks = record_race_lanes(monkeypatch)
        function = from_hex("e8", 3)  # majority-3: optimum 4 gates
        with ChainStore(tmp_path / "chains.db") as store:
            store.mark_infeasible(function, 2)
            executor = RacingExecutor(("stp", "fen", "cegis"), store=store)
            outcome = executor.run(function, 30.0)
            assert outcome.solved and outcome.exact
            assert outcome.result.num_gates == 4
            assert store.min_feasible_gates(function) == 4
        assert len(tasks) == 3
        assert all(task.engine_kwargs["min_gates"] == 3 for task in tasks)

    def test_joint_vector_is_written_back_and_served(self, tmp_path):
        functions = (from_hex("e8", 3), from_hex("96", 3))
        with ChainStore(tmp_path / "chains.db") as store:
            executor = FaultTolerantExecutor(("fen",), store=store)
            cold = executor.run(functions, 30.0)
            assert cold.solved and cold.engine == "fen"
            warm = executor.run(functions, 30.0)
        assert warm.solved and warm.engine == "store"
        assert warm.function_hex == "e8,96"
        assert len(warm.result.chains[0].outputs) == 2

    def test_inexact_engines_only_write_upper_bounds(self, tmp_path):
        # A heuristic engine's result lands as an upper-bound row:
        # the plain (optimal) lookup must refuse to serve it, while
        # the degradation path may.
        from repro.engine import engine_capabilities

        assert not engine_capabilities("hier").exact
        function = from_hex("e8", 3)
        with ChainStore(tmp_path / "chains.db") as store:
            executor = FaultTolerantExecutor(("hier",), store=store)
            outcome = executor.run(function, 30.0)
            assert outcome.solved
            assert store.writes == 1 and len(store) == 1
            assert store.lookup(function) is None
            served = store.lookup_upper_bound(function)
            assert served is not None
            result, exact = served
            assert exact is False
            for chain in result.chains:
                assert_chain_realizes(function, chain)


class TestCorruptionAndConcurrency:
    def test_corrupt_row_degrades_to_miss(self, tmp_path):
        path = str(tmp_path / "chains.db")
        function = from_hex("e8", 3)
        with ChainStore(path) as store:
            store.put(function, run_engine("fen", function, 30.0), "fen")
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE chains SET solutions = '[{\"v\": 9}]'")
        conn.close()
        with ChainStore(path) as store:
            assert store.lookup(function) is None
            assert store.misses == 1

    def test_merge_dedupes_and_unions_solutions(self, tmp_path):
        function = from_hex("e8", 3)
        result = run_engine("fen", function, 30.0, max_solutions=8)
        with ChainStore(tmp_path / "chains.db") as store:
            assert store.put(function, result, "fen")
            assert store.put(function, result, "fen")  # same set again
            served = store.lookup(function)
            signatures = [c.signature() for c in served.chains]
            assert len(signatures) == len(set(signatures))
            assert len(signatures) == len(result.chains)

    def test_concurrent_writers_share_one_file(self, tmp_path):
        path = str(tmp_path / "chains.db")
        reps = npn_classes(3)[:6]
        results = {r: run_engine("fen", r, 30.0) for r in reps}
        errors = []

        def writer(rep):
            try:
                with ChainStore(path) as store:
                    store.put(rep, results[rep], "fen")
                    assert store.lookup(rep) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(rep,)) for rep in reps
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        with ChainStore(path) as store:
            for rep in reps:
                assert store.lookup(rep) is not None

    def test_one_instance_hammered_from_many_threads(self, tmp_path):
        """One shared ChainStore must survive concurrent lookup/put
        from many threads (the serving layer's access pattern): every
        thread reads through its own SQLite connection, writes
        serialize internally, and no operation raises or serves a
        wrong chain."""
        reps = npn_classes(3)[:6]
        results = {r: run_engine("fen", r, 30.0) for r in reps}
        errors = []
        barrier = threading.Barrier(8)

        with ChainStore(tmp_path / "chains.db") as store:
            # Pre-seed half the classes so lookups mix hits and misses.
            for rep in reps[:3]:
                store.put(rep, results[rep], "fen")

            def hammer(worker):
                try:
                    barrier.wait(timeout=30)
                    for round_ in range(12):
                        rep = reps[(worker + round_) % len(reps)]
                        served = store.lookup(rep)
                        if served is not None:
                            assert_chain_realizes(rep, served.chains[0])
                        store.put(rep, results[rep], "fen")
                        served = store.lookup(rep)
                        assert served is not None
                        assert (
                            served.num_gates
                            == results[rep].num_gates
                        )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert store.quarantined == 0
            for rep in reps:
                assert store.lookup(rep) is not None


class TestSuiteWarmStore:
    def test_warm_store_serves_suite_with_zero_synthesis(self, tmp_path):
        """Acceptance: a repeated suite against a warm store performs
        no new synthesis calls — proven by crashing every engine."""
        path = str(tmp_path / "chains.db")
        functions = get_suite("npn4", 4)
        fen = [
            a
            for a in default_algorithms(max_solutions=16)
            if a.name == "FEN"
        ]
        cold = run_suite(
            "npn4", functions, fen, 60.0, store_path=path
        )
        assert cold[0].num_ok == 4
        assert cold[0].num_store_hits == 0

        plan = FaultPlan(
            {
                f.to_hex(): FaultSpec("crash", engine="fen", times=None)
                for f in functions
            }
        )
        warm = run_suite(
            "npn4",
            functions,
            fen,
            60.0,
            store_path=path,
            fault_plan=plan,
        )
        assert warm[0].num_ok == 4
        assert warm[0].num_store_hits == 4
        assert all(o.engine == "store" for o in warm[0].outcomes)
        assert [o.num_gates for o in warm[0].outcomes] == [
            o.num_gates for o in cold[0].outcomes
        ]


class TestSynthCli:
    def test_repro_synth_store_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "chains.db")
        argv = ["e8", "--vars", "3", "--engine", "fen", "--store", path]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[store]" in out


class TestNegativeCache:
    """The ``infeasible`` table: proven-empty gate counts per NPN class."""

    def test_round_trip_and_monotone_upsert(self, tmp_path):
        with ChainStore(tmp_path / "chains.db") as store:
            t = from_hex("0016", 4)
            assert store.min_feasible_gates(t) == 0
            store.mark_infeasible(t, 3)
            assert store.min_feasible_gates(t) == 4
            store.mark_infeasible(t, 2)  # never downgrades
            assert store.min_feasible_gates(t) == 4
            store.mark_infeasible(t, 4)
            assert store.min_feasible_gates(t) == 5
            store.mark_infeasible(t, 0)  # no-op below 1
            assert store.min_feasible_gates(t) == 5

    def test_marks_are_npn_invariant(self, tmp_path):
        """Gate counts are NPN-invariant, so a mark on one orbit member
        must be visible from every other member of the class."""
        probe = NPNTransform(
            perm=(2, 0, 1, 3), input_flips=0b0101, output_flip=True
        )
        t = from_hex("0016", 4)
        with ChainStore(tmp_path / "chains.db") as store:
            store.mark_infeasible(t, 4)
            assert store.min_feasible_gates(probe.apply(t)) == 5

    def test_executor_marks_after_exact_solve(self, tmp_path):
        t = from_hex("0007", 4)
        with ChainStore(tmp_path / "chains.db") as store:
            ex = FaultTolerantExecutor(engines=["stp"], store=store)
            out = ex.run(t, timeout=60)
            assert out.status == "ok"
            n = out.result.num_gates
            assert n > 0
            # exact search at n proves sizes < n empty
            assert store.min_feasible_gates(t) == n

    def test_floored_run_returns_same_optimum(self, tmp_path):
        """A pre-seeded floor skips the empty sizes without changing
        the answer — and the chains still verify."""
        t = from_hex("0007", 4)
        baseline = run_engine("stp", t, 60.0)
        with ChainStore(tmp_path / "chains.db") as store:
            store.mark_infeasible(t, baseline.num_gates - 1)
            ex = FaultTolerantExecutor(engines=["stp"], store=store)
            out = ex.run(t, timeout=60)
            assert out.status == "ok"
            assert out.result.num_gates == baseline.num_gates
            assert_chain_realizes(t, out.result.best)

    def test_run_engine_min_gates_is_a_spec_override(self):
        t = from_hex("0007", 4)
        baseline = run_engine("stp", t, 60.0)
        floored = run_engine(
            "stp", t, 60.0, min_gates=baseline.num_gates
        )
        assert floored.num_gates == baseline.num_gates
        assert len(floored.chains) == len(baseline.chains)
