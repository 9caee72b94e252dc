"""Persistent chain-store tests.

The acceptance path: store → lookup → inverse-NPN re-simulation for
every 3-input NPN class; a cold miss falls through to the engine and
writes back so the next request is served without any synthesis; a
warm store serves a repeated suite with zero new synthesis calls.
"""

import json
import random
import sqlite3
import threading

import pytest

from repro.bench.runner import default_algorithms, run_suite
from repro.bench.suites import get_suite
from repro.chain.costs import COST_MODELS, NPN_INVARIANT_COSTS
from repro.core.spec import SynthesisResult, SynthesisSpec
from repro.engine import create_engine, run_engine
from repro.runtime.executor import FaultTolerantExecutor
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.store import ChainStore, chain_from_record, chain_to_record
from repro.truthtable import from_hex
from repro.truthtable.npn import NPNTransform, npn_classes
from repro.truthtable.npn import canonicalize as npn_canonical

from tests.helpers import (
    assert_chain_realizes,
    record_tasks,
    stacked_chain,
)

MAJ = from_hex("e8", 3)
FA_SUM = from_hex("96", 3)

#: The very first shipped schema, before the exact/quarantined/
#: num_outputs migrations — kept verbatim as the migration fixture.
V1_SCHEMA = """
CREATE TABLE chains (
    num_vars    INTEGER NOT NULL,
    canon_hex   TEXT    NOT NULL,
    num_gates   INTEGER NOT NULL,
    engine      TEXT    NOT NULL,
    solutions   TEXT    NOT NULL,
    created     REAL    NOT NULL,
    PRIMARY KEY (num_vars, canon_hex, num_gates)
)
"""

#: The negative cache older code kept beside ``chains``: per NPN class,
#: the largest gate count claimed to admit no chain.  Kept verbatim to
#: plant old files; the store neither creates nor reads it.
INFEASIBLE_SCHEMA = """
CREATE TABLE IF NOT EXISTS infeasible (
    num_vars  INTEGER NOT NULL,
    canon_hex TEXT    NOT NULL,
    max_gates INTEGER NOT NULL,
    created   REAL    NOT NULL,
    PRIMARY KEY (num_vars, canon_hex)
)
"""


def synth(function, **kwargs):
    return create_engine("stp").synthesize(
        SynthesisSpec(function=function, **kwargs)
    )


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

    def test_every_failing_store_call_is_counted(self, tmp_path):
        """On a closed store the lookup and the write-back both fail,
        and each one counts."""
        store = ChainStore(str(tmp_path / "chains.db"))
        store.close()
        executor = FaultTolerantExecutor(("fen",), store=store)
        outcome = executor.run(from_hex("e8", 3), 30.0)
        assert outcome.solved and outcome.engine == "fen"
        assert outcome.store_errors == 2

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

    @staticmethod
    def _wrong_answer(function):
        """A store answer for ``function`` whose second chain computes
        another function."""
        good = run_engine("stp", function, 30.0, max_solutions=8)
        assert len(good.chains) >= 2
        record = chain_to_record(good.chains[1])
        record["gates"][0][0] ^= 0xF
        chains = [good.chains[0], chain_from_record(record)]
        assert chains[1].simulate_output() != function
        return SynthesisResult(
            spec=good.spec,
            chains=chains,
            num_gates=good.num_gates,
            runtime=0.0,
        )

    def test_wrong_store_answer_is_refused_before_the_walk(
        self, tmp_path, monkeypatch
    ):
        function = MAJ
        wrong = self._wrong_answer(function)
        with ChainStore(tmp_path / "chains.db") as store:
            monkeypatch.setattr(
                store, "lookup", lambda function, **kwargs: wrong
            )
            executor = FaultTolerantExecutor(("fen",), store=store)
            outcome = executor.run(function, 30.0)
        assert outcome.solved and outcome.engine == "fen"
        assert outcome.store_errors == 1
        for chain in outcome.result.chains:
            assert_chain_realizes(function, chain)

    def test_wrong_upper_bound_is_refused_after_a_failed_walk(
        self, tmp_path, monkeypatch
    ):
        function = MAJ
        wrong = self._wrong_answer(function)
        plan = FaultPlan(
            {FaultPlan.WILDCARD: FaultSpec("crash", times=None)}
        )
        with ChainStore(tmp_path / "chains.db") as store:
            monkeypatch.setattr(
                store, "lookup_upper_bound", lambda function, **kwargs: wrong
            )
            executor = FaultTolerantExecutor(
                ("stp", "fen"), store=store, fault_plan=plan,
                max_retries=0,
            )
            outcome = executor.run(function, 30.0)
        assert outcome.status == "crash" and outcome.result is None
        assert not outcome.degraded
        assert outcome.store_errors == 1

    def test_timed_out_walk_serves_store_upper_bound(self, tmp_path):
        function = from_hex("e8", 3)
        plan = FaultPlan(
            {FaultPlan.WILDCARD: FaultSpec(kind="timeout", times=None)}
        )
        with ChainStore(tmp_path / "chains.db") as store:
            bound = run_engine("fen", function, 60.0)
            assert store.put(function, bound, "hier", exact=False)
            executor = FaultTolerantExecutor(
                ("stp", "fen"), fault_plan=plan, store=store
            )
            outcome = executor.run(function, timeout=5.0)
        assert outcome.status == "degraded"
        assert outcome.degraded and not outcome.solved
        assert outcome.exact is False
        assert outcome.engine == "store"
        assert outcome.result.num_gates == bound.num_gates
        for chain in outcome.result.chains:
            assert chain.simulate_output() == function

    def test_a_wrong_floor_in_an_old_file_cannot_make_an_answer_suboptimal(
        self, tmp_path, monkeypatch
    ):
        """Older files may hold an ``infeasible`` table of gate-count
        floors that nothing ever re-checked.  A wrong one, majority-3
        marked empty up to its own 4-gate optimum, must not move the
        search off the support bound, in-process or isolated."""
        tasks = record_tasks(monkeypatch)
        canon_hex = npn_canonical(MAJ)[0].to_hex()
        for name, engines, isolate in (
            ("in-process", ("stp",), False),
            ("isolated", ("stp", "fen", "cegis"), True),
        ):
            path = tmp_path / f"{name}.db"
            ChainStore(path).close()
            conn = sqlite3.connect(path)
            with conn:
                conn.execute(INFEASIBLE_SCHEMA)
                conn.execute(
                    "INSERT INTO infeasible VALUES (3, ?, 4, 0.0)",
                    (canon_hex,),
                )
            conn.close()
            with ChainStore(path) as store, FaultTolerantExecutor(
                engines, isolate=isolate, store=store
            ) as executor:
                outcome = executor.run(MAJ, 30.0)
            assert outcome.solved and outcome.exact, name
            assert outcome.result.num_gates == 4, name
            conn = sqlite3.connect(path)
            planted = conn.execute(
                "SELECT num_vars, canon_hex, max_gates FROM infeasible"
            ).fetchall()
            conn.close()
            assert planted == [(3, canon_hex, 4)], name
        assert len(tasks) == 1
        assert "min_gates" not in tasks[0].engine_kwargs

    def test_exact_answer_is_written_back_and_served(self, tmp_path):
        function = from_hex("e8", 3)
        with ChainStore(str(tmp_path / "chains.db")) as store:
            executor = FaultTolerantExecutor(("fen", "cegis"), store=store)
            cold = executor.run(function, timeout=30.0)
            assert cold.solved and store.writes == 1
            warm = executor.run(function, timeout=30.0)
            assert warm.solved and warm.engine == "store"

    def test_quarantined_rows_are_counted_per_run(self, tmp_path):
        path = str(tmp_path / "chains.db")
        function = from_hex("e8", 3)
        with ChainStore(path) as store:
            store.put(function, run_engine("fen", function, 30.0), "fen")
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE chains SET solutions = '[{\"v\": 9}]'")
        conn.close()
        with ChainStore(path) as store:
            executor = FaultTolerantExecutor(("fen",), store=store)
            outcome = executor.run(function, timeout=30.0)
            # Corrupt row quarantined mid-run, then solved fresh.
            assert outcome.solved
            assert outcome.store_quarantined == 1
            assert store.quarantined == 1
            # The fresh write-back replaced the quarantined row, so a
            # second run is served from the store again.
            again = executor.run(function, timeout=30.0)
            assert again.solved and again.engine == "store"
            assert again.store_quarantined == 0

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
            for chain in served.chains:
                assert_chain_realizes(function, chain)


class TestSchemaMigration:
    def _make_v1_db(self, path, store_with_row):
        """A database in the original shipped schema, seeded with a
        row copied from a modern store."""
        src = sqlite3.connect(store_with_row)
        row = src.execute(
            "SELECT num_vars, canon_hex, num_gates, engine, "
            "solutions, created FROM chains"
        ).fetchone()
        src.close()
        conn = sqlite3.connect(path)
        conn.execute(V1_SCHEMA)
        conn.execute(
            "INSERT INTO chains VALUES (?, ?, ?, ?, ?, ?)", row
        )
        conn.commit()
        conn.close()

    def test_pre_migration_db_still_serves(self, tmp_path):
        seed = tmp_path / "seed.db"
        result = synth(MAJ, all_solutions=True)
        with ChainStore(seed) as store:
            store.put(MAJ, result, "stp")
        old = tmp_path / "old.db"
        self._make_v1_db(old, seed)

        with ChainStore(old) as migrated:
            columns = {
                r[1]
                for r in migrated._connection().execute(
                    "PRAGMA table_info(chains)"
                )
            }
            assert {"exact", "quarantined", "num_outputs"} <= columns
            served = migrated.lookup(MAJ)
            assert served is not None
            assert served.num_gates == result.num_gates

    def test_joint_row_is_never_served_or_quarantined(self, tmp_path):
        """A file holding a row of the retired joint multi-output path
        (a comma-joined key, ``num_outputs = 2``) beside a
        single-output row: the store opens it, serves the single row,
        never serves or quarantines the joint row, and still merges a
        put of the single class."""
        path = tmp_path / "store.db"
        single = synth(MAJ, all_solutions=True)
        with ChainStore(path) as store:
            assert store.put(MAJ, single, "stp")
        maj_canon = npn_canonical(MAJ)[0]
        sum_canon = npn_canonical(FA_SUM)[0]
        joint = stacked_chain(
            [synth(maj_canon).best, synth(sum_canon).best]
        )
        joint_row = (
            3,
            f"{maj_canon.to_hex()},{sum_canon.to_hex()}",
            joint.num_gates,
            "stp",
            json.dumps([chain_to_record(joint)]),
            0.0,
            1,
            0,
            2,
        )
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "INSERT INTO chains (num_vars, canon_hex, num_gates, "
                "engine, solutions, created, exact, quarantined, "
                "num_outputs) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                joint_row,
            )
        conn.close()

        with ChainStore(path) as store:
            served = store.lookup(MAJ)
            assert served is not None
            assert served.num_gates == single.num_gates
            for chain in served.chains:
                assert_chain_realizes(MAJ, chain)
            assert store.lookup(FA_SUM) is None
            assert store.lookup_upper_bound(FA_SUM) is None
            assert store.put(MAJ, single, "stp")
            assert store.lookup(MAJ).num_gates == single.num_gates
            assert store.quarantined == 0 and store.dropped == 0
            assert len(store) == 2
        conn = sqlite3.connect(path)
        rows = conn.execute(
            "SELECT num_vars, canon_hex, num_gates, engine, solutions, "
            "created, exact, quarantined, num_outputs FROM chains "
            "WHERE num_outputs = 2"
        ).fetchall()
        conn.close()
        assert rows == [joint_row]

    def test_migration_is_idempotent(self, tmp_path):
        path = tmp_path / "store.db"
        result = synth(MAJ)
        with ChainStore(path) as store:
            store.put(MAJ, result, "stp")
        # reopening re-runs _migrate() against the migrated schema
        with ChainStore(path) as store:
            assert store.lookup(MAJ) is not None


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

    def test_writers_opening_a_fresh_file_together(self, tmp_path):
        """Writers that open a fresh file at the same instant race on
        its switch to WAL; every one of them must still get in."""
        import sys

        reps = npn_classes(3)[:6]
        results = {r: run_engine("fen", r, 30.0) for r in reps}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for trial in range(100):
                path = str(tmp_path / f"chains{trial}.db")
                barrier = threading.Barrier(len(reps))
                errors = []

                def writer(rep):
                    try:
                        barrier.wait(timeout=30)
                        with ChainStore(path) as store:
                            assert store.put(rep, results[rep], "fen")
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=writer, args=(rep,))
                    for rep in reps
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert not errors, f"trial {trial}: {errors}"
                with ChainStore(path) as store:
                    for rep in reps:
                        assert store.lookup(rep) is not None
        finally:
            sys.setswitchinterval(switch)

    def test_lookup_never_waits_behind_a_blocked_write(self, tmp_path):
        """A write-back waiting on another connection's write lock
        holds the store's write lock; a lookup of a stored class must
        not wait for it."""
        import time

        path = str(tmp_path / "chains.db")
        fa_sum = run_engine("fen", FA_SUM, 30.0)
        with ChainStore(path) as store:
            assert store.put(MAJ, run_engine("fen", MAJ, 30.0), "fen")
            blocker = sqlite3.connect(path, isolation_level=None)
            blocker.execute("BEGIN IMMEDIATE")
            written, served = [], []
            writer = threading.Thread(
                target=lambda: written.append(
                    store.put(FA_SUM, fa_sum, "fen")
                )
            )
            reader = threading.Thread(
                target=lambda: served.append(store.lookup(MAJ))
            )
            try:
                writer.start()
                give_up = time.monotonic() + 10.0
                while not store._lock.locked():
                    assert time.monotonic() < give_up
                    time.sleep(0.005)
                reader.start()
                reader.join(timeout=1.0)
                assert not reader.is_alive(), "the lookup waited"
            finally:
                blocker.rollback()
                blocker.close()
                writer.join(timeout=60)
                reader.join(timeout=60)
            assert written == [True]
            assert served and served[0] is not None
            assert_chain_realizes(MAJ, served[0].chains[0])

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


def _poison_record(path, position, mutate):
    """Rewrite the stored record at ``position`` of the only row (through
    SQLite, behind the store's back); returns the corrupt record."""
    conn = sqlite3.connect(path)
    with conn:
        (payload,) = conn.execute("SELECT solutions FROM chains").fetchone()
        records = json.loads(payload)
        mutate(records[position])
        conn.execute(
            "UPDATE chains SET solutions = ?", (json.dumps(records),)
        )
    conn.close()
    return records[position]


def _flip_first_op(record):
    record["gates"][0][0] ^= 0xF


class TestEveryChainChecked:
    """A corrupt chain anywhere in a row, not only the first, is caught
    at lookup, and a write-back never brings it back."""

    FUNCTION = from_hex("8ff8", 4)

    def _poisoned_store(self, tmp_path):
        path = str(tmp_path / "chains.db")
        result = run_engine("hier", self.FUNCTION, 30.0)
        assert len(result.chains) == 4
        with ChainStore(path) as store:
            assert store.put(self.FUNCTION, result, "hier")
        corrupt = _poison_record(path, 1, _flip_first_op)
        # Stored records are canonical: the corrupt one must no longer
        # compute the class representative.
        canon = npn_canonical(self.FUNCTION)[0]
        assert chain_from_record(corrupt).simulate_output() != canon
        return path, result

    def test_corrupt_second_chain_is_never_served(self, tmp_path):
        path, _ = self._poisoned_store(tmp_path)
        with ChainStore(path) as store:
            executor = FaultTolerantExecutor(("hier",), store=store)
            outcome = executor.run(self.FUNCTION, 30.0)
            assert outcome.solved
            assert outcome.engine == "hier"
            assert outcome.store_quarantined == 1
            assert store.quarantined == 1
            for chain in outcome.result.chains:
                assert_chain_realizes(self.FUNCTION, chain)

    def test_lookup_misses_and_upper_bound_moves_on(self, tmp_path):
        path, result = self._poisoned_store(tmp_path)
        # A larger valid row: every optimal chain plus one dead gate.
        padded = []
        for chain in result.chains:
            grown = chain_from_record(chain_to_record(chain))
            grown.add_gate(0x8, (0, 1))
            padded.append(grown)
        bigger = SynthesisResult(
            spec=result.spec,
            chains=padded,
            num_gates=result.num_gates + 1,
            runtime=0.0,
        )
        with ChainStore(path) as store:
            assert store.put(self.FUNCTION, bigger, "hier", exact=False)
        with ChainStore(path) as store:
            assert store.lookup(self.FUNCTION) is None
            assert store.quarantined == 1
        # The quarantined row stays skipped; the bound row is served.
        with ChainStore(path) as store:
            served = store.lookup_upper_bound(self.FUNCTION)
            assert served.num_gates == result.num_gates + 1
            for chain in served.chains:
                assert_chain_realizes(self.FUNCTION, chain)

    def test_write_back_drops_the_corrupt_chain(self, tmp_path):
        path, result = self._poisoned_store(tmp_path)
        with ChainStore(path) as store:
            executor = FaultTolerantExecutor(("hier",), store=store)
            first = executor.run(self.FUNCTION, 30.0)
            assert first.engine == "hier" and first.store_quarantined == 1
            assert store.dropped == 1
            again = executor.run(self.FUNCTION, 30.0)
            assert again.solved and again.engine == "store"
            assert again.store_quarantined == 0
            assert sorted(c.signature() for c in again.result.chains) == (
                sorted(c.signature() for c in result.chains)
            )


def _orbit_member(rnd, table):
    perm = list(range(table.num_vars))
    rnd.shuffle(perm)
    transform = NPNTransform(
        tuple(perm),
        rnd.getrandbits(table.num_vars),
        bool(rnd.getrandbits(1)),
    )
    return transform.apply(table)


class TestPickLookup:
    """A pick lookup serves the one chain ``min`` chooses from the full
    answer, and corruption anywhere in the row still costs the row."""

    #: 4-input classes whose stored rows hold many optimal chains, and
    #: where the depth or the fanout pick is not the row's first.
    CLASSES = ("003d", "01a8", "01a9", "01aa", "01ef")
    FUNCTION = from_hex("01a9", 4)
    MEMBER = NPNTransform((2, 0, 3, 1), 0b0110, True).apply(FUNCTION)

    def _stored(self, tmp_path):
        """A store holding the class's row, and the position of a
        stored record the depth pick does not choose."""
        path = str(tmp_path / "chains.db")
        result = run_engine("stp", self.FUNCTION, 30.0)
        with ChainStore(path) as store:
            assert store.put(self.FUNCTION, result, "stp")
        conn = sqlite3.connect(path)
        (payload,) = conn.execute("SELECT solutions FROM chains").fetchone()
        conn.close()
        depths = [chain_from_record(r).depth() for r in json.loads(payload)]
        assert len(set(depths)) > 1
        return path, (depths.index(min(depths)) + 1) % len(depths)

    def test_pick_is_the_min_of_the_full_answer(self, tmp_path):
        rnd = random.Random(21)
        moved = 0
        with ChainStore(tmp_path / "chains.db") as store:
            for rep in (from_hex(h, 4) for h in self.CLASSES):
                assert store.put(rep, run_engine("stp", rep, 30.0), "stp")
                for _ in range(3):
                    member = _orbit_member(rnd, rep)
                    full = store.lookup(member)
                    for name in sorted(NPN_INVARIANT_COSTS):
                        best = min(full.chains, key=COST_MODELS[name])
                        moved += best is not full.chains[0]
                        picked = store.lookup(member, pick=name)
                        assert picked.num_gates == full.num_gates
                        assert [c.signature() for c in picked.chains] == [
                            best.signature()
                        ]
                        assert_chain_realizes(member, picked.chains[0])
            assert store.quarantined == 0
        assert moved, "every pick was the first chain: nothing was tested"

    def test_unpicked_corrupt_record_quarantines_the_row(self, tmp_path):
        path, unpicked = self._stored(tmp_path)
        corrupt = _poison_record(path, unpicked, _flip_first_op)
        canon = npn_canonical(self.FUNCTION)[0]
        assert chain_from_record(corrupt).simulate_output() != canon
        with ChainStore(path) as store:
            events = []
            assert store.lookup(self.MEMBER, pick="depth", events=events) is None
            assert store.quarantined == 1 and store.misses == 1
            assert [kind for kind, _ in events] == ["quarantined"]
            assert store.lookup(self.MEMBER) is None  # the row stays skipped

    def test_payload_changed_after_a_checked_pick_is_checked_again(
        self, tmp_path
    ):
        path, unpicked = self._stored(tmp_path)
        with ChainStore(path) as store:
            served = store.lookup(self.MEMBER, pick="depth")
            assert served is not None
            assert_chain_realizes(self.MEMBER, served.chains[0])
            _poison_record(path, unpicked, _flip_first_op)
            assert store.lookup(self.MEMBER, pick="depth") is None
            assert store.quarantined == 1

    def test_payload_changed_after_a_checked_lookup_is_checked_again(
        self, tmp_path
    ):
        path, unpicked = self._stored(tmp_path)
        with ChainStore(path) as store:
            served = store.lookup(self.MEMBER)
            assert served is not None
            for chain in served.chains:
                assert_chain_realizes(self.MEMBER, chain)
            _poison_record(path, unpicked, _flip_first_op)
            assert store.lookup(self.MEMBER) is None
            assert store.quarantined == 1

    def test_concurrent_pick_lookups_serve_only_checked_chains(
        self, tmp_path
    ):
        """Threads share one store's memo while its row is rewritten
        behind it, with pick and plain lookups mixed: every chain
        served realizes its query, and once the corrupt payload is read
        the row is gone for everyone."""
        import sys

        path, unpicked = self._stored(tmp_path)
        served, errors = [], []
        poisoned = threading.Event()

        def reader(seed):
            rnd = random.Random(seed)
            try:
                for i in range(40):
                    if seed == 0 and i == 10:
                        _poison_record(path, unpicked, _flip_first_op)
                        poisoned.set()
                    member = _orbit_member(rnd, self.FUNCTION)
                    name = rnd.choice(
                        sorted(NPN_INVARIANT_COSTS) + [None]
                    )
                    result = store.lookup(member, pick=name)
                    if result is not None:
                        served.append((member, name, result.chains))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ChainStore(path) as store:
                threads = [
                    threading.Thread(target=reader, args=(seed,))
                    for seed in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors
                assert poisoned.is_set()
                assert store.quarantined >= 1
                assert store.lookup(self.MEMBER, pick="depth") is None
        finally:
            sys.setswitchinterval(interval)
        assert served
        assert {name is None for _, name, _ in served} == {True, False}
        for member, name, chains in served:
            assert len(chains) == 1 or name is None
            for chain in chains:
                assert_chain_realizes(member, chain)

    def test_only_npn_invariant_costs_can_pick(self, tmp_path):
        path, _ = self._stored(tmp_path)
        with ChainStore(path) as store:
            for name in sorted(set(COST_MODELS) - NPN_INVARIANT_COSTS):
                with pytest.raises(ValueError):
                    store.lookup(self.MEMBER, pick=name)


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
