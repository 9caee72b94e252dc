"""Racing (executor ``width >= 2``): cancellation, stragglers,
degradation."""

import pytest

from repro.engine import run_engine
from repro.runtime.executor import FaultTolerantExecutor, format_trail
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.racing import RACE_WIDTH
from repro.store import ChainStore
from repro.truthtable import from_hex

from tests.helpers import assert_no_orphans


class TestWinnerCancelsLosers:
    def test_winner_reaps_all_losers(self):
        executor = FaultTolerantExecutor(
            ("stp", "fen", "cegis"), width=RACE_WIDTH
        )
        outcome = executor.run(from_hex("e8", 3), timeout=30.0)
        assert outcome.solved and outcome.exact
        assert outcome.result.num_gates == 4  # majority-3 optimum
        # Exactly one lane won; the others were cancelled.
        assert len(executor.last_cancellations) == 2
        assert_no_orphans(executor.last_cancellations)
        names = {c.engine for c in executor.last_cancellations}
        assert outcome.engine not in names

    def test_hung_lanes_cannot_stall_the_race(self):
        # Both non-winning lanes hang forever; the winner's return
        # must still reap them promptly.
        plan = FaultPlan(
            {
                FaultPlan.WILDCARD: [
                    FaultSpec(kind="hang", engine="stp", times=None),
                    FaultSpec(kind="hang", engine="cegis", times=None),
                ]
            }
        )
        executor = FaultTolerantExecutor(
            ("stp", "fen", "cegis"), width=RACE_WIDTH, fault_plan=plan
        )
        outcome = executor.run(from_hex("e8", 3), timeout=10.0)
        assert outcome.solved
        assert outcome.engine == "fen"
        assert_no_orphans(executor.last_cancellations)

    def test_cancellation_under_wildcard_fault_injection(self):
        # WILDCARD faults hit lanes the plan never named explicitly;
        # the race must still settle and leave no orphan workers.
        plan = FaultPlan(
            {
                FaultPlan.WILDCARD: [
                    FaultSpec(kind="crash", times=1),
                    FaultSpec(kind="hang", times=1),
                ]
            }
        )
        executor = FaultTolerantExecutor(
            ("stp", "fen", "cegis"), width=RACE_WIDTH, fault_plan=plan
        )
        outcome = executor.run(from_hex("e8", 3), timeout=10.0)
        assert outcome.solved
        assert_no_orphans(executor.last_cancellations)
        statuses = {r.status for r in outcome.trail}
        assert "ok" in statuses

    def test_corrupt_lane_loses_the_race(self):
        plan = FaultPlan(
            {
                FaultPlan.WILDCARD: FaultSpec(
                    kind="corrupt", engine="stp", times=None
                )
            }
        )
        executor = FaultTolerantExecutor(
            ("stp", "fen"), width=RACE_WIDTH, fault_plan=plan
        )
        outcome = executor.run(from_hex("e8", 3), timeout=30.0)
        assert outcome.solved and outcome.engine == "fen"
        corrupt = [r for r in outcome.trail if r.status == "corrupt"]
        assert corrupt and corrupt[0].engine == "stp"


class TestStragglers:
    @pytest.mark.slow
    @pytest.mark.parametrize("hexval", ["0016", "0017"])
    def test_npn4_stragglers_solve_exactly_under_race(self, hexval):
        # The two NPN4 classes the sequential stp pipeline cannot
        # finish in a tier-1 budget; racing recovers them exactly.
        executor = FaultTolerantExecutor(
            ("stp", "fen", "cegis"), width=RACE_WIDTH
        )
        outcome = executor.run(from_hex(hexval, 4), timeout=60.0)
        assert outcome.solved and outcome.exact
        assert outcome.result.num_gates == 5
        for chain in outcome.result.chains:
            assert chain.simulate_output() == from_hex(hexval, 4)
        assert_no_orphans(executor.last_cancellations)


class TestGracefulDegradation:
    def _store_with_upper_bound(self, tmp_path, function):
        store = ChainStore(str(tmp_path / "chains.db"))
        result = run_engine("fen", function, 60.0)
        assert store.put(function, result, "hier", exact=False)
        return store, result.num_gates

    def test_all_lanes_exhausted_serves_store_upper_bound(
        self, tmp_path
    ):
        function = from_hex("e8", 3)
        store, bound = self._store_with_upper_bound(tmp_path, function)
        plan = FaultPlan(
            {
                FaultPlan.WILDCARD: FaultSpec(
                    kind="timeout", times=None
                )
            }
        )
        with store:
            executor = FaultTolerantExecutor(
                ("stp", "fen"), width=RACE_WIDTH, fault_plan=plan,
                store=store,
            )
            outcome = executor.run(function, timeout=5.0)
        assert outcome.status == "degraded"
        assert outcome.degraded and not outcome.solved
        assert outcome.exact is False
        assert outcome.engine == "store"
        assert outcome.result.num_gates == bound
        for chain in outcome.result.chains:
            assert chain.simulate_output() == function

    def test_inexact_lane_result_serves_when_store_is_cold(self):
        # Exact lanes fail, but the heuristic lane's verified answer
        # is held and served as the degraded upper bound.
        plan = FaultPlan(
            {
                FaultPlan.WILDCARD: [
                    FaultSpec(kind="timeout", engine="stp", times=None),
                    FaultSpec(kind="timeout", engine="fen", times=None),
                ]
            }
        )
        executor = FaultTolerantExecutor(
            ("stp", "fen", "hier"), width=RACE_WIDTH, fault_plan=plan
        )
        outcome = executor.run(from_hex("e8", 3), timeout=10.0)
        assert outcome.status == "degraded"
        assert outcome.exact is False
        assert outcome.engine == "hier"
        for chain in outcome.result.chains:
            assert chain.simulate_output() == from_hex("e8", 3)

    def test_nothing_to_serve_stays_a_plain_failure(self):
        plan = FaultPlan(
            {
                FaultPlan.WILDCARD: FaultSpec(
                    kind="timeout", times=None
                )
            }
        )
        executor = FaultTolerantExecutor(
            ("stp", "fen"), width=RACE_WIDTH, fault_plan=plan
        )
        outcome = executor.run(from_hex("e8", 3), timeout=5.0)
        assert outcome.status == "timeout"
        assert outcome.result is None

    def test_infeasible_from_an_exact_lane_ends_the_race(self):
        executor = FaultTolerantExecutor(
            ("fen", "cegis"),
            width=RACE_WIDTH,
            engine_kwargs={
                "fen": {"max_gates": 1},
                "cegis": {"max_gates": 1},
            },
        )
        outcome = executor.run(from_hex("8ff8", 4), timeout=30.0)
        assert outcome.status == "infeasible"


class TestStoreIntegration:
    def test_exact_win_is_written_back_and_served(self, tmp_path):
        function = from_hex("e8", 3)
        with ChainStore(str(tmp_path / "chains.db")) as store:
            executor = FaultTolerantExecutor(
                ("fen", "cegis"), width=RACE_WIDTH, store=store
            )
            cold = executor.run(function, timeout=30.0)
            assert cold.solved and store.writes == 1
            warm = executor.run(function, timeout=30.0)
            assert warm.solved and warm.engine == "store"

    def test_quarantined_rows_are_counted_per_run(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "chains.db")
        function = from_hex("e8", 3)
        with ChainStore(path) as store:
            store.put(function, run_engine("fen", function, 30.0), "fen")
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE chains SET solutions = '[{\"v\": 9}]'")
        conn.close()
        with ChainStore(path) as store:
            executor = FaultTolerantExecutor(
                ("fen",), width=RACE_WIDTH, store=store
            )
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


class TestTrailFormatting:
    def test_trail_names_engine_error_class_and_seconds(self):
        plan = FaultPlan(
            {"e8": FaultSpec(kind="crash", engine="stp", times=None)}
        )
        executor = FaultTolerantExecutor(
            ("stp", "fen"), fault_plan=plan, max_retries=0
        )
        outcome = executor.run(from_hex("e8", 3), timeout=30.0)
        assert outcome.solved and outcome.engine == "fen"
        lines = format_trail(outcome.trail)
        assert len(lines) == len(outcome.trail)
        failed = [
            line
            for line, record in zip(lines, outcome.trail)
            if record.status != "ok"
        ]
        assert failed
        for line in failed:
            assert "engine stp" in line
            assert "[RuntimeError]" in line  # the error class
            assert "s (" in line and "after" in line  # the seconds

    def test_attempt_records_carry_the_error_class(self):
        plan = FaultPlan(
            {"e8": FaultSpec(kind="timeout", engine="stp", times=None)}
        )
        executor = FaultTolerantExecutor(
            ("stp", "fen"),
            fault_plan=plan,
            max_retries=0,
            fallback_on_timeout=True,
        )
        outcome = executor.run(from_hex("e8", 3), timeout=30.0)
        record = outcome.trail[0]
        assert record.error_class == "BudgetExceeded"
        assert record.to_record()["error_class"] == "BudgetExceeded"
