"""Fault-tolerant runtime tests: errors, workers, executor, faults.

Every degradation path the runtime promises is exercised here via the
deterministic fault-injection harness — hung workers, crashed workers,
corrupt results, missing engines, retry with backoff, and the
STP → FEN fallback chain — together with the resident worker pool's
lease rules: reuse, retirement, close, and the fork/pipe race.
"""

import gc
import sys
import threading
import time
from collections import deque

import pytest

from repro.bench.runner import default_algorithms, run_suite
from repro.chain import BooleanChain
from repro.core.spec import SynthesisResult
from repro.bench.suites import get_suite
from repro.engine import create_engine, engine_names, run_engine
from repro.runtime.errors import (
    BudgetExceeded,
    EngineUnavailable,
    SynthesisError,
    SynthesisInfeasible,
    VerificationFailed,
    WorkerCrash,
    classify_failure,
)
from repro.runtime.executor import (
    BACKOFF,
    BACKOFF_FACTOR,
    DEFAULT_FALLBACK_CHAIN,
    FaultTolerantExecutor,
    format_trail,
)
from repro.runtime.faults import FaultPlan, FaultSpec, execute_fault
from repro.runtime.worker import WorkerPool, WorkerTask, run_isolated
from repro.store import chain_from_record, chain_to_record
from repro.truthtable import from_hex

from tests.helpers import (
    assert_reaped,
    record_attempts,
    record_tasks,
    record_worker_forks,
)

EASY = from_hex("8ff8", 4)  # paper Example 7: optimum is 3 gates


class TestErrorHierarchy:
    def test_every_failure_is_a_synthesis_error(self):
        for cls in (
            BudgetExceeded,
            WorkerCrash,
            VerificationFailed,
            EngineUnavailable,
            SynthesisInfeasible,
        ):
            assert issubclass(cls, SynthesisError)

    def test_legacy_compatibility(self):
        # Seed-era handlers catch TimeoutError / RuntimeError; the
        # structured classes must keep satisfying them.
        assert issubclass(BudgetExceeded, TimeoutError)
        assert issubclass(SynthesisInfeasible, RuntimeError)

    def test_budget_exceeded_carries_numbers(self):
        exc = BudgetExceeded("x", budget=1.5, elapsed=2.0)
        assert exc.budget == 1.5
        assert exc.elapsed == 2.0

    def test_classify(self):
        assert classify_failure(BudgetExceeded()) == "timeout"
        assert classify_failure(TimeoutError()) == "timeout"
        assert classify_failure(SynthesisInfeasible()) == "infeasible"
        assert classify_failure(WorkerCrash()) == "crash"
        assert classify_failure(VerificationFailed()) == "corrupt"
        assert classify_failure(EngineUnavailable()) == "unavailable"
        assert classify_failure(ValueError("boom")) == "crash"


class TestEngineRegistry:
    def test_known_engines(self):
        assert set(DEFAULT_FALLBACK_CHAIN) <= set(engine_names())
        for name in engine_names():
            assert callable(create_engine(name).synthesize)

    def test_unknown_engine(self):
        with pytest.raises(EngineUnavailable):
            create_engine("abc9000")
        with pytest.raises(EngineUnavailable):
            run_engine("abc9000", EASY, 30.0)

    def test_adapters_ignore_foreign_kwargs(self):
        # One shared kwargs dict must be usable across a heterogeneous
        # chain; engines silently drop the knobs they don't support.
        result = run_engine(
            "fen", EASY, 30.0, max_solutions=4, all_solutions=True
        )
        assert result.chains[0].simulate_output() == EASY


class TestFaultPlan:
    def test_draw_burns_out(self):
        plan = FaultPlan({"k": FaultSpec("crash", times=2)})
        assert plan.draw("k").kind == "crash"
        assert plan.draw("k").kind == "crash"
        assert plan.draw("k") is None
        assert plan.fired("k") == 2

    def test_engine_scoping(self):
        plan = FaultPlan({"k": FaultSpec("crash", engine="stp")})
        assert plan.draw("k", "fen") is None
        assert plan.draw("k", "stp").kind == "crash"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("segfault")

    def test_wildcard_matches_any_key(self):
        plan = FaultPlan({FaultPlan.WILDCARD: FaultSpec("crash", times=2)})
        assert plan.draw("aaaa").kind == "crash"
        assert plan.draw("bbbb").kind == "crash"
        # Burn-out is global across keys, not per instance.
        assert plan.draw("cccc") is None

    def test_exact_key_takes_precedence_over_wildcard(self):
        plan = FaultPlan(
            {
                "k": FaultSpec("timeout", times=1),
                FaultPlan.WILDCARD: FaultSpec("crash", times=None),
            }
        )
        assert plan.draw("k").kind == "timeout"
        # Exact entry burnt out: the wildcard takes over.
        assert plan.draw("k").kind == "crash"
        assert plan.draw("other").kind == "crash"

    def test_wildcard_respects_engine_scoping(self):
        plan = FaultPlan(
            {FaultPlan.WILDCARD: FaultSpec("crash", engine="stp")}
        )
        assert plan.draw("k", "fen") is None
        assert plan.draw("k", "stp").kind == "crash"

    def test_corrupt_fault_is_wrong_but_well_formed(self):
        result = execute_fault(
            FaultSpec("corrupt"), EASY, None, isolated=False
        )
        assert result.chains[0].simulate_output() != EASY


class TestIsolatedWorker:
    def test_result_crosses_the_process_boundary(self):
        task = WorkerTask(
            "stp", EASY.bits, 4, 30.0, {"max_solutions": 2}
        )
        result = run_isolated(task)
        assert result.num_gates == 3
        for chain in result.chains:
            assert chain.simulate_output() == EASY

    def test_hung_worker_is_killed_within_1_5x_budget(self):
        """Acceptance: a non-polling busy loop cannot wedge the run."""
        task = WorkerTask(
            "stp", EASY.bits, 4, 1.0, fault=FaultSpec("hang")
        )
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            run_isolated(task)
        assert time.perf_counter() - start < 1.5

    def test_hard_crash_is_a_worker_crash(self):
        task = WorkerTask(
            "stp", EASY.bits, 4, 10.0, fault=FaultSpec("hard-crash")
        )
        with pytest.raises(WorkerCrash) as info:
            run_isolated(task)
        assert info.value.exitcode == 66

    def test_in_child_exception_is_a_worker_crash(self):
        task = WorkerTask(
            "stp", EASY.bits, 4, 10.0, fault=FaultSpec("crash")
        )
        with pytest.raises(WorkerCrash):
            run_isolated(task)

    def test_infeasible_crosses_the_boundary(self):
        task = WorkerTask(
            "stp", EASY.bits, 4, 30.0, {"max_gates": 1}
        )
        with pytest.raises(SynthesisInfeasible):
            run_isolated(task)

    def test_memory_cap_turns_hog_into_crash(self):
        task = WorkerTask(
            "stp",
            EASY.bits,
            4,
            10.0,
            fault=FaultSpec("hog"),
            memory_limit_mb=256,
        )
        start = time.perf_counter()
        with pytest.raises(WorkerCrash):
            run_isolated(task)
        # MemoryError fires long before the hard timeout would.
        assert time.perf_counter() - start < 10.0


class TestExecutorFallback:
    def test_plain_run(self):
        executor = FaultTolerantExecutor(
            ("stp", "fen"), engine_kwargs={"stp": {"max_solutions": 4}}
        )
        outcome = executor.run(EASY, timeout=30)
        assert outcome.solved
        assert outcome.engine == "stp"
        assert outcome.fallback_from is None
        assert outcome.attempts == 1

    def test_stp_crash_degrades_to_verified_fen(self):
        """Acceptance: an injected STP crash falls back to the CNF
        fence baseline, which still returns a simulation-verified
        chain, and the outcome records the degradation."""
        plan = FaultPlan(
            {EASY.to_hex(): FaultSpec("crash", engine="stp", times=None)}
        )
        executor = FaultTolerantExecutor(("stp", "fen"), fault_plan=plan)
        outcome = executor.run(EASY, timeout=30)
        assert outcome.solved
        assert outcome.engine == "fen"
        assert outcome.fallback_from == "stp"
        for chain in outcome.result.chains:
            assert chain.simulate_output() == EASY
        # the trail shows the crashed attempts before the rescue
        assert [r.status for r in outcome.trail][-1] == "ok"
        assert "crash" in {r.status for r in outcome.trail}

    def test_transient_crash_is_retried_with_backoff(self):
        naps = []
        plan = FaultPlan(
            {EASY.to_hex(): FaultSpec("crash", engine="stp", times=1)}
        )
        executor = FaultTolerantExecutor(
            ("stp",),
            fault_plan=plan,
            max_retries=2,
            engine_kwargs={"stp": {"max_solutions": 2}},
            sleep=naps.append,
        )
        outcome = executor.run(EASY, timeout=30)
        assert outcome.solved
        assert outcome.engine == "stp"
        assert outcome.attempts == 2
        assert naps == [pytest.approx(BACKOFF)]

    def test_backoff_grows_exponentially(self):
        naps = []
        plan = FaultPlan(
            {EASY.to_hex(): FaultSpec("crash", times=None)}
        )
        executor = FaultTolerantExecutor(
            ("stp",),
            fault_plan=plan,
            max_retries=2,
            sleep=naps.append,
        )
        outcome = executor.run(EASY, timeout=30)
        assert outcome.status == "crash"
        assert outcome.attempts == 3
        assert naps == [
            pytest.approx(BACKOFF),
            pytest.approx(BACKOFF * BACKOFF_FACTOR),
        ]

    def test_corrupt_result_is_caught_and_degraded(self):
        plan = FaultPlan(
            {EASY.to_hex(): FaultSpec("corrupt", engine="stp", times=None)}
        )
        executor = FaultTolerantExecutor(
            ("stp", "fen"), fault_plan=plan
        )
        outcome = executor.run(EASY, timeout=30)
        assert outcome.solved
        assert outcome.engine == "fen"
        assert outcome.fallback_from == "stp"
        assert outcome.trail[0].status == "corrupt"

    def test_every_chain_needs_exactly_one_output(self):
        """A single-table answer whose chain has a second output is
        corrupt even when its first output realises the table; so is
        one whose first chain is right but whose second is not."""
        good = run_engine("stp", EASY, 30.0, max_solutions=4)
        extra = chain_from_record(chain_to_record(good.chains[0]))
        extra.set_output(0)
        # The second chain's gates, read at its first gate instead.
        wrong = BooleanChain.from_record(
            (4, good.chains[1].signature()[1], ((4, False),))
        )
        for chains in ([extra], [good.chains[0], wrong]):
            answer = SynthesisResult(
                spec=good.spec, chains=chains, num_gates=3, runtime=0.0
            )
            executor = FaultTolerantExecutor(
                [("bad", lambda table, budget, **kw: answer)], max_retries=0
            )
            outcome = executor.run(EASY, timeout=30)
            assert not outcome.solved
            assert outcome.trail[0].status == "corrupt"

    def test_timeout_does_not_fall_back_by_default(self):
        plan = FaultPlan(
            {EASY.to_hex(): FaultSpec("timeout", engine="stp", times=None)}
        )
        executor = FaultTolerantExecutor(
            ("stp", "fen"), fault_plan=plan
        )
        outcome = executor.run(EASY, timeout=30)
        assert not outcome.solved
        assert outcome.status == "timeout"
        # fen never ran
        assert {r.engine for r in outcome.trail} == {"stp"}

    def test_nothing_to_serve_stays_a_plain_failure(self):
        plan = FaultPlan(
            {
                FaultPlan.WILDCARD: FaultSpec(
                    kind="timeout", times=None
                )
            }
        )
        executor = FaultTolerantExecutor(("stp", "fen"), fault_plan=plan)
        outcome = executor.run(from_hex("e8", 3), timeout=5.0)
        assert outcome.status == "timeout"
        assert outcome.result is None

    def test_infeasible_from_an_exact_lane_ends_the_walk(self):
        executor = FaultTolerantExecutor(
            ("fen", "cegis"),
            engine_kwargs={
                "fen": {"max_gates": 1},
                "cegis": {"max_gates": 1},
            },
        )
        outcome = executor.run(from_hex("8ff8", 4), timeout=30.0)
        assert outcome.status == "infeasible"
        assert [record.engine for record in outcome.trail] == ["fen"]

    def test_infeasible_from_an_inexact_lane_walks_on(self):
        def capped(table, budget, **kwargs):
            raise SynthesisInfeasible("no chain within the cap")

        executor = FaultTolerantExecutor([("inexact", capped), "fen"])
        outcome = executor.run(EASY, timeout=30.0)
        assert outcome.solved
        assert outcome.engine == "fen" and outcome.exact
        assert [record.status for record in outcome.trail] == [
            "infeasible",
            "ok",
        ]

    def test_unavailable_engine_falls_through(self):
        executor = FaultTolerantExecutor(("nonesuch", "fen"))
        outcome = executor.run(EASY, timeout=30)
        assert outcome.solved
        assert outcome.engine == "fen"

    def test_whole_chain_failing_records_last_error(self):
        plan = FaultPlan(
            {EASY.to_hex(): FaultSpec("crash", times=None)}
        )
        executor = FaultTolerantExecutor(
            ("stp", "fen"),
            fault_plan=plan,
            max_retries=0,
        )
        outcome = executor.run(EASY, timeout=30)
        assert not outcome.solved
        assert outcome.status == "crash"
        assert outcome.engine == ""
        assert "injected crash" in outcome.error
        assert len(outcome.trail) == 2  # one attempt per engine

    def test_isolated_hang_outcome_recorded_and_run_continues(self):
        """Acceptance: a hung worker is killed, recorded as a timeout
        outcome, and the caller can keep going."""
        plan = FaultPlan(
            {EASY.to_hex(): FaultSpec("hang", times=None)}
        )
        executor = FaultTolerantExecutor(
            ("stp",), isolate=True, fault_plan=plan, max_retries=0
        )
        start = time.perf_counter()
        outcome = executor.run(EASY, timeout=1.0)
        assert time.perf_counter() - start < 1.5
        assert outcome.status == "timeout"
        assert not outcome.solved
        # the executor is reusable after a kill
        clean = FaultTolerantExecutor(
            ("stp",), isolate=True,
            engine_kwargs={"stp": {"max_solutions": 2}},
        )
        assert clean.run(EASY, timeout=30).solved

    def test_outcome_record_is_json_safe(self):
        import json

        executor = FaultTolerantExecutor(
            ("stp",), engine_kwargs={"stp": {"max_solutions": 2}}
        )
        outcome = executor.run(EASY, timeout=30)
        record = json.loads(json.dumps(outcome.to_record()))
        assert record["status"] == "ok"
        assert record["num_gates"] == 3
        assert record["trail"][0]["engine"] == "stp"

    def test_callable_engines_cannot_be_isolated(self):
        with pytest.raises(ValueError):
            FaultTolerantExecutor(
                [("x", lambda f, t: None)], isolate=True
            )

    def test_memory_cap_needs_isolation(self):
        # Only a worker process can apply RLIMIT_AS; an in-process walk
        # would drop the cap silently.
        with pytest.raises(ValueError, match="isolate"):
            FaultTolerantExecutor(("stp",), memory_limit_mb=256)
        FaultTolerantExecutor(
            ("stp",), isolate=True, memory_limit_mb=256
        ).close()

    def test_needs_at_least_one_engine(self):
        with pytest.raises(ValueError):
            FaultTolerantExecutor(())

    def test_inexact_engine_is_not_reported_exact(self):
        # hier's capabilities do not claim exactness: its answer is
        # accepted by the walk but is not a proven optimum.
        outcome = FaultTolerantExecutor(("hier",)).run(
            from_hex("e8", 3), 30.0
        )
        assert outcome.solved and outcome.engine == "hier"
        assert outcome.exact is False

    def test_lapsed_deadline_never_spawns_a_lane(self, monkeypatch):
        tasks = record_tasks(monkeypatch)
        forked = record_worker_forks(monkeypatch)
        with FaultTolerantExecutor(("stp", "fen"), isolate=True) as executor:
            outcome = executor.run(
                EASY, 30.0, expire_at=time.monotonic() - 1.0
            )
        assert outcome.status == "timeout"
        assert outcome.trail == []
        assert tasks == [] and forked == []


class TestStragglers:
    @pytest.mark.slow
    @pytest.mark.parametrize("hexval", ["0016", "0017"])
    def test_npn4_stragglers_solve_exactly(self, hexval):
        # The two NPN4 classes that dominate the kernel bench's search
        # time; the walk's first lane, stp, solves each exactly in well
        # under a second.
        executor = FaultTolerantExecutor(("stp", "fen", "cegis"))
        outcome = executor.run(from_hex(hexval, 4), timeout=60.0)
        assert outcome.solved and outcome.exact
        assert outcome.engine == "stp"
        assert outcome.result.num_gates == 5
        for chain in outcome.result.chains:
            assert chain.simulate_output() == from_hex(hexval, 4)


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
            ("stp", "fen"), fault_plan=plan, max_retries=0
        )
        outcome = executor.run(from_hex("e8", 3), timeout=30.0)
        record = outcome.trail[0]
        assert record.error_class == "BudgetExceeded"
        assert record.to_record()["error_class"] == "BudgetExceeded"


def _stp_executor(**kwargs):
    return FaultTolerantExecutor(
        ("stp",),
        isolate=True,
        engine_kwargs={"stp": {"max_solutions": 2}},
        **kwargs,
    )


class TestResidentWorkers:
    """Lease rules of the executor's worker pool."""

    def test_consecutive_attempts_share_one_worker(self, monkeypatch):
        forked = record_worker_forks(monkeypatch)
        attempts = record_attempts(monkeypatch)
        with _stp_executor() as executor:
            for function in (EASY, from_hex("e8", 3), EASY):
                assert executor.run(function, 30.0).solved
        assert len(forked) == 1
        assert [pid for _, pid in attempts] == [forked[0].pid] * 3

    def test_run_suite_forks_at_most_jobs_workers(self, monkeypatch):
        forked = record_worker_forks(monkeypatch)
        stp = [
            a for a in default_algorithms(max_solutions=16)
            if a.name == "STP"
        ]
        reports = run_suite(
            "npn4", get_suite("npn4", 20), stp, 60.0, jobs=2
        )
        assert reports[0].num_ok == 20
        assert 1 <= len(forked) <= 2
        # run_suite closed its executor: no worker outlives it.
        assert not any(process.is_alive() for process in forked)

    @pytest.mark.parametrize(
        "kind, status, timeout",
        [
            ("hang", "timeout", 1.0),  # hard kill
            ("hard-crash", "crash", 10.0),
            ("crash", "crash", 10.0),
            ("hog", "crash", 10.0),
            ("timeout", "timeout", 10.0),  # cooperative
        ],
    )
    def test_failure_retires_the_worker(
        self, monkeypatch, kind, status, timeout
    ):
        attempts = record_attempts(monkeypatch)
        plan = FaultPlan()
        executor = _stp_executor(
            max_retries=0,
            fault_plan=plan,
            memory_limit_mb=256 if kind == "hog" else None,
        )
        with executor:
            assert executor.run(EASY, 30.0).solved
            plan.add(EASY.to_hex(), FaultSpec(kind))
            started = time.perf_counter()
            failed = executor.run(EASY, timeout)
            assert time.perf_counter() - started < 1.5 * timeout
            assert failed.status == status
            if kind == "hard-crash":
                assert "exit code 66" in failed.error
            assert executor.run(EASY, 30.0).solved
        warm, faulted, fresh = [pid for _, pid in attempts]
        assert faulted == warm  # the fault hit the resident worker
        assert fresh != warm
        assert_reaped(warm)

    def test_close_is_idempotent_and_leaves_no_live_child(
        self, monkeypatch
    ):
        forked = record_worker_forks(monkeypatch)
        executor = _stp_executor()
        assert forked == []  # forks lazily, never in the constructor
        assert executor.run(EASY, 30.0).solved
        assert [process.is_alive() for process in forked] == [True]
        executor.close()
        executor.close()
        assert not forked[0].is_alive()
        assert forked[0].exitcode == 0  # stopped, not killed
        # A closed executor still answers, but keeps no worker.
        assert executor.run(EASY, 30.0).solved
        assert len(forked) == 2
        assert not any(process.is_alive() for process in forked)

    def test_unclosed_executor_stops_its_workers_when_collected(
        self, monkeypatch
    ):
        forked = record_worker_forks(monkeypatch)
        executor = _stp_executor()
        assert executor.run(EASY, 30.0).solved
        del executor
        gc.collect()
        assert not forked[0].is_alive()


class TestForkPipeRace:
    def test_hard_crash_is_seen_at_once_beside_forking_siblings(self):
        """Sibling threads fork resident workers while the main thread's
        workers hard-crash: a sibling forked between another worker's
        pipe creation and the parent's close of its child end would
        hold that end open, and the crash would surface only at the
        hard deadline (7 s here) instead of at once."""
        stop = threading.Event()
        errors: list = []
        unavailable = WorkerTask("nonesuch", EASY.bits, 4, 5.0)

        def churn():
            # Each sibling stays resident for ~1 s after its fork.
            live: deque = deque()
            try:
                while not stop.is_set():
                    pool = WorkerPool()
                    try:
                        run_isolated(unavailable, pool)
                    except EngineUnavailable:
                        pass
                    live.append((time.perf_counter(), pool))
                    while live and time.perf_counter() - live[0][0] > 1.0:
                        live.popleft()[1].close()
                    time.sleep(0.02)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
            finally:
                for _, pool in live:
                    pool.close()

        crash = WorkerTask(
            "stp", EASY.bits, 4, 5.0, fault=FaultSpec("hard-crash")
        )
        siblings = [threading.Thread(target=churn) for _ in range(2)]
        slowest = 0.0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in siblings:
                thread.start()
            for _ in range(150):
                started = time.perf_counter()
                with pytest.raises(WorkerCrash) as info:
                    run_isolated(crash)
                slowest = max(slowest, time.perf_counter() - started)
                assert info.value.exitcode == 66
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in siblings:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in siblings)
        assert errors == []
        assert slowest < 0.75
