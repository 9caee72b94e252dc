"""Parallel batch-synthesis scheduler tests.

Unit tests drive :class:`BatchScheduler` with fake executors (dispatch
order, result ordering, worker accounting, error propagation, bounded
queue); integration tests check the acceptance property that aggregate
suite results are identical regardless of ``jobs``, and that
checkpoint/resume keeps working under concurrency.
"""

import io
import json
import random
import threading
import time

import pytest

from repro.bench.runner import (
    Algorithm,
    default_algorithms,
    run_suite,
)
from repro.bench.suites import get_suite
from repro.parallel import (
    BatchScheduler,
    BatchTask,
    ProgressReporter,
    expected_cost,
)
from repro.runtime.checkpoint import CheckpointLog, instance_key
from repro.runtime.executor import ExecutionOutcome, FaultTolerantExecutor
from repro.truthtable import from_hex


def _outcome(function, status="ok"):
    out = ExecutionOutcome(
        function_hex=function.to_hex(),
        num_vars=function.num_vars,
        status=status,
        engine="fake",
        runtime=0.001,
    )
    if status == "ok":
        out.result = object()  # .solved only checks non-None
    return out


class FakeExecutor:
    """In-process stand-in recording call order."""

    def __init__(self, status_for=None, raise_on=None, delay=0.0):
        self.calls = []
        self._status_for = status_for or {}
        self._raise_on = raise_on or set()
        self._delay = delay
        self._lock = threading.Lock()

    def run(self, function, timeout):
        with self._lock:
            self.calls.append(function.to_hex())
        if self._delay:
            time.sleep(self._delay)
        if function.to_hex() in self._raise_on:
            raise RuntimeError("executor blew up")
        status = self._status_for.get(function.to_hex(), "ok")
        return _outcome(function, status)


def _tasks(hexes, num_vars=4, algorithm="STP", timeout=10.0):
    return [
        BatchTask(
            index=i,
            algorithm=algorithm,
            function=from_hex(h, num_vars),
            timeout=timeout,
        )
        for i, h in enumerate(hexes)
    ]


class TestExpectedCost:
    def test_support_dominates(self):
        narrow = from_hex("aaaa", 4)  # f = x0: support 1
        wide = from_hex("8ff8", 4)  # full support
        assert expected_cost(narrow) < expected_cost(wide)

    def test_balance_breaks_ties(self):
        skewed = from_hex("0001", 4)  # 1 one
        balanced = from_hex("8ff8", 4)  # 8 ones
        assert expected_cost(skewed) < expected_cost(balanced)


class TestSchedulerUnit:
    def test_results_line_up_with_task_order(self):
        hexes = ["8ff8", "aaaa", "0001", "cafe", "6996"]
        tasks = _tasks(hexes)
        scheduler = BatchScheduler({"STP": FakeExecutor()}, jobs=3)
        outcomes = scheduler.run(tasks)
        assert [o.function_hex for o in outcomes] == hexes

    def test_dispatch_is_longest_expected_first(self):
        hexes = ["0001", "8ff8", "aaaa", "6996"]
        tasks = _tasks(hexes)
        executor = FakeExecutor()
        scheduler = BatchScheduler({"STP": executor}, jobs=1)
        scheduler.run(tasks)
        costs = [
            expected_cost(from_hex(h, 4)) for h in executor.calls
        ]
        assert costs == sorted(costs, reverse=True)

    def test_worker_accounting(self):
        hexes = ["8ff8", "aaaa", "0001", "cafe"]
        tasks = _tasks(hexes)
        executor = FakeExecutor(
            status_for={"aaaa": "timeout", "cafe": "crash"}
        )
        scheduler = BatchScheduler({"STP": executor}, jobs=2)
        scheduler.run(tasks)
        totals = {"tasks": 0, "solved": 0, "timeouts": 0, "crashes": 0}
        for stats in scheduler.worker_stats:
            record = stats.to_record()
            for field in totals:
                totals[field] += record[field]
        assert totals == {
            "tasks": 4, "solved": 2, "timeouts": 1, "crashes": 1,
        }

    def test_on_complete_sees_every_task(self):
        tasks = _tasks(["8ff8", "aaaa", "0001"])
        seen = []
        scheduler = BatchScheduler(
            {"STP": FakeExecutor()},
            jobs=2,
            on_complete=lambda task, outcome, worker: seen.append(
                (task.index, worker)
            ),
        )
        scheduler.run(tasks)
        assert sorted(i for i, _ in seen) == [0, 1, 2]
        assert all(0 <= w < 2 for _, w in seen)

    def test_executor_error_propagates_without_hanging(self):
        tasks = _tasks(["8ff8", "aaaa", "0001", "cafe", "6996"])
        executor = FakeExecutor(raise_on={"8ff8"})
        scheduler = BatchScheduler({"STP": executor}, jobs=2)
        with pytest.raises(RuntimeError, match="blew up"):
            scheduler.run(tasks)

    def test_bounded_queue_makes_progress(self):
        hexes = [f"{i:04x}" for i in range(40)]
        tasks = _tasks(hexes)
        scheduler = BatchScheduler(
            {"STP": FakeExecutor(delay=0.001)}, jobs=4, queue_depth=2
        )
        outcomes = scheduler.run(tasks)
        assert len(outcomes) == 40
        assert all(o is not None for o in outcomes)

    def test_rejects_duplicate_indexes(self):
        task = _tasks(["8ff8"])[0]
        scheduler = BatchScheduler({"STP": FakeExecutor()}, jobs=1)
        with pytest.raises(ValueError, match="unique"):
            scheduler.run([task, task])

    def test_rejects_unknown_algorithm(self):
        tasks = _tasks(["8ff8"], algorithm="NOPE")
        scheduler = BatchScheduler({"STP": FakeExecutor()}, jobs=1)
        with pytest.raises(ValueError, match="NOPE"):
            scheduler.run(tasks)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            BatchScheduler({"STP": FakeExecutor()}, jobs=0)

    def test_empty_batch(self):
        scheduler = BatchScheduler({"STP": FakeExecutor()}, jobs=2)
        assert scheduler.run([]) == []


class TestResidentPool:
    """The long-lived start()/submit()/drain()/shutdown() lifecycle."""

    def test_submit_returns_future_with_outcome(self):
        scheduler = BatchScheduler({"STP": FakeExecutor()}, jobs=2)
        scheduler.start()
        try:
            futures = [
                scheduler.submit(t) for t in _tasks(["8ff8", "aaaa"])
            ]
            outcomes = [f.result(timeout=10) for f in futures]
            assert [o.function_hex for o in outcomes] == [
                "8ff8", "aaaa",
            ]
        finally:
            scheduler.shutdown()
        assert not scheduler.started

    def test_pool_survives_executor_exception(self):
        """Resident mode: one poisoned request fails its own future
        but the pool keeps serving later submissions."""
        executor = FakeExecutor(raise_on={"8ff8"})
        scheduler = BatchScheduler({"STP": executor}, jobs=1)
        scheduler.start()
        try:
            bad, good = [
                scheduler.submit(t) for t in _tasks(["8ff8", "aaaa"])
            ]
            with pytest.raises(RuntimeError, match="blew up"):
                bad.result(timeout=10)
            assert good.result(timeout=10).function_hex == "aaaa"
        finally:
            scheduler.shutdown()

    def test_submit_call_runs_arbitrary_closures(self):
        scheduler = BatchScheduler({}, jobs=2)
        scheduler.start()
        try:
            future = scheduler.submit_call("custom", lambda: 42)
            assert future.result(timeout=10) == 42
        finally:
            scheduler.shutdown()

    def test_drain_waits_for_backlog(self):
        scheduler = BatchScheduler(
            {"STP": FakeExecutor(delay=0.02)}, jobs=2, queue_depth=0
        )
        scheduler.start()
        try:
            futures = [
                scheduler.submit(t)
                for t in _tasks([f"{i:04x}" for i in range(12)])
            ]
            assert scheduler.drain(timeout=30)
            assert scheduler.backlog() == 0
            assert all(f.done() for f in futures)
        finally:
            scheduler.shutdown()

    def test_submit_after_shutdown_rejected(self):
        scheduler = BatchScheduler({"STP": FakeExecutor()}, jobs=1)
        scheduler.start()
        scheduler.shutdown()
        with pytest.raises(RuntimeError, match="not accepting"):
            scheduler.submit(_tasks(["8ff8"])[0])

    def test_run_rejected_while_resident(self):
        scheduler = BatchScheduler({"STP": FakeExecutor()}, jobs=1)
        scheduler.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                scheduler.run(_tasks(["8ff8"]))
        finally:
            scheduler.shutdown()

    def test_restart_after_shutdown(self):
        scheduler = BatchScheduler({"STP": FakeExecutor()}, jobs=1)
        for _ in range(2):
            scheduler.start()
            future = scheduler.submit(_tasks(["8ff8"])[0])
            assert future.result(timeout=10).solved
            scheduler.shutdown()


class TestProgressReporter:
    def test_silent_when_stream_is_none(self):
        reporter = ProgressReporter(2, stream=None)
        reporter.tick("STP 0x8ff8", "ok", 0)  # must not raise

    def test_ticks_render_counts_and_worker(self):
        stream = io.StringIO()
        reporter = ProgressReporter(2, stream=stream)
        reporter.tick("STP 0x8ff8", "ok 0.1s", 0)
        reporter.tick("STP 0xaaaa", "timeout", 1)
        text = stream.getvalue()
        assert "[1/2]" in text and "[2/2]" in text
        assert "STP 0x8ff8" in text and "timeout" in text


def _fen_algorithm(max_solutions=16):
    return [
        a
        for a in default_algorithms(max_solutions=max_solutions)
        if a.name == "FEN"
    ]


class TestJobsDeterminism:
    def test_aggregates_identical_across_jobs(self):
        """Acceptance: jobs=1 and jobs=4 produce identical solved and
        timeout counts, gate counts, and solution counts."""
        functions = get_suite("npn4", 5)
        algorithms = [
            a
            for a in default_algorithms(max_solutions=16)
            if a.name in ("FEN", "STP")
        ]

        def fingerprint(reports):
            return [
                (
                    r.algorithm,
                    r.num_ok,
                    r.num_timeouts,
                    [
                        (o.function_hex, o.solved, o.num_gates,
                         o.num_solutions, o.status)
                        for o in r.outcomes
                    ],
                )
                for r in reports
            ]

        sequential = run_suite(
            "npn4", functions, algorithms, 60.0, jobs=1
        )
        parallel = run_suite(
            "npn4", functions, algorithms, 60.0, jobs=4
        )
        assert fingerprint(sequential) == fingerprint(parallel)

    def test_ordered_solutions_identical_across_isolation_modes(self):
        """Warm resident workers must not reorder, add or drop
        solutions: one fresh executor (one fork) per instance and one
        shared executor at jobs=2, fed in shuffled order, return equal
        ordered solution lists."""
        rng = random.Random(15)
        functions = (
            rng.sample(get_suite("fdsd6", 60), 6)
            + rng.sample(get_suite("fdsd8", 16), 3)
            + rng.sample(get_suite("pdsd6", 30), 4)
            + rng.sample(get_suite("npn4", 20), 6)
        )
        stp_kwargs = {
            "hier": {"max_solutions": 256, "all_solutions": True}
        }

        def executor():
            return FaultTolerantExecutor(
                ("hier",), isolate=True, engine_kwargs=stp_kwargs
            )

        def answer(outcome):
            result = outcome.result
            return (
                outcome.status,
                result.num_gates,
                [chain.signature() for chain in result.chains],
            )

        fresh = []
        for function in functions:
            with executor() as one:
                fresh.append(answer(one.run(function, 60.0)))

        order = list(range(len(functions)))
        rng.shuffle(order)
        with executor() as shared:
            scheduler = BatchScheduler({"STP": shared}, 2).start()
            try:
                futures = {
                    index: scheduler.submit(
                        BatchTask(index, "STP", functions[index], 60.0)
                    )
                    for index in order
                }
                assert scheduler.drain(timeout=120.0)
            finally:
                scheduler.shutdown()
        pooled = [answer(futures[i].result()) for i in range(len(functions))]
        assert all(status == "ok" for status, _, _ in fresh)
        assert pooled == fresh

    def test_parallel_outcomes_carry_worker_attribution(self):
        functions = get_suite("npn4", 3)
        reports = run_suite(
            "npn4", functions, _fen_algorithm(), 60.0, jobs=2
        )
        workers = {o.worker for o in reports[0].outcomes}
        assert workers <= {0, 1} and workers
        summary = reports[0].worker_summary()
        assert sum(b["tasks"] for b in summary.values()) == 3

    def test_parallel_requires_named_engines(self):
        bare = Algorithm("RAW", lambda f, t: None)
        with pytest.raises(ValueError, match="process-isolated"):
            run_suite(
                "npn4", get_suite("npn4", 1), [bare], 10.0, jobs=2
            )


class TestParallelCheckpoint:
    def test_checkpoint_resume_under_concurrency(self, tmp_path):
        functions = get_suite("npn4", 4)
        path = str(tmp_path / "suite.jsonl")
        first = run_suite(
            "npn4",
            functions,
            _fen_algorithm(),
            60.0,
            checkpoint_path=path,
            jobs=2,
        )
        assert first[0].num_ok == 4
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 4
        assert all("key" in json.loads(line) for line in lines)

        # Re-run: everything replays from the log, nothing re-executes,
        # nothing is re-appended.
        second = run_suite(
            "npn4",
            functions,
            _fen_algorithm(),
            60.0,
            checkpoint_path=path,
            jobs=2,
        )
        assert all(o.cached for o in second[0].outcomes)
        assert [o.num_gates for o in second[0].outcomes] == [
            o.num_gates for o in first[0].outcomes
        ]
        assert len(open(path).read().strip().splitlines()) == 4

    def test_partial_sequential_checkpoint_finishes_parallel(
        self, tmp_path
    ):
        """A checkpoint written by a sequential run resumes under
        jobs>1: only the unfinished instances are scheduled."""
        functions = get_suite("npn4", 4)
        path = str(tmp_path / "suite.jsonl")
        run_suite(
            "npn4",
            functions[:2],
            _fen_algorithm(),
            60.0,
            checkpoint_path=path,
        )
        reports = run_suite(
            "npn4",
            functions,
            _fen_algorithm(),
            60.0,
            checkpoint_path=path,
            jobs=2,
        )
        outcomes = reports[0].outcomes
        assert [o.cached for o in outcomes] == [
            True, True, False, False,
        ]
        assert reports[0].num_ok == 4
        done = CheckpointLog(path).load()
        assert set(done) == {
            instance_key("npn4", "FEN", f.to_hex()) for f in functions
        }
