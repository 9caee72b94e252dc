"""Checkpoint log and resumable-suite tests.

The acceptance path: interrupt a suite mid-run, observe the completed
instances on disk, restart with the same checkpoint path, and verify
that only the unfinished instances re-execute.
"""

import json

import pytest

from repro.bench.runner import Algorithm, run_suite
from repro.bench.suites import get_suite
from repro.core.hierarchical import hierarchical_synthesize
from repro.runtime.checkpoint import CheckpointLog, instance_key
from repro.runtime.faults import FaultPlan, FaultSpec


class TestCheckpointLog:
    def test_roundtrip(self, tmp_path):
        log = CheckpointLog(tmp_path / "run.jsonl")
        log.append({"key": "a", "solved": True})
        log.append({"key": "b", "solved": False})
        records = log.load()
        assert set(records) == {"a", "b"}
        assert records["a"]["solved"] is True
        assert "a" in log and "c" not in log
        assert len(log) == 2

    def test_later_records_win(self, tmp_path):
        log = CheckpointLog(tmp_path / "run.jsonl")
        log.append({"key": "a", "solved": False})
        log.append({"key": "a", "solved": True})
        assert log.load()["a"]["solved"] is True

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = CheckpointLog(path)
        log.append({"key": "a", "solved": True})
        with open(path, "a") as handle:
            handle.write('{"key": "b", "solved"')  # torn final write
        assert set(log.load()) == {"a"}

    def test_missing_file_is_empty(self, tmp_path):
        assert CheckpointLog(tmp_path / "nope.jsonl").load() == {}

    def test_records_need_keys(self, tmp_path):
        log = CheckpointLog(tmp_path / "run.jsonl")
        with pytest.raises(ValueError):
            log.append({"solved": True})

    def test_creates_parent_directories(self, tmp_path):
        log = CheckpointLog(tmp_path / "deep" / "run.jsonl")
        log.append({"key": "a"})
        assert "a" in log


def _counting_algorithm(calls):
    """An in-process STP algorithm that counts engine invocations."""
    def run(function, timeout):
        calls.append(function.to_hex())
        return hierarchical_synthesize(function, timeout, max_solutions=4)

    return Algorithm("STP", run, True)


class TestResumableSuite:
    def test_interrupt_flushes_and_resume_skips_done(self, tmp_path):
        """Acceptance: an interrupted run restarts where it left off,
        re-executing only the unfinished instances."""
        functions = get_suite("fdsd6", 4)
        path = str(tmp_path / "suite.jsonl")
        calls = []
        algorithm = _counting_algorithm(calls)

        # Script a Ctrl-C on the third instance.
        plan = FaultPlan(
            {functions[2].to_hex(): FaultSpec("interrupt")}
        )
        with pytest.raises(KeyboardInterrupt):
            run_suite(
                "fdsd6",
                functions,
                [algorithm],
                timeout=30.0,
                checkpoint_path=path,
                fault_plan=plan,
            )
        # Both completed instances were flushed before the interrupt.
        assert calls == [f.to_hex() for f in functions[:2]]
        flushed = CheckpointLog(path).load()
        assert set(flushed) == {
            instance_key("fdsd6", "STP", f.to_hex())
            for f in functions[:2]
        }

        # Resume: only the two unfinished instances execute.
        calls.clear()
        reports = run_suite(
            "fdsd6",
            functions,
            [algorithm],
            timeout=30.0,
            checkpoint_path=path,
        )
        assert calls == [f.to_hex() for f in functions[2:]]
        report = reports[0]
        assert report.num_ok == 4
        assert [o.cached for o in report.outcomes] == [
            True, True, False, False,
        ]
        # The replayed outcomes kept their measured fields.
        for outcome in report.outcomes:
            assert outcome.num_gates >= 0
            assert outcome.status == "ok"

    def test_completed_run_resumes_to_zero_work(self, tmp_path):
        functions = get_suite("fdsd6", 2)
        path = str(tmp_path / "suite.jsonl")
        calls = []
        algorithm = _counting_algorithm(calls)
        run_suite(
            "fdsd6", functions, [algorithm], 30.0, checkpoint_path=path
        )
        assert len(calls) == 2
        calls.clear()
        reports = run_suite(
            "fdsd6", functions, [algorithm], 30.0, checkpoint_path=path
        )
        assert calls == []
        assert reports[0].num_ok == 2

    def test_failures_are_checkpointed_too(self, tmp_path):
        functions = get_suite("fdsd6", 2)
        path = str(tmp_path / "suite.jsonl")
        plan = FaultPlan(
            {
                functions[0].to_hex(): FaultSpec(
                    "timeout", times=None
                )
            }
        )
        calls = []
        algorithm = _counting_algorithm(calls)
        reports = run_suite(
            "fdsd6",
            functions,
            [algorithm],
            30.0,
            checkpoint_path=path,
            fault_plan=plan,
        )
        assert reports[0].num_timeouts == 1
        # the timeout is durable: the resume does not retry it
        calls.clear()
        reports = run_suite(
            "fdsd6", functions, [algorithm], 30.0, checkpoint_path=path
        )
        assert calls == []
        assert reports[0].num_timeouts == 1
        record = [
            r
            for r in CheckpointLog(path).load().values()
            if not r["solved"]
        ][0]
        assert record["status"] == "timeout"

    def test_fallback_fields_survive_the_checkpoint(self, tmp_path):
        functions = get_suite("fdsd6", 1)
        path = str(tmp_path / "suite.jsonl")
        plan = FaultPlan(
            {
                functions[0].to_hex(): FaultSpec(
                    "crash", engine="hier", times=None
                )
            }
        )
        algorithm = Algorithm(
            "STP",
            lambda f, t: None,
            True,
            engines=("hier", "fen"),
            engine_kwargs={"hier": {"max_solutions": 4}},
        )
        run_suite(
            "fdsd6",
            functions,
            [algorithm],
            30.0,
            checkpoint_path=path,
            fault_plan=plan,
        )
        reports = run_suite(
            "fdsd6", functions, [algorithm], 30.0, checkpoint_path=path
        )
        outcome = reports[0].outcomes[0]
        assert outcome.cached
        assert outcome.solved
        assert outcome.engine == "fen"
        assert outcome.fallback_from == "hier"
        assert reports[0].num_fallbacks == 1

    def test_checkpoint_is_plain_jsonl(self, tmp_path):
        functions = get_suite("fdsd6", 1)
        path = tmp_path / "suite.jsonl"
        algorithm = _counting_algorithm([])
        run_suite(
            "fdsd6",
            functions,
            [algorithm],
            30.0,
            checkpoint_path=str(path),
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["key"].startswith("fdsd6/STP/")
        assert record["solved"] is True


class TestConcurrentAppenders:
    def test_threaded_appends_never_tear_lines(self, tmp_path):
        import threading

        path = tmp_path / "run.jsonl"
        log = CheckpointLog(path)

        def appender(worker):
            for i in range(25):
                log.append({"key": f"w{worker}/i{i}", "worker": worker})

        threads = [
            threading.Thread(target=appender, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every line parses (no interleaved partial writes) and every
        # record survived.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 200
        for line in lines:
            json.loads(line)
        assert len(log.load()) == 200
        assert log.duplicates_dropped == 0

    def test_duplicate_keys_counted_once(self, tmp_path):
        import threading

        log = CheckpointLog(tmp_path / "run.jsonl")

        def appender(worker):
            for i in range(20):
                log.append({"key": f"i{i}", "worker": worker})

        threads = [
            threading.Thread(target=appender, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = log.load()
        assert len(records) == 20
        assert log.duplicates_dropped == 60

    def test_separate_log_objects_share_one_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        CheckpointLog(path).append({"key": "a", "solved": True})
        CheckpointLog(path).append({"key": "b", "solved": False})
        assert set(CheckpointLog(path).load()) == {"a", "b"}
