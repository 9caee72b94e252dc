"""CLI exit-code and fallback-trail tests (real subprocesses).

The CLI contract is part of the robustness story: scripts branch on
exit codes (0 ok, 2 timeout, 3 crash, 4 infeasible, 65 bad input) and
read the engine-fallback trail from stderr while stdout stays
parseable.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def run_cli(*argv, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=REPO,
    )


class TestExitCodes:
    def test_ok(self):
        proc = run_cli("8ff8", "--vars", "4", "--max-solutions", "2")
        assert proc.returncode == 0
        assert "optimum 3 gates" in proc.stdout
        assert "[stp]" in proc.stdout

    def test_timeout_is_2(self):
        proc = run_cli(
            "8ff8", "--vars", "4", "--inject-fault", "timeout"
        )
        assert proc.returncode == 2
        assert "timeout" in proc.stderr
        assert proc.stdout == ""

    def test_crash_without_fallback_is_3(self):
        proc = run_cli(
            "8ff8",
            "--vars",
            "4",
            "--inject-fault",
            "crash",
            "--no-fallback",
        )
        assert proc.returncode == 3
        assert "crash" in proc.stderr

    def test_infeasible_is_4(self):
        proc = run_cli(
            "8ff8", "--vars", "4", "--max-gates", "1", "--no-fallback"
        )
        assert proc.returncode == 4
        assert "infeasible" in proc.stderr

    def test_bad_hex_is_65(self):
        proc = run_cli("zzzz", "--vars", "4")
        assert proc.returncode == 65
        assert "error:" in proc.stderr

    def test_memory_cap_needs_isolate(self):
        # In-process the cap cannot apply, so the run is refused (65);
        # in a worker, 1 MB fails every attempt of 0x0016's search (3).
        argv = ("0016", "--vars", "4", "--no-fallback",
                "--memory-limit-mb", "1")
        proc = run_cli(*argv)
        assert proc.returncode == 65
        assert "--isolate" in proc.stderr
        assert proc.stdout == ""
        assert run_cli(*argv, "--isolate").returncode == 3


class TestFallbackTrail:
    def test_crash_falls_back_to_fen_and_reports_on_stderr(self):
        proc = run_cli(
            "8ff8", "--vars", "4", "--inject-fault", "crash"
        )
        assert proc.returncode == 0
        assert "fell back: stp -> fen" in proc.stderr
        assert "crash" in proc.stderr
        # stdout carries only the result, attributed to the rescuer
        assert "[fen]" in proc.stdout
        assert "optimum 3 gates" in proc.stdout
        assert "fell back" not in proc.stdout

    def test_corrupt_result_is_rejected_then_rescued(self):
        proc = run_cli(
            "8ff8", "--vars", "4", "--inject-fault", "corrupt"
        )
        assert proc.returncode == 0
        assert "corrupt" in proc.stderr
        assert "[fen]" in proc.stdout


class TestIsolation:
    @pytest.mark.slow
    def test_hung_worker_is_killed_and_exits_2(self):
        proc = run_cli(
            "8ff8",
            "--vars",
            "4",
            "--isolate",
            "--no-fallback",
            "--timeout",
            "1.0",
            "--inject-fault",
            "hang",
            timeout=30,
        )
        assert proc.returncode == 2
        assert "timeout" in proc.stderr

    @pytest.mark.slow
    def test_hard_crash_in_worker_exits_3(self):
        proc = run_cli(
            "8ff8",
            "--vars",
            "4",
            "--isolate",
            "--no-fallback",
            "--inject-fault",
            "hard-crash",
            timeout=30,
        )
        assert proc.returncode == 3
        assert "crash" in proc.stderr
