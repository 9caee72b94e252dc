"""Smoke tests: the example scripts must run end to end.

The heavier examples (cost-aware selection over the full MAJ3 solution
set, solver comparison) are exercised with reduced scope elsewhere in
the suite; here we run the fast entry points exactly as a user would.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "optimum size: 3 gates" in out
    assert "PASS" in out


def test_liar_puzzle(capsys):
    out = run_example("liar_puzzle.py", capsys)
    assert "only b is honest" in out
    assert "True" in out


def test_rewrite_demo(capsys):
    out = run_example("rewrite_demo.py", capsys)
    assert "loaded fulladder_naive.blif: 9 LUTs" in out
    assert "cold pass: 9 -> 6 gates" in out
    assert "warm pass: 9 -> 6 gates (0 synthesis call(s)" in out


def test_network_rewriting(capsys):
    out = run_example("network_rewriting.py", capsys)
    assert "before: 6 LUTs, depth 3" in out
    assert "after : 3 LUTs, depth 2" in out
    assert "random network: 14 -> 0 LUTs" in out


@pytest.mark.slow
def test_dsd_workloads(capsys):
    out = run_example("dsd_workloads.py", capsys)
    assert "fully DSD-decomposable" in out
    assert "prime block" in out
