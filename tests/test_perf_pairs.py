"""The summary of benchmarks/perf_pairs.py on canned result lines; no
benchmark runs."""

import importlib.util
import json
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "perf_pairs",
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks", "perf_pairs.py"),
)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

END_TO_END = [
    {"name": "tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "quality_frac", "unit": "ratio", "better": "higher", "bound": 0.05},
]


def _stdout(tail_ms, quality, *, correct=True, failed=0):
    """What perfbench/run.py prints: report lines, then the result."""
    result = {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "tail_ms": {"value": tail_ms, "unit": "ms"},
            "quality_frac": {"value": quality, "unit": "ratio"},
        },
    }
    return f"serve-warm: phase A 8003 requests ...\n{json.dumps(result)}\n"


def _pairs(base, change, aa):
    return [
        {
            side: perf_pairs.result_of(_stdout(*values))
            for side, values in (("base", b), ("change", c), ("aa", a))
        }
        for b, c, a in zip(base, change, aa)
    ]


def test_summary_reads_medians_quartiles_changes_and_pairs_won():
    pairs = _pairs(
        base=[(2.0, 1.0), (2.2, 1.0), (2.4, 0.9), (2.6, 1.0)],
        change=[(1.9, 1.0), (2.0, 1.0), (2.3, 1.0), (2.7, 0.9)],
        aa=[(2.1, 1.0), (2.2, 1.0), (2.4, 1.0), (2.5, 1.0)],
    )
    lines = perf_pairs.summary(pairs, END_TO_END)
    assert lines[0] == (
        "tail_ms (ms): base 2.3 [2.15, 2.45] | change 2.15 [1.975, 2.4]"
        " | aa 2.3 [2.175, 2.425] | change vs base -6.5 % (3/4 won)"
        " | aa vs base +0.0 % (1/4 won)"
    )
    # Higher is better; equal values count for neither side.
    assert lines[1].endswith(
        "| change vs base +0.0 % (1/4 won) | aa vs base +0.0 % (1/4 won)"
    )
    assert lines[2:] == [
        "per pair (base/change/aa):",
        "tail_ms: 2/1.9/2.1, 2.2/2/2.2, 2.4/2.3/2.4, 2.6/2.7/2.5",
        "quality_frac: 1/1/1, 1/1/1, 0.9/1/1, 1/0.9/1",
    ]
    assert perf_pairs.failures(pairs) == []


@pytest.mark.parametrize(
    "stdout, stderr",
    [
        (_stdout(2.0, 1.0, failed=3), ""),
        (_stdout(2.0, 1.0, correct=False), ""),
        ("Traceback (most recent call last):\n", "RuntimeError: server failed"),
    ],
    ids=["failed", "incorrect", "no-result"],
)
def test_a_failed_or_incorrect_run_is_reported(stdout, stderr):
    pairs = [
        {"base": perf_pairs.result_of(_stdout(2.0, 1.0)),
         "change": perf_pairs.result_of(stdout, stderr)}
    ]
    (line,) = perf_pairs.failures(pairs)
    assert line.startswith("pair 0 change: ")
    assert stderr in line
    # A metric that a run did not report is left out of the summary.
    assert len(perf_pairs.summary(pairs, END_TO_END)) == (
        1 if stderr else 2 + 1 + 2
    )
