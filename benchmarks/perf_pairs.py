"""Alternating base/change pairs of the repository's benchmark.

    python3 benchmarks/perf_pairs.py --base REV --change REV|DIR \\
        --workload W --pairs N --seed S [--aa]

Each revision is exported with ``git archive`` into a temporary
directory outside the checkout, so ``.git`` is only read; a
``--change`` that names a directory runs that tree as it stands.  Pair
``i`` runs ``perfbench/run.py --workload W --seed S+i --trace 0`` once
on every side, with ``PYTHONDONTWRITEBYTECODE=1``, and rotates which
side runs first.  ``--aa`` adds a second export of the base to the
rotation: an A/A control that shows how far two identical trees read
apart.

For every end-to-end metric in ``BENCHMARK.json`` the summary gives
each side's median [quartiles], then the change against the base in %
with the pairs it won (in the metric's ``better`` direction; ties count
for neither) and, with ``--aa``, the same for the A/A copy: the spread
between identical trees.  Per-pair values follow.  Exits 1 if any run
is not ``correct`` or failed an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, into: str) -> str:
    """``git archive`` of ``rev`` unpacked into ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    os.makedirs(into)
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return into


def run(tree: str, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``tree``: its result object."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # each tree imports its own sources
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    # A session of its own, so that stopping this script takes the
    # run's program processes (the serve-warm server) down with it.
    proc = subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    return result_of(stdout, stderr)


def result_of(stdout: str, stderr: str = "") -> dict:
    """The JSON object a run prints as its last line; a run that printed
    none reads as incorrect, with the end of its stderr."""
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "failed": None, "metrics": {}, "error": stderr[-400:]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def failures(pairs: list[dict]) -> list[str]:
    """One line per run that is not correct or failed an operation."""
    return [
        f"pair {index} {side}: correct={result.get('correct')} failed={result.get('failed')}"
        f" {result.get('error', '')}".rstrip()
        for index, pair in enumerate(pairs)
        for side, result in pair.items()
        if not result.get("correct") or result.get("failed") != 0
    ]


def summary(pairs: list[dict], end_to_end: list[dict]) -> list[str]:
    """Per metric, each side's median [quartiles] and every other side
    against the base: % change of the medians and pairs won; then the
    per-pair values, sides in ``base/change[/aa]`` order."""
    sides = list(pairs[0])
    lines, per_pair = [], []
    for metric in end_to_end:
        name = metric["name"]
        if any(name not in result["metrics"] for pair in pairs for result in pair.values()):
            continue
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in sides}
        cells = []
        for side in sides:
            q1, median, q3 = quartiles(values[side])
            cells.append(f"{side} {median:.4g} [{q1:.4g}, {q3:.4g}]")
        base = statistics.median(values["base"])
        sign = -1.0 if metric["better"] == "lower" else 1.0
        for side in sides[1:]:
            delta = 100.0 * (statistics.median(values[side]) / base - 1.0) if base else 0.0
            won = sum(sign * (v - b) > 0 for v, b in zip(values[side], values["base"]))
            cells.append(f"{side} vs base {delta:+.1f} % ({won}/{len(pairs)} won)")
        lines.append(f"{name} ({metric['unit']}): " + " | ".join(cells))
        rows = zip(*(values[side] for side in sides))
        per_pair.append(f"{name}: " + ", ".join("/".join(f"{v:.4g}" for v in row) for row in rows))
    return lines + ["per pair (" + "/".join(sides) + "):"] + per_pair


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--change", required=True, help="git revision or directory of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="pair i runs seed + i")
    parser.add_argument("--aa", action="store_true", help="add an A/A copy of the base")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    # SIGTERM unwinds like an interrupt: runs stop, exports are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    scratch = tempfile.mkdtemp(prefix="perf-pairs-")
    try:
        trees = {"base": export(args.base, os.path.join(scratch, "base"))}
        if os.path.isdir(args.change):
            trees["change"] = os.path.abspath(args.change)
        else:
            trees["change"] = export(args.change, os.path.join(scratch, "change"))
        if args.aa:
            trees["aa"] = export(args.base, os.path.join(scratch, "aa"))
        order = list(trees)
        pairs = []
        for index in range(args.pairs):
            seed = args.seed + index
            first = index % len(order)
            pair = {}
            for side in order[first:] + order[:first]:
                pair[side] = result = run(trees[side], args.workload, seed)
                values = " ".join(
                    f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
                )
                print(f"pair {index} seed {seed} {side}: {values}", flush=True)
            pairs.append({side: pair[side] for side in order})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"base {args.base}, change {args.change}")
    for line in summary(pairs, end_to_end):
        print(line)
    bad = failures(pairs)
    for line in bad:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
