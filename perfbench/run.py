"""The repository's benchmark: four workloads behind one command.

    python3 perfbench/run.py --workload table1-npn4 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It builds every input from
``--seed``, runs the program in ``src/`` on it in fresh processes,
checks every answer, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1`` (spans go to ``.perfbench/trace-<workload>-seed<n>.jsonl``).
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table1-npn4", "table1-dsd", "serve-warm", "rewrite-blif")
#: What the benchmark needs from the checkout besides its own files.
PROGRAM_FILES = (
    os.path.join("src", "repro", "__init__.py"),
    os.path.join("benchmarks", "bench_serving.py"),
    os.path.join("benchmarks", "circuits"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument(
        "--seconds",
        type=int,
        default=20,
        help="nominal run length: every workload has a fixed size that "
        "takes about this long on a 2-core machine",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in PROGRAM_FILES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: program files missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

    work = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(work)
    # Stores, job files and temporary files stay inside the checkout.
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    try:
        import workloads

        result = workloads.run(args.workload, args.seed, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in result.lines:
        print(line)
    print(json.dumps(result.final()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
