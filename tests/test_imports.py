"""Every ``repro.*`` module, benchmark script and example imports.

A module or script that still imports a deleted name fails here even
when no other test imports it, and so does a module whose ``__all__``
still lists one.  CI's ruff step catches the same mistakes (F822 for
``__all__``, though not in ``repro.runtime``, whose ``__all__``
resolves lazily); this test catches them wherever ruff is not
installed.  The same holds for the program names the traced benchmark
wraps.
"""

import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_imports():
    failures = []
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(
            repro.__path__, "repro.", onerror=failures.append
        )
    ]
    for name in names:
        try:
            module = importlib.import_module(name)
        except Exception as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        # A name left in __all__ after its definition went away.
        for export in getattr(module, "__all__", ()):
            try:
                getattr(module, export)
            except AttributeError:
                failures.append(f"{name}.__all__: {export!r} is not defined")
    assert not failures
    assert "repro.serve.service" in names


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_imports(monkeypatch):
    """Load each benchmark and example as a module; ``main`` never
    runs, because the module's ``__name__`` is not ``"__main__"``."""
    # The Table-I benches import their helpers as ``conftest``.
    monkeypatch.setitem(
        sys.modules,
        "conftest",
        _load(ROOT / "benchmarks" / "conftest.py", "conftest"),
    )
    benches = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    examples = sorted((ROOT / "examples").glob("*.py"))
    assert benches and examples
    failures = []
    for path in benches + examples:
        name = f"_script_{path.parent.name}_{path.stem}"
        try:
            _load(path, name)
        except Exception as exc:
            failures.append(f"{path.name}: {type(exc).__name__}: {exc}")
    assert not failures


def test_traced_benchmark_finds_every_name_it_wraps():
    """``perfbench/run.py --trace 1`` wraps program functions and
    methods by name with ``getattr``, whatever the workload, so a
    renamed or deleted one fails the traced run.  The run writes only
    under the git-ignored ``.perfbench/``."""
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "rewrite-blif",
            "--seed",
            "0",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
