"""Every ``repro.*`` module, benchmark script and example imports.

A module or script that still imports a deleted name fails here even
when no other test imports it.  CI's ruff step catches the same
mistake; this test catches it wherever ruff is not installed.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_imports():
    failures = []
    names = [
        info.name
        for info in pkgutil.walk_packages(
            repro.__path__, "repro.", onerror=failures.append
        )
    ]
    for name in names:
        try:
            importlib.import_module(name)
        except Exception as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
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
