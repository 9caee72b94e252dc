"""Every ``repro.*`` module imports.

A module that still imports a deleted name fails here even when no
other test imports that module.  CI's ruff step catches the same
mistake; this test catches it wherever ruff is not installed.
"""

import importlib
import pkgutil

import repro


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
