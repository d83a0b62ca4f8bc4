"""Shared test fixtures."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def verdict_sweep():
    """``tools/verdict_sweep.py``, which generates the sweep's cases and writes
    the CLI byte sweep's inputs."""
    path = Path(__file__).resolve().parents[1] / "tools" / "verdict_sweep.py"
    spec = importlib.util.spec_from_file_location("verdict_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, names)`` replaces each named attribute of ``owner``
    by a wrapper that counts its calls for the rest of the test, and returns
    the counts by name."""

    def install(owner, names):
        counts = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        return counts

    return install
