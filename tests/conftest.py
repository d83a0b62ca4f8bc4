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
