"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import cProfile
import json
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hpsig  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS, CoverageError, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name,ops", [("cp2", 2), ("octahedron-z4", 1), ("generated-batch", 36)])
def test_workload_ops_pass(name, ops, tmp_path):
    wl = WORKLOADS[name](7, str(tmp_path))
    tally = worker.Tally()
    for i in range(ops):
        worker.run_op(wl, i, tally)
    assert tally.failures == []
    assert len(tally.times) == ops


def test_best_per_op_takes_each_ops_fastest_repetition():
    tally = worker.Tally()
    tally.times = [3.0, 5.0, 1.0, 2.0, 4.0, 9.0]  # ops 0, 1, 2, then again
    assert tally.best_per_op(3) == [2.0, 4.0, 1.0]


def _run(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "generated-batch",
         "--seed", "3", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_names_every_metric(trace, section):
    result = _run("--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_wrong_expected_class_is_counted_and_run_continues(monkeypatch, tmp_path):
    real = hpsig.generate.generate_with_signature

    def wrong_class(seed, profile):
        hp, expected = real(seed, profile)
        return hp, hpsig.K0Class(expected.group, tuple(v + 1 for v in expected.values))

    monkeypatch.setattr(hpsig.generate, "generate_with_signature", wrong_class)
    wl = WORKLOADS["generated-batch"](0, str(tmp_path))
    tally = worker.Tally()
    for i in range(6):
        worker.run_op(wl, i, tally)
    assert len(tally.times) == 6
    # ops 2 and 5 are boundary ops and keep passing
    assert len(tally.failures) == 4
    assert all("WrongResult" in f for f in tally.failures)


def test_operator_norm_count_matches_cprofile(tmp_path):
    wl = WORKLOADS["cp2"](0, str(tmp_path))
    prof = cProfile.Profile()
    prof.runcall(wl.run_op, 0)
    stats = pstats.Stats(prof).stats
    profiled = sum(
        s[1] for (path, _, fn), s in stats.items()
        if fn == "operator_norm" and path.endswith("linalg.py")
    )
    with Tracer() as tracer:
        wl.run_op(0)
    assert tracer.calls["linalg.operator_norm"] == profiled > 0
    assert hpsig.linalg.operator_norm is hpsig.complexes.operator_norm
    assert not hasattr(hpsig.linalg.operator_norm, "__wrapped__")


def test_traced_counts_repeat_exactly(tmp_path):
    wl = WORKLOADS["generated-batch"](11, str(tmp_path))
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            for i in range(18):
                wl.run_op(i)
        counts.append(dict(tracer.calls))
    assert counts[0] == counts[1]
    assert counts[0]["generate.generate_with_boundary"] == 6
    assert counts[0]["groups.GroupAction"] > 0


def test_coverage_guard_rejects_missing_function():
    layers = dict(LAYERS, linalg=LAYERS["linalg"] + ("no_such_function",))
    with pytest.raises(CoverageError, match="linalg.no_such_function is missing"):
        Tracer(layers).install()
    # a failed install leaves nothing rebound
    assert not hasattr(hpsig.linalg.operator_norm, "__wrapped__")
    assert not hasattr(hpsig.groups.GroupAction.__init__, "__wrapped__")
