"""hpsig benchmark: run a workload and print its metrics.

    python3 perfbench/run.py --workload cp2 --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh worker process (one client, closed loop) with
BLAS pinned to one thread and the package imported from ``src/``.  With
``--trace 0`` the last line holds the end-to-end metrics; set-up time is the
median of several fresh processes, each timed from spawn to ``ready``.  With
``--trace 1`` it holds the per-layer metrics of a traced run.  Without
``--workload`` every workload runs in turn.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cp2", "octahedron-z4", "generated-batch")
SETUP_PROBES = 10  # set-up-only processes per run, plus the measuring one
DEADLINE_S = 170.0  # a single workload must end within this


class BenchError(RuntimeError):
    """The harness could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, dict | None]:
    """Run the worker; return seconds from spawn to its ``ready`` line and its
    JSON result (None for a set-up-only run)."""
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready_s, json.loads(lines[-1]) if lines else None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hpsig").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return the worker's result with ``setup_s`` added to
    the end-to-end metrics."""
    start = time.perf_counter()

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    base = ["--workload", name, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(spawn(base + ["--setup-only"], min(30.0, left()))[0])
    ready_s, result = spawn(
        base + ["--seconds", str(seconds), "--trace", str(trace)], left()
    )
    if not trace:
        setup.append(ready_s)
        result["metrics"]["setup_s"] = (statistics.median(setup), "s")
        result["setup_samples"] = len(setup)
    result["env"].update(git_commit=_git_commit(), src_sha256=_src_digest(), seed=seed)
    return result


def report(name: str, result: dict) -> None:
    """Human-readable lines for one workload."""
    print(f"workload {name}")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<48s} {value:.6g} {unit}")
    if "timed_ops" in result:
        p90 = result.get("op_p90_s")
        print(f"  {'timed ops (distinct)':<48s} {result['timed_ops']} ({result['distinct_ops']})")
        print(f"  {'op_p90_s':<48s} "
              + (f"{p90:.6g} s" if p90 is not None else "n/a (fewer than 100 distinct ops)"))
        print(f"  {'op p50 over every repetition':<48s} {result['run_op_p50_s']:.6g} s")
        print(f"  {'ops per second over the timed phase':<48s} {result['run_ops_per_s']:.6g} 1/s")
        print(f"  {'setup samples':<48s} {result['setup_samples']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<48s} {frac:.6g} ({result['failed']}/{result['attempted']})")
    for line in result["failures"]:
        print(f"    {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hpsig" / "__init__.py").is_file():
        print(f"no hpsig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (key if args.workload else f"{w}.{key}"): {"value": value, "unit": unit}
            for w, r in results.items()
            for key, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
