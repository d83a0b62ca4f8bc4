"""One workload in one process: set up, print ``ready``, run the closed loop.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the path.
Prints ``ready`` once set-up is done, then one JSON line with the result.
With ``--setup-only`` it stops after ``ready``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OPENBLAS_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


class Tally:
    """Wall time of each op and the failures among them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.failures: list[str] = []
        self.elapsed = 0.0

    @property
    def correct(self) -> int:
        return len(self.times) - len(self.failures)

    def ops_per_s(self) -> float:
        return self.correct / self.elapsed

    def best_per_op(self, period: int) -> list[float]:
        """Fastest repetition of each of the ``period`` ops of a run that
        cycled over them from op 0 and stopped at the end of a cycle."""
        return [min(self.times[j::period]) for j in range(period)]


def run_op(workload, i: int, tally: Tally) -> None:
    """Run op ``i``; an exception or a wrong result is counted, not raised."""
    t0 = time.perf_counter()
    try:
        workload.run_op(i)
    except Exception as exc:  # every failure is counted and the run goes on
        tally.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
    tally.times.append(time.perf_counter() - t0)


def closed_loop(workload, seconds: float, first: int = 0, period: int | None = None) -> Tally:
    """One client, each op sent when the previous one finished, for
    ``seconds``.  With ``period`` the op indices cycle over ``range(period)``
    and the loop stops only at the end of a whole cycle."""
    tally = Tally()
    k = first
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (period is None or (k > first and k % period == 0)):
            break
        run_op(workload, k if period is None else k % period, tally)
        k += 1
    tally.elapsed = time.perf_counter() - start
    return tally


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy as np

    base = os.path.dirname(np.__file__)
    for lib in glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in OPENBLAS_THREAD_QUERIES:
            if hasattr(handle, symbol):
                query = getattr(handle, symbol)
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def env_stamp() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_pin": {v: os.environ.get(v) for v in PIN_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import hpsig

    if Path(hpsig.__file__).resolve().parent != ROOT / "src" / "hpsig":
        print(f"hpsig imported from {hpsig.__file__}, not from src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        env = env_stamp()
        if env["blas_threads"] not in (None, 1):
            print(f"BLAS runs {env['blas_threads']} threads, not 1", file=sys.stderr)
            return 2
        warm = Tally()
        for i in range(workload.warmup_ops):
            run_op(workload, i, warm)
        result: dict = {"env": env}
        if args.trace:
            from tracer import Tracer

            # Both phases cycle over the same ops, so the traced per-op counts
            # repeat exactly and the two rates compare like with like.
            untraced = closed_loop(workload, args.seconds / 2, period=workload.pass_ops)
            with Tracer() as tracer:
                traced = closed_loop(workload, args.seconds / 2, period=workload.pass_ops)
            tallies = (warm, untraced, traced)
            metrics = tracer.metrics(len(traced.times))
            metrics["trace.untraced_ops_per_s"] = (untraced.ops_per_s(), "1/s")
            metrics["trace.traced_ops_per_s"] = (traced.ops_per_s(), "1/s")
        else:
            # The host's speed drifts by tens of percent over seconds, and a
            # slowdown only ever adds time, so each op is timed by its fastest
            # repetition over the whole run.
            timed = closed_loop(workload, args.seconds, period=workload.pass_ops)
            tallies = (warm, timed)
            best = timed.best_per_op(workload.pass_ops)
            correct_share = timed.correct / len(timed.times)
            metrics = {
                "op_p50_s": (statistics.median(best), "s"),
                "ops_per_s": (correct_share * len(best) / sum(best), "1/s"),
                "peak_rss_mib": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
                ),
            }
            result["timed_ops"] = len(timed.times)
            result["distinct_ops"] = len(best)
            result["run_ops_per_s"] = timed.ops_per_s()
            result["run_op_p50_s"] = statistics.median(timed.times)
            if len(best) >= 100:
                result["op_p90_s"] = statistics.quantiles(best, n=10)[-1]
        failures = [f for t in tallies for f in t.failures]
        result.update(
            attempted=sum(len(t.times) for t in tallies),
            failed=len(failures),
            failures=failures[:5],
            metrics=metrics,
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
