"""The largest triangulations: ``hpsig manifold --json`` on sd(CP^2_9), on
sd^2(CP^2_9) and on sd(S_3 x 3 CP^2_9).

    PYTHONPATH=src python tools/large_triangulation.py

Builds the first barycentric subdivision of the 9-vertex CP^2 (27,435
simplices), its orientation flip, its second barycentric subdivision
(3,274,995 simplices), and the first barycentric subdivision of three copies
of CP^2_9 with S_3 permuting them (82,305 simplices, the action
transported), writes each to an ``.smf`` file in a temporary directory, and
runs ``hpsig.cli.main(["manifold", path, "--json"])`` on each in-process.
Prints one JSON line: per case the exit code, ``passed``, the class of each
construction (+1 and -1 are expected over the trivial group, and the values
3, 1 and 0 on the identity, the transpositions and the 3-cycles over S_3),
the chain dimensions and the wall time of the command
(``time.perf_counter``), and the process's peak resident set size
(``ru_maxrss``, which covers the builds as well).  Exits 1 unless every
command exits 0 with the expected classes.  Run with BLAS pinned to one
thread (``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``) for figures comparable
with the benchmark's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import time

import hpsig
from hpsig.cli import main as cli_main
from hpsig.fixtures import cp2_nine_vertex, cp2_triple_s3


def run(path: str) -> dict:
    """The CLI ``manifold --json`` command on ``path``, timed."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli_main(["manifold", path, "--json"])
    seconds = time.perf_counter() - t0
    payload = json.loads(out.getvalue())
    classes = {m: [c["value"] for c in k0["classes"]] for m, k0 in payload["methods"].items()}
    return {
        "exit_code": code,
        "passed": payload["passed"],
        "classes": classes,
        "chain_dims": payload["chain_dims"],
        "seconds": round(seconds, 4),
    }


def main() -> int:
    m, _ = hpsig.barycentric_subdivide(cp2_nine_vertex())
    flipped = hpsig.OrientedSimplicialManifold(m.facets, tuple(-s for s in m.signs))
    twice, _ = hpsig.barycentric_subdivide(m)
    triple, action = hpsig.barycentric_subdivide(*cp2_triple_s3())
    one, minus_one, s3 = [[1.0, 0.0]], [[-1.0, 0.0]], [[3.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    cases, ok = {}, True
    with tempfile.TemporaryDirectory() as tmp:
        for name, manifold, act, want in (
            ("sd-cp2", m, None, one),
            ("sd-cp2-flip", flipped, None, minus_one),
            ("sd2-cp2", twice, None, one),
            ("sd-cp2-triple-s3", triple, action, s3),
        ):
            path = os.path.join(tmp, f"{name}.smf")
            hpsig.write_smf(manifold, path, act)
            cases[name] = case = run(path)
            ok &= case["exit_code"] == 0 and all(v == want for v in case["classes"].values())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"cases": cases, "peak_rss_mib": round(peak, 1), "passed": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
