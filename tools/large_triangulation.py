"""The largest triangulations: ``hpsig manifold --json`` on sd(CP^2_9), on
sd^2(CP^2_9), on sd(S_3 x 3 CP^2_9) and on sd(CP^2_9) with Aut(CP^2_9).

    PYTHONPATH=src python tools/large_triangulation.py

Builds the first barycentric subdivision of the 9-vertex CP^2 (27,435
simplices), its orientation flip, its second barycentric subdivision
(3,274,995 simplices), and the first barycentric subdivision of three copies
of CP^2_9 with S_3 permuting them (82,305 simplices, the action
transported), and sd(CP^2_9) with the 54 automorphisms of CP^2_9
(``fixtures.cp2_automorphisms``, transported), writes each to an ``.smf`` file
in a temporary directory, and runs ``hpsig.cli.main(["manifold", path,
"--json"])`` on each in-process.  Prints one JSON line: per case the exit
code, ``passed``, the class of each construction, the chain dimensions, the
wall time of the command (``time.perf_counter``) and, taken before it, that of
one ``read_smf(path)`` (``read_s``), which enumerates and validates the
triangulation, and the process's peak resident set size (``ru_maxrss``,
which covers the builds as well).  Expected
are +1 and -1 over the trivial group, the values 3, 1 and 0 on the identity,
the transpositions and the 3-cycles over S_3, and over Aut(CP^2_9) a linear
character that takes the values +1 and -1 (multiplicity 1 there and 0
elsewhere), whose values are compared within 1e-6, the others exactly.  Exits 1 unless every
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

import numpy as np

import hpsig
from hpsig.cli import main as cli_main
from hpsig.fixtures import cp2_automorphisms, cp2_nine_vertex, cp2_triple_s3


def run(path: str) -> dict:
    """The CLI ``manifold --json`` command on ``path``, timed, and one
    ``read_smf(path)`` before it, timed alone."""
    t0 = time.perf_counter()
    hpsig.read_smf(path)
    read_s = time.perf_counter() - t0
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
        "read_s": round(read_s, 4),
    }


def sign_characters(group: hpsig.FiniteGroup) -> list:
    """The characters of ``group`` that take both values +1 and -1 and no
    other (within 1e-6), as class value lists of exact signs."""
    rounded = [(np.rint(row.real), row) for row in group.characters]
    return [
        [[v, 0.0] for v in signs.tolist()]
        for signs, row in rounded
        if set(signs) == {1.0, -1.0} and np.allclose(row, signs, rtol=0.0, atol=1e-6)
    ]


def main() -> int:
    m, _ = hpsig.barycentric_subdivide(cp2_nine_vertex())
    flipped = hpsig.OrientedSimplicialManifold(m.facets, tuple(-s for s in m.signs))
    twice, _ = hpsig.barycentric_subdivide(m)
    triple, action = hpsig.barycentric_subdivide(*cp2_triple_s3())
    _, automorphisms = hpsig.barycentric_subdivide(cp2_nine_vertex(), cp2_automorphisms())
    one, minus_one, s3 = [[1.0, 0.0]], [[-1.0, 0.0]], [[3.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    cases, ok = {}, True
    with tempfile.TemporaryDirectory() as tmp:
        # (name, triangulation, action, the classes that pass, tolerance)
        for name, manifold, act, wanted, atol in (
            ("sd-cp2", m, None, [one], 0.0),
            ("sd-cp2-flip", flipped, None, [minus_one], 0.0),
            ("sd2-cp2", twice, None, [one], 0.0),
            ("sd-cp2-triple-s3", triple, action, [s3], 0.0),
            ("sd-cp2-aut", m, automorphisms, sign_characters(automorphisms.group), 1e-6),
        ):
            path = os.path.join(tmp, f"{name}.smf")
            hpsig.write_smf(manifold, path, act)
            cases[name] = case = run(path)
            classes = case["classes"].values()
            ok &= case["exit_code"] == 0 and any(
                all(np.allclose(v, want, rtol=0.0, atol=atol) for v in classes) for want in wanted
            )
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"cases": cases, "peak_rss_mib": round(peak, 1), "passed": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
