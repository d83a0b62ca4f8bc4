"""The benchmark's workloads.

Each workload builds its inputs from the seed in its constructor (the set-up
that ``setup_s`` measures) and runs op ``i`` in :meth:`run_op`, which raises
when the result is wrong.  Package functions are looked up through module
attributes at call time so that the tracer's wrappers see every call.

* ``cp2``: the 9-vertex CP^2, dense SVD/eigh on 255-wide operators.
* ``octahedron-z4``: the subdivided octahedron with its Z/4 rotation, through
  the ``hpsig manifold --json`` command; group-action work dominates.
* ``generated-batch``: a stream of small generated complexes, closed and with
  boundary; per-call overhead and the generator and bordism layers dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import hpsig
import hpsig.cli
import hpsig.fixtures

CHAR_TOL = 1e-6
METHODS = {"higson-roe", "mishchenko", "reduced"}

# The acceptance suite's coincidence cycle: n0/n2/n4 x (none, z2, z3, z4).
SIGNATURE_PROFILES = (
    "n0-d4", "n2-d4", "n4-d4",
    "n0-z2-d4", "n2-z2-d4", "n4-z2-d4",
    "n0-z3-d3", "n2-z3-d3", "n4-z3-d3",
    "n0-z4-d4", "n2-z4-d4", "n4-z4-d4",
)
BOUNDARY_PROFILES = ("n2", "n2-d6", "n2-d8", "n4", "n4-d6", "n4-d8")


class WrongResult(Exception):
    """An op finished but its result disagrees with the expected one."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongResult(what)


def _parity(seq) -> int:
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def relabel(m, perm, action=None):
    """Push a triangulation (and a vertex action) forward along a vertex
    bijection ``perm``, carrying the orientation, so the class is unchanged."""
    pushed = []
    for f, s in zip(m.facets, m.signs):
        image = [perm[v] for v in f]
        pushed.append((tuple(sorted(image)), s * _parity(image)))
    pushed.sort()
    m2 = hpsig.OrientedSimplicialManifold(
        tuple(f for f, _ in pushed), tuple(s for _, s in pushed)
    )
    if action is None:
        return m2, None
    inverse = {w: v for v, w in perm.items()}
    maps = tuple(
        {w: perm[vm[inverse[w]]] for w in inverse} for vm in action.vertex_maps
    )
    return m2, hpsig.SimplicialAction(action.group, maps)


def _random_relabelling(m, seed: int) -> dict[int, int]:
    rng = np.random.default_rng(seed)
    verts = list(m.vertices)
    return dict(zip(verts, (verts[i] for i in rng.permutation(len(verts)))))


class Cp2:
    """``manifold_signature`` on the 9-vertex CP^2, relabelled by the seed;
    ops alternate the orientation, so the class is exactly +1 or -1."""

    name = "cp2"
    warmup_ops = 1
    pass_ops = 2

    def __init__(self, seed: int, workdir: str) -> None:
        base = hpsig.fixtures.cp2_nine_vertex()
        m, _ = relabel(base, _random_relabelling(base, seed))
        flipped = hpsig.OrientedSimplicialManifold(m.facets, tuple(-s for s in m.signs))
        self.seed = seed
        self.cases = ((m, 1.0), (flipped, -1.0))

    def run_op(self, i: int) -> None:
        m, sign = self.cases[(self.seed + i) % 2]
        rep = hpsig.simplicial.manifold_signature(m)
        _check(rep.passed, "coincidence report did not pass")
        for r in rep.results:
            _check(r.k0.values == (complex(sign),), f"{r.method} class {r.k0.values}, want {sign:+g}")


class OctahedronZ4:
    """``hpsig manifold <file> --json`` in-process on the once-subdivided
    octahedron with its Z/4 rotation, relabelled by the seed and written to an
    ``.smf`` file at set-up; every character value must vanish."""

    name = "octahedron-z4"
    warmup_ops = 1
    pass_ops = 1
    chain_dims = [26, 72, 48]

    def __init__(self, seed: int, workdir: str) -> None:
        m, act = hpsig.barycentric_subdivide(
            hpsig.fixtures.octahedron(), hpsig.fixtures.octahedron_rotation()
        )
        m, act = relabel(m, _random_relabelling(m, seed), act)
        self.path = os.path.join(workdir, "octahedron-z4.smf")
        hpsig.write_smf(m, self.path, act)

    def run_op(self, i: int) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hpsig.cli.main(["manifold", self.path, "--json"])
        _check(code == 0, f"exit code {code}: {err.getvalue().strip()}")
        payload = json.loads(out.getvalue())
        _check(payload["passed"] is True, "passed is not true")
        _check(payload["chain_dims"] == self.chain_dims, f"chain dims {payload['chain_dims']}")
        _check(set(payload["methods"]) == METHODS, f"methods {sorted(payload['methods'])}")
        for method, cls in payload["methods"].items():
            for c in cls["classes"]:
                _check(abs(complex(*c["value"])) <= CHAR_TOL,
                       f"{method} value {c['value']} at {c['representative']}")


class GeneratedBatch:
    """Op ``i`` uses seed ``seed + i``: two of every three ops generate a
    closed complex and check the coincidence against the generator's class,
    every third generates a complex with boundary and runs the bordism checks."""

    name = "generated-batch"
    warmup_ops = 18
    pass_ops = 270

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def run_op(self, i: int) -> None:
        seed = self.seed + i
        if i % 3 == 2:
            cwb = hpsig.generate.generate_with_boundary(
                seed, BOUNDARY_PROFILES[(i // 3) % len(BOUNDARY_PROFILES)]
            )
            _check(hpsig.bordism.verify_with_boundary(cwb).passed, "boundary structure failed")
            _check(hpsig.bordism.boundary_signature_is_zero(cwb).passed, "boundary class not zero")
            _check(hpsig.bordism.verify_cone_identities(cwb).passed, "cone identities failed")
            return
        profile = SIGNATURE_PROFILES[(2 * (i // 3) + i % 3) % len(SIGNATURE_PROFILES)]
        hp, expected = hpsig.generate.generate_with_signature(seed, profile)
        rep = hpsig.signature.check_coincidence(hp)
        _check(rep.passed, f"coincidence report did not pass ({profile})")
        _check(hpsig.k0_equal(rep.k0, expected, tol=CHAR_TOL),
               f"class {rep.k0.values}, want {expected.values} ({profile})")


WORKLOADS = {w.name: w for w in (Cp2, OctahedronZ4, GeneratedBatch)}
