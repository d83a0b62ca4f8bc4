"""Verdict sweep: run ``verify_duality`` and ``check_coincidence`` on a fixed
set of complexes, and the bordism checks on complexes with boundary, as they
are and perturbed, and compare two such runs.

    PYTHONPATH=src python tools/verdict_sweep.py --seeds 12 --out new.jsonl
    python tools/verdict_sweep.py --compare old.jsonl new.jsonl

The cases are the acceptance suite's 12 generated profiles (n0/n2/n4 x no
group, Z/2, Z/3, Z/4) for seeds ``0 .. seeds-1``, the 9-vertex CP^2 and its
orientation flip, the octahedron with its Z/4 rotation, the once-subdivided
octahedron with that rotation and with its 24-element rotation group, the
latter conjugated degree by degree by seeded random unitaries (a dense
action with characters of degree 2 and 3, built here from the public API),
three copies of the 9-vertex CP^2 permuted by S_3, and the boundary of the
5-simplex (S^4).  Each case runs as it is and with its
duality perturbed at relative sizes 1e-11, 1e-9, 1e-7, 1e-5 and 1e-3, once by
a self-adjoint family (``S_k += eps (R_k + R_{n-k}^*) / 2``, which keeps an
entrywise self-adjoint ``S`` entrywise self-adjoint) and once by an arbitrary
one (``S_k += eps R_k``).  The perturbations are seeded by the case name, so
two runs see the same inputs.

The complexes with boundary are ``generate_with_boundary`` on the benchmark's
six profiles (n2, n2-d6, n2-d8, n4, n4-d6, n4-d8) for the same seeds, and
``bordism_to_cwb`` of the 3-simplex and of its barycentric subdivision, as they
are and with their duality perturbed in the same way.  Each such case writes
one JSON line holding, for ``verify_with_boundary``, ``verify_cone_identities``
and ``boundary_signature_is_zero``, the flags, failures, residuals and cone
value, the boundary class as the coincidence fields below, or the exception.

Each closed case writes one JSON line: the ``verify_duality`` flags, failures and
cone value, and either the ``check_coincidence`` ``passed`` flag, classes,
spectral gaps and grading residual, or the exception type and its message
with floating-point numbers masked.  A class that carries integer
multiplicities of the irreducible characters records them too (every class
does once all are read off isotypic block counts; a tree that still reads
characters of spectral projections has none for them); ``--compare`` does
not read them.  ``scale`` is the Frobenius norm of
``B + S``, an upper bound on its spectral norm.  The unperturbed line of a
triangulation also holds the same fields for ``manifold_signature``, which
reuses the spectra of its duality check; with a group action it further holds
every field of the ``EquivarianceReport`` of ``verify_equivariance``, which
reports the exact verdict of the duality check that the CLI ``manifold``
command also reads, and that command's ``--json`` payload and exit code.

``--cli`` runs the CLI byte sweep instead: every command, in text and with
``--json``, on a fixed set of ``.hpx`` and ``.smf`` files written to a
temporary directory (passing, failing, degenerate and with-boundary complexes,
the 3-simplex and its barycentric subdivision among the latter, the ``.hpx``
of a triangulation with its action, which is read back as dense
blocks, triangulations with and without actions, one action for each
rejection of ``chain_action`` and a vertex map that leaves out a vertex, a
labelling that does not compose like its group, which ``chain_action``
refuses at every tolerance and is run at ``--tol 3``, unreadable files, bad
tolerances, a bad profile and a negative seed).  An exception that escapes
the CLI is recorded as the interpreter reports it, with exit code 1 and the
traceback's last line.
Each invocation writes one JSON line with its argv, exit code, stdout and
stderr, the temporary directory masked as ``<dir>``.

    PYTHONPATH=src python tools/verdict_sweep.py --cli --out cli.jsonl

``--compare A B`` lists every discrete mismatch (flags, failure lists,
exception types and messages, classes beyond 1e-6, exit codes and the
non-float fields of the CLI payload, missing cases; for CLI byte records any
difference in exit code, stdout or stderr) and the worst float difference
relative to ``max(1, scale)``, and ends with one line that tallies the
discrete mismatches by the ``verify_duality`` failures that run A recorded
for each case; it exits 1 when a discrete mismatch exists.
Needs only the standard library, numpy and the ``hpsig`` package on the path.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
import traceback
import zlib

import numpy as np

PROFILES = (
    "n0-d4", "n2-d4", "n4-d4",
    "n0-z2-d4", "n2-z2-d4", "n4-z2-d4",
    "n0-z3-d3", "n2-z3-d3", "n4-z3-d3",
    "n0-z4-d4", "n2-z4-d4", "n4-z4-d4",
)
BOUNDARY_PROFILES = ("n2", "n2-d6", "n2-d8", "n4", "n4-d6", "n4-d8")
LEVELS = (1e-11, 1e-9, 1e-7, 1e-5, 1e-3)
CONE_IDENTITY_FLAGS = ("hyperbolic_valid",)
CONE_IDENTITY_FLOATS = ("cone_square_residual", "chain_map_residual", "boundary_formula_residual")
EQUIVARIANCE_FIELDS = ("tol", "boundary_residual", "duality_residual", "passed")
CLASS_TOL = 1e-6
_FLOAT = re.compile(r"[-+]?\d+\.\d+(?:e[-+]?\d+)?")


def _octahedron_rotation_group():
    """The 24 rotations of the octahedron, from ``hpsig.fixtures`` when the
    package has them and built the same way otherwise, so that the sweep also
    runs on trees without that fixture."""
    import itertools

    import hpsig
    from hpsig import fixtures

    if hasattr(fixtures, "octahedron_rotation_group"):
        return fixtures.octahedron_rotation_group()
    axes = ((0, 1), (1, 1), (0, -1), (1, -1), (2, 1), (2, -1))
    where = {axis: v for v, axis in enumerate(axes)}
    maps = []
    for perm in itertools.permutations(range(3)):
        parity = np.linalg.det(np.eye(3)[list(perm)])
        for signs in itertools.product((1, -1), repeat=3):
            if parity * np.prod(signs) > 0:
                maps.append(tuple(where[(perm[a], s * signs[a])] for a, s in axes))
    index = {vm: i for i, vm in enumerate(maps)}
    table = tuple(tuple(index[tuple(g[v] for v in h)] for h in maps) for g in maps)
    group = hpsig.FiniteGroup(tuple("".join(map(str, vm)) for vm in maps), table)
    return hpsig.SimplicialAction(group, tuple(dict(enumerate(vm)) for vm in maps))


def _cp2_triple_s3():
    """Three copies of the 9-vertex CP^2 permuted by S_3, from
    ``hpsig.fixtures`` when the package has them and built the same way
    otherwise."""
    import itertools

    import hpsig
    from hpsig import fixtures

    if hasattr(fixtures, "cp2_triple_s3"):
        return fixtures.cp2_triple_s3()
    cp2 = fixtures.cp2_nine_vertex()
    facets = tuple(tuple(v + 9 * c for v in f) for c in range(3) for f in cp2.facets)
    manifold = hpsig.OrientedSimplicialManifold(facets, cp2.signs * 3)
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms)
    group = hpsig.FiniteGroup(tuple("".join(map(str, p)) for p in perms), table)
    maps = tuple({v: 9 * p[v // 9] + v % 9 for v in range(27)} for p in perms)
    return manifold, hpsig.SimplicialAction(group, maps)


def base_cases(seeds: int):
    """(name, complex, triangulation) triples, built lazily; the triangulation
    is ``(manifold, action)`` for a triangulation, with action None when no
    group acts, and None for a generated complex."""
    import hpsig
    from hpsig import fixtures

    def flipped(m):
        return hpsig.OrientedSimplicialManifold(m.facets, tuple(-s for s in m.signs))

    for name, m in (
        ("cp2", fixtures.cp2_nine_vertex()),
        ("cp2-flip", flipped(fixtures.cp2_nine_vertex())),
    ):
        yield name, hpsig.to_hp_complex(m), (m, None)
    coarse = (fixtures.octahedron(), fixtures.octahedron_rotation())
    yield "octahedron-z4-coarse", hpsig.to_hp_complex(*coarse), coarse
    for name, action in (
        ("octahedron-z4", fixtures.octahedron_rotation()),
        ("octahedron-rot24", _octahedron_rotation_group()),
    ):
        tri = hpsig.barycentric_subdivide(fixtures.octahedron(), action)
        yield name, hpsig.to_hp_complex(*tri), tri
    # the last one conjugated by random unitaries: the same classes from a
    # dense action, which is no longer a triangulation's
    rng = np.random.default_rng(zlib.crc32(b"octahedron-rot24-twisted"))
    hp = hpsig.to_hp_complex(*tri)
    yield ("octahedron-rot24-twisted",
           hpsig.twist(hp, [hpsig.random_unitary(rng, d) for d in hp.dims]), None)
    tri = _cp2_triple_s3()
    yield "cp2-s3", hpsig.to_hp_complex(*tri), tri
    s4 = fixtures.simplex_sphere(4)
    yield "s4", hpsig.to_hp_complex(s4), (s4, None)
    for seed in range(seeds):
        for profile in PROFILES:
            yield f"{profile}/{seed}", hpsig.generate_with_signature(seed, profile)[0], None


def equivariance(tri) -> dict:
    """Every field of the equivariance report of a triangulation with an
    action, or the exception ``verify_equivariance`` raises."""
    import hpsig

    m, action = tri
    try:
        rep = hpsig.verify_equivariance(m, action, tol=1e-9)
    except Exception as exc:  # the sweep records every outcome and goes on
        return _error(exc)
    return {field: getattr(rep, field) for field in EQUIVARIANCE_FIELDS}


def cli_manifold(tri) -> dict:
    """Exit code and ``--json`` payload of ``hpsig manifold`` on the
    triangulation, written to a temporary ``.smf`` file."""
    import hpsig
    import hpsig.cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.smf")
        hpsig.write_smf(tri[0], path, tri[1])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hpsig.cli.main(["manifold", path, "--json"])
    text = out.getvalue()
    return {
        "exit": code,
        "payload": json.loads(text) if text.strip() else None,
        "stderr": _FLOAT.sub("<x>", err.getvalue().replace(path, "<file>")),
    }


def perturbed(hp, name: str, kind: str, eps: float):
    """``hp`` with its duality moved by ``eps`` times a seeded family."""
    import hpsig

    n = hp.n
    blocks = hp.duality.blocks
    rng = np.random.default_rng(zlib.crc32(f"{name}/{kind}".encode()))
    complex_data = any(np.iscomplexobj(b) for b in blocks)

    def draw(shape):
        r = rng.standard_normal(shape)
        return r + 1j * rng.standard_normal(shape) if complex_data else r

    raw = [draw(b.shape) for b in blocks]
    size = max((float(np.abs(b).max()) for b in blocks if b.size), default=1.0)
    if kind == "sa":
        moves = [(raw[k] + raw[n - k].conj().T) / 2.0 for k in range(n + 1)]
    else:
        moves = raw
    new = tuple(b + (eps * size) * m for b, m in zip(blocks, moves))
    return hpsig.HilbertPoincareComplex(hp.chain, hpsig.DualityOperator(new), hp.action)


def _error(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": _FLOAT.sub("<x>", str(exc))}


def _coincidence(rep) -> dict:
    out = {
        "passed": rep.passed,
        "classes": {
            r.method: [[v.real, v.imag] for v in r.k0.values] for r in rep.results
        },
        "gaps": {r.method: r.spectral_gap for r in rep.results},
        "grading_residual": rep.grading_conjugation_residual,
    }
    multiplicities = {r.method: getattr(r.k0, "multiplicities", None) for r in rep.results}
    if any(m is not None for m in multiplicities.values()):
        out["multiplicities"] = {k: list(m) for k, m in multiplicities.items() if m is not None}
    return out


def record(name: str, variant: str, hp) -> dict:
    import hpsig

    b = hp.total_boundary()
    scale = float(np.linalg.norm(b + b.conj().T + hp.total_duality()))
    out = {"case": name, "variant": variant, "scale": scale}
    try:
        rep = hpsig.verify_duality(hp)
        out["verify"] = {
            "passed": rep.passed,
            "failures": list(rep.failures),
            "cone_invertible": rep.cone_invertible,
            "cone_min_singular_value": rep.cone_min_singular_value,
        }
    except Exception as exc:  # the sweep records every outcome and goes on
        out["verify"] = _error(exc)
    try:
        out["coincidence"] = _coincidence(hpsig.check_coincidence(hp))
    except Exception as exc:  # the sweep records every outcome and goes on
        out["coincidence"] = _error(exc)
    return out


def record_triangulation(rec: dict, tri) -> None:
    """Add the routes that start from the triangulation itself."""
    import hpsig

    try:
        rec["manifold_signature"] = _coincidence(hpsig.manifold_signature(*tri))
    except Exception as exc:  # the sweep records every outcome and goes on
        rec["manifold_signature"] = _error(exc)
    if tri[1] is not None:
        rec["equivariance"] = equivariance(tri)
        rec["cli"] = cli_manifold(tri)


def perturbed_with_boundary(cwb, name: str, kind: str, eps: float):
    """``cwb`` with its duality moved as :func:`perturbed` moves a closed one."""
    import hpsig

    closed = hpsig.HilbertPoincareComplex(cwb.chain, cwb.duality)
    return hpsig.ComplexWithBoundary(cwb.chain, perturbed(closed, name, kind, eps).duality,
                                     cwb.split)


def record_with_boundary(name: str, variant: str, cwb) -> dict:
    """The three bordism checks of a complex with boundary; failure messages
    have their floating-point numbers masked."""
    import hpsig

    b = cwb.chain.total_boundary()
    scale = float(np.linalg.norm(b + b.conj().T + cwb.duality.total(cwb.chain)))
    out = {"case": name, "variant": variant, "scale": scale, "bordism": {}}

    def masked(failures):
        return [_FLOAT.sub("<x>", f) for f in failures]

    try:
        rep = hpsig.verify_with_boundary(cwb)
        out["bordism"]["structure"] = {
            "passed": rep.passed,
            "failures": masked(rep.failures),
            "cone_invertible": rep.cone_invertible,
            "cone_min_singular_value": rep.cone_min_singular_value,
            "residuals": rep.residuals,
        }
    except Exception as exc:  # the sweep records every outcome and goes on
        out["bordism"]["structure"] = _error(exc)
    try:
        rep = hpsig.verify_cone_identities(cwb)
        out["bordism"]["cone_identities"] = {
            "passed": rep.passed,
            "failures": masked(rep.failures),
            **{field: getattr(rep, field) for field in CONE_IDENTITY_FLAGS + CONE_IDENTITY_FLOATS},
        }
    except Exception as exc:  # the sweep records every outcome and goes on
        out["bordism"]["cone_identities"] = _error(exc)
    try:
        rep = hpsig.boundary_signature_is_zero(cwb)
        out["bordism"]["boundary_zero"] = {"is_zero": rep.is_zero, "zero_passed": rep.passed,
                                           **_coincidence(rep.coincidence)}
    except Exception as exc:  # the sweep records every outcome and goes on
        out["bordism"]["boundary_zero"] = _error(exc)
    return out


def _variants(case, name: str, move):
    yield "base", case
    for kind in ("sa", "nsa"):
        for eps in LEVELS:
            yield f"{kind}-{eps:g}", move(case, name, kind, eps)


def boundary_cases(seeds: int):
    """(name, complex with boundary) for every with-boundary case."""
    import hpsig
    from hpsig import fixtures

    for seed in range(seeds):
        for profile in BOUNDARY_PROFILES:
            yield f"b-{profile}/{seed}", hpsig.generate_with_boundary(seed, profile)
    disk = fixtures.simplex_disk(3)
    yield "b-disk3", hpsig.bordism_to_cwb(disk)
    yield "b-sd-disk3", hpsig.bordism_to_cwb(hpsig.barycentric_subdivide(disk)[0])


def sweep(seeds: int, stream) -> int:
    count = 0
    for name, hp, tri in base_cases(seeds):
        for variant, case in _variants(hp, name, perturbed):
            rec = record(name, variant, case)
            if tri is not None and variant == "base":
                record_triangulation(rec, tri)
            stream.write(json.dumps(rec) + "\n")
            count += 1
    for name, cwb in boundary_cases(seeds):
        for variant, case in _variants(cwb, name, perturbed_with_boundary):
            stream.write(json.dumps(record_with_boundary(name, variant, case)) + "\n")
            count += 1
    return count


HPX_COMMANDS = (
    ("verify",),
    ("signature",),
    ("signature", "--method", "higson-roe"),
    ("signature", "--method", "mishchenko"),
    ("signature", "--method", "reduced"),
    ("boundary",),
    ("boundary", "-o", "{dir}/edge.hpx"),
    ("cone",),
    ("bordism-check",),
)
SMF_COMMANDS = (
    ("manifold",),
    ("manifold", "--stats"),
    ("stats",),
    ("subdivide", "-o", "{dir}/sd.smf"),
)


# The actions that ``chain_action`` rejects, one per check, run through the
# commands that build the chain action or count isotropy.
REJECTED_COMMANDS = SMF_COMMANDS[:3]


def _rejected_actions() -> dict:
    """Triangulations with a Z/2 action that ``chain_action`` rejects: a map
    that is not a vertex permutation, one that leaves out a vertex, one that
    sends a facet to a non-facet, an irregular one and an
    orientation-reversing one."""
    import hpsig
    from hpsig import fixtures

    def z2(m, vertex_map):
        identity = {v: v for v in m.vertices}
        return m, hpsig.SimplicialAction(hpsig.FiniteGroup.cyclic(2), (identity, vertex_map))

    tetra, octa = fixtures.simplex_sphere(2), fixtures.octahedron()
    pair = fixtures.disjoint_sphere_pair()
    return {
        "reject-not-permutation": z2(tetra, {v: 0 for v in range(4)}),
        "reject-missing-vertex": z2(tetra, {v: v for v in range(3)}),
        "reject-non-facet": z2(octa, {0: 0, 1: 2, 2: 1, 3: 3, 4: 4, 5: 5}),
        "reject-irregular": z2(tetra, {0: 1, 1: 0, 2: 2, 3: 3}),
        "reject-reversing": z2(pair, {0: 5, 1: 4, 2: 6, 3: 7, 4: 1, 5: 0, 6: 2, 7: 3}),
    }


def _zero_duality_chain():
    """Degrees 0..2 of dims (1, 0, 1) with zero boundaries and zero duality."""
    import hpsig

    chain = hpsig.ChainComplex((1, 0, 1), (np.zeros((1, 0)), np.zeros((0, 1))))
    dual = hpsig.DualityOperator((np.zeros((1, 1)), np.zeros((0, 0)), np.zeros((1, 1))))
    return chain, dual


def _disk_rotation():
    """The 2-simplex with Z/3 rotating its vertices, an action on a triangulation
    with boundary."""
    import hpsig

    maps = tuple({v: (v + k) % 3 for v in range(3)} for k in range(3))
    return hpsig.SimplicialAction(hpsig.FiniteGroup.cyclic(3), maps)


def cli_fixtures(tmp: str) -> tuple[list[str], list[str], list[str], str]:
    """Write the byte sweep's input files to ``tmp``; return the ``.hpx`` and
    the ``.smf`` paths, including one unwritten and one unparsable of each,
    the ``.smf`` paths of the rejected actions, and that of the refused
    action."""
    import hpsig
    from hpsig import fixtures

    chain, zero = _zero_duality_chain()
    closed = {
        "n2-z2-0": hpsig.generate_with_signature(0, "n2-z2")[0],
        "n2-d6-5": hpsig.generate_with_signature(5, "n2-d6")[0],
        "n4-z3-d3-1": hpsig.generate_with_signature(1, "n4-z3-d3")[0],
        "n0-z4-d4-2": hpsig.generate_with_signature(2, "n0-z4-d4")[0],
        "model-cp2": fixtures.model_projective_plane(),
        "zero-duality": hpsig.HilbertPoincareComplex(chain, zero),
        "octahedron-sd-z4": hpsig.to_hp_complex(
            *hpsig.barycentric_subdivide(fixtures.octahedron(), fixtures.octahedron_rotation())
        ),
    }
    closed["n2-d6-5-nsa"] = perturbed(closed["n2-d6-5"], "n2-d6-5", "nsa", 1e-3)
    closed["n2-z2-0-sa"] = perturbed(closed["n2-z2-0"], "n2-z2-0", "sa", 1e-3)
    disk = fixtures.simplex_disk(3)
    bounded = {
        "b-n2-0": hpsig.generate_with_boundary(0, "n2"),
        "b-n2-d6-3": hpsig.generate_with_boundary(3, "n2-d6"),
        "b-n4-d6-2": hpsig.generate_with_boundary(2, "n4-d6"),
        "b-disk3": hpsig.bordism_to_cwb(disk),
        # a triangulated attaching cone whose split permutes many coordinates
        "b-sd-disk3": hpsig.bordism_to_cwb(hpsig.barycentric_subdivide(disk)[0]),
        "b-zero-quotient": hpsig.ComplexWithBoundary(chain, zero, ((), (), ())),
    }
    # a structural failure, and a quotient cone that is singular at the default
    # tolerance while every structural identity holds
    for name, kind, eps in (("b-n2-d6-3", "nsa", 1e-3), ("b-n2-0", "sa", 1e-9)):
        bounded[f"{name}-{kind}"] = perturbed_with_boundary(bounded[name], name, kind, eps)
    hpx = []
    for name, obj in {**closed, **bounded}.items():
        hpx.append(os.path.join(tmp, f"{name}.hpx"))
        hpsig.write_hpx(obj, hpx[-1])
    octa, rot = fixtures.octahedron(), fixtures.octahedron_rotation()
    triangulations = {
        "octahedron": (octa, None),
        "octahedron-z4": (octa, rot),
        "octahedron-sd-z4": hpsig.barycentric_subdivide(octa, rot),
        "octahedron-sd-rot24": hpsig.barycentric_subdivide(octa, _octahedron_rotation_group()),
        "s4": (fixtures.simplex_sphere(4), None),
        "cp2": (fixtures.cp2_nine_vertex(), None),
        "sphere-pair-swap": (fixtures.disjoint_sphere_pair(), fixtures.sphere_swap_action()),
        "circle": (fixtures.circle_polygon(4), None),
        "disk2": (fixtures.simplex_disk(2), None),
        "disk3": (fixtures.simplex_disk(3), None),
        "disk2-z3": (fixtures.simplex_disk(2), _disk_rotation()),
    }
    smf = []
    for name, (m, action) in triangulations.items():
        smf.append(os.path.join(tmp, f"{name}.smf"))
        hpsig.write_smf(m, smf[-1], action)
    for paths, suffix, text in ((hpx, "hpx", '{"format": "none"}'), (smf, "smf", "{broken")):
        paths.append(os.path.join(tmp, f"unparsable.{suffix}"))
        with open(paths[-1], "w") as f:
            f.write(text)
        paths.append(os.path.join(tmp, f"missing.{suffix}"))
    rejected = []
    for name, (m, action) in _rejected_actions().items():
        rejected.append(os.path.join(tmp, f"{name}.smf"))
        hpsig.write_smf(m, rejected[-1], action)
    # Z/2 labelling the identity and the quarter turn: no homomorphism, which
    # chain_action refuses, --tol 3 included
    refused = os.path.join(tmp, "octahedron-z2-quarter-turn.smf")
    quarter = hpsig.SimplicialAction(hpsig.FiniteGroup.cyclic(2), rot.vertex_maps[:2])
    hpsig.write_smf(octa, refused, quarter)
    return hpx, smf, rejected, refused


def cli_invocations(tmp: str):
    """(argv, environment) pairs of the byte sweep, each argv once without and
    once with ``--json``; the environment holds ``HPSIG_TOL`` or is empty."""
    hpx, smf, rejected, refused = cli_fixtures(tmp)
    runs = [((*cmd, path), {}) for path in hpx for cmd in HPX_COMMANDS]
    runs += [((*cmd, path), {}) for path in smf for cmd in SMF_COMMANDS]
    runs += [((*cmd, path), {}) for path in rejected for cmd in REJECTED_COMMANDS]
    runs += [(("manifold", hpx[0]), {}), (("verify", smf[0]), {})]
    runs += [
        (("verify", hpx[0], "--tol", tol), {}) for tol in ("-1", "0", "1e-3", "nan", "inf")
    ]
    runs += [(("manifold", smf[1], "--tol", "-1"), {})]
    runs += [(("manifold", refused, "--tol", "3"), {})]
    runs += [(("verify", hpx[0]), {"HPSIG_TOL": tol}) for tol in ("banana", "-2", "1e-3", "inf")]
    for seed, profile in ((1, "n2"), (9, "n2-z2-d6"), (3, "n4-z3-d3"), (2, "n0-z4")):
        for extra in ((), ("--with-boundary",), ("-o", "{dir}/gen.hpx")):
            runs.append((("generate", "--seed", str(seed), "--profile", profile, *extra), {}))
    runs += [
        (("generate", "--seed", "1", "--profile", "x7"), {}),
        (("generate", "--seed", "-1", "--profile", "n2"), {}),
        (("generate", "--seed", "-1", "--profile", "n2", "--with-boundary"), {}),
        (("generate", "--seed", "1", "--profile", "n2", "--with-boundary",
          "-o", "{dir}/gen-b.hpx"), {}),
        (("generate", "--seed", "1"), {}),
        (("verify",), {}),
    ]
    for argv, env in runs:
        argv = [a.replace("{dir}", tmp) for a in argv]
        yield argv, env
        yield [*argv, "--json"], env


def cli_record(argv, env: dict, tmp: str) -> dict:
    """Exit code, stdout and stderr of one in-process ``hpsig`` invocation."""
    import hpsig.cli

    saved = os.environ.pop("HPSIG_TOL", None)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = hpsig.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            except Exception as exc:  # escapes the CLI: the interpreter's report
                code = 1
                print("Traceback (most recent call last):", file=sys.stderr)
                print("".join(traceback.format_exception_only(exc)), end="", file=sys.stderr)
    finally:
        os.environ.pop("HPSIG_TOL", None)
        if saved is not None:
            os.environ["HPSIG_TOL"] = saved

    def mask(text: str) -> str:
        return text.replace(tmp, "<dir>")

    return {
        "case": "hpsig " + mask(" ".join(argv)),
        "variant": " ".join(f"{k}={v}" for k, v in env.items()) or "cli",
        "exit": code,
        "stdout": mask(out.getvalue()),
        "stderr": mask(err.getvalue()),
    }


def cli_sweep(stream) -> int:
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, env in cli_invocations(tmp):
            stream.write(json.dumps(cli_record(argv, env, tmp)) + "\n")
            count += 1
    return count


def _load(path: str) -> dict:
    with open(path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    return {(r["case"], r["variant"]): r for r in recs}


def _float_diff(a: float, b: float, scale: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, scale)


def compare(path_a: str, path_b: str, stream) -> int:
    """Print every discrete mismatch and the worst relative float difference;
    return the number of discrete mismatches."""
    a, b = _load(path_a), _load(path_b)
    mismatches = []
    worst = {}

    def note_float(field, key, x, y, scale):
        d = _float_diff(x, y, scale)
        if d > worst.get(field, (-1.0, None))[0]:
            worst[field] = (d, key)

    def compare_coincidence(route, key, ca, cb, scale):
        for field in ("error", "message", "passed"):
            if ca.get(field) != cb.get(field):
                mismatches.append(f"{key}: {route} {field} {ca.get(field)!r} != {cb.get(field)!r}")
        if "classes" not in ca or "classes" not in cb:
            return
        for method in sorted(set(ca["classes"]) | set(cb["classes"])):
            xa, xb = ca["classes"].get(method), cb["classes"].get(method)
            if xa is None or xb is None or len(xa) != len(xb):
                mismatches.append(f"{key}: {route} {method} class missing or of another group")
                continue
            gap = max(abs(complex(*p) - complex(*q)) for p, q in zip(xa, xb))
            if gap > CLASS_TOL:
                mismatches.append(f"{key}: {route} {method} class {xa} != {xb}")
            note_float("class", key, gap, 0.0, 1.0)
            note_float("spectral_gap", key, ca["gaps"][method], cb["gaps"][method], scale)
        note_float("grading_residual", key, ca["grading_residual"], cb["grading_residual"], scale)

    def compare_payload(where, x, y, key, scale):
        """Floats are compared as numbers (class values at 1e-6), everything
        else exactly."""
        if isinstance(x, dict) and isinstance(y, dict):
            for field in sorted(set(x) | set(y)):
                if field not in x or field not in y:
                    mismatches.append(f"{where}.{field} only in {'B' if field in y else 'A'}")
                else:
                    compare_payload(f"{where}.{field}", x[field], y[field], key, scale)
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for i, (p, q) in enumerate(zip(x, y)):
                compare_payload(f"{where}[{i}]", p, q, key, scale)
        elif type(x) is float and type(y) is float:
            if ".value[" in where:
                if abs(x - y) > CLASS_TOL:
                    mismatches.append(f"{where} {x!r} != {y!r}")
                note_float("class", key, abs(x - y), 0.0, 1.0)
            else:
                note_float(f"cli {where.rsplit('.', 1)[-1]}", key, x, y, scale)
        elif type(x) is not type(y) or x != y:
            mismatches.append(f"{where} {x!r} != {y!r}")

    def compare_bytes(key, x, y):
        """CLI byte records match only when exit code, stdout and stderr are
        identical; the first differing line is shown."""
        if x.get("exit") != y.get("exit"):
            mismatches.append(f"{key}: exit {x.get('exit')!r} != {y.get('exit')!r}")
        for field in ("stdout", "stderr"):
            p, q = x.get(field, ""), y.get(field, "")
            if p != q:
                pl, ql = p.splitlines(), q.splitlines()
                i = next(
                    (i for i, (u, v) in enumerate(zip(pl, ql)) if u != v), min(len(pl), len(ql))
                )
                shown = [lines[i] if i < len(lines) else "<end>" for lines in (pl, ql)]
                mismatches.append(f"{key}: {field} line {i + 1} {shown[0]!r} != {shown[1]!r}")

    def compare_bordism(key, xa, xb, scale):
        """Flags, failure lists, exceptions and classes exactly (classes at
        1e-6), residuals and cone values as floats."""
        for check in ("structure", "cone_identities", "boundary_zero"):
            ca, cb = xa.get(check, {}), xb.get(check, {})
            for field in ("error", "message", "passed", "failures", "cone_invertible",
                          "is_zero", "zero_passed", *CONE_IDENTITY_FLAGS):
                if ca.get(field) != cb.get(field):
                    mismatches.append(
                        f"{key}: {check} {field} {ca.get(field)!r} != {cb.get(field)!r}"
                    )
            floats = {f: (ca.get(f), cb.get(f)) for f in CONE_IDENTITY_FLOATS}
            floats["cone_min_singular_value"] = (ca.get("cone_min_singular_value"),
                                                 cb.get("cone_min_singular_value"))
            res_a, res_b = ca.get("residuals") or {}, cb.get("residuals") or {}
            if set(res_a) != set(res_b):
                mismatches.append(f"{key}: {check} residual names differ")
            floats.update({f"residual {n}": (res_a[n], res_b[n]) for n in set(res_a) & set(res_b)})
            for field, (x, y) in floats.items():
                if x is not None and y is not None:
                    note_float(f"{check} {field}", key, x, y, scale)
        za, zb = xa.get("boundary_zero", {}), xb.get("boundary_zero", {})
        if "classes" in za and "classes" in zb:
            compare_coincidence("boundary_zero", key, za, zb, scale)

    def compare_case(key):
        if key not in a or key not in b:
            mismatches.append(f"{key}: only in {'B' if key in b else 'A'}")
            return
        ra, rb = a[key], b[key]
        if "stdout" in ra or "stdout" in rb:
            compare_bytes(key, ra, rb)
            return
        if "bordism" in ra or "bordism" in rb:
            compare_bordism(key, ra.get("bordism", {}), rb.get("bordism", {}),
                            max(ra["scale"], rb["scale"]))
            return
        scale = max(ra["scale"], rb["scale"])
        va, vb = ra["verify"], rb["verify"]
        for field in ("error", "message", "passed", "failures", "cone_invertible"):
            if va.get(field) != vb.get(field):
                mismatches.append(f"{key}: verify {field} {va.get(field)!r} != {vb.get(field)!r}")
        if "cone_min_singular_value" in va and "cone_min_singular_value" in vb:
            note_float("cone_min_singular_value", key, va["cone_min_singular_value"],
                       vb["cone_min_singular_value"], scale)
        ea, eb = ra.get("equivariance", {}), rb.get("equivariance", {})
        for field in ("error", "message", "tol", "passed"):
            if ea.get(field) != eb.get(field):
                mismatches.append(f"{key}: equivariance {field} {ea.get(field)!r} != {eb.get(field)!r}")
        for field in ("boundary_residual", "duality_residual"):
            if field in ea and field in eb:
                note_float(field, key, ea[field], eb[field], scale)
        compare_coincidence("coincidence", key, ra["coincidence"], rb["coincidence"], scale)
        if "manifold_signature" in ra or "manifold_signature" in rb:
            compare_coincidence("manifold_signature", key, ra.get("manifold_signature", {}),
                                rb.get("manifold_signature", {}), scale)
        if "cli" in ra or "cli" in rb:
            compare_payload(f"{key}: cli", ra.get("cli"), rb.get("cli"), key, scale)

    def verify_failures(key) -> str:
        """Run A's ``verify_duality`` failures for a case, as one label."""
        verify = a.get(key, {}).get("verify")
        if verify is None:
            return "no verify record"
        if "error" in verify:
            return f"verify raised {verify['error']}"
        return " + ".join(verify["failures"]) or "verify passed"

    tally = {}  # discrete mismatches by A's verify failures
    for key in sorted(set(a) | set(b)):
        before = len(mismatches)
        compare_case(key)
        group = verify_failures(key)
        tally[group] = tally.get(group, 0) + len(mismatches) - before

    for line in mismatches:
        stream.write(line + "\n")
    stream.write(f"{len(set(a) | set(b))} cases, {len(mismatches)} discrete mismatches\n")
    for field, (d, key) in sorted(worst.items()):
        stream.write(f"worst relative {field} difference {d:.3e} at {key}\n")
    stream.write("discrete mismatches by A's verify failures: "
                 + "; ".join(f"[{group}] {n}" for group, n in sorted(tally.items())) + "\n")
    return len(mismatches)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=12,
                        help="seeds per generated profile (default 12)")
    parser.add_argument("--out", help="JSON lines file to write (default stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sweep files instead of running one")
    parser.add_argument("--cli", action="store_true",
                        help="run the CLI byte sweep instead of the verdict sweep")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare, sys.stdout) else 0

    def run(stream) -> int:
        return cli_sweep(stream) if args.cli else sweep(args.seeds, stream)

    if args.out:
        with open(args.out, "w") as f:
            count = run(f)
    else:
        count = run(sys.stdout)
    print(f"{count} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
