"""Verdict sweep: run ``verify_duality`` and ``check_coincidence`` on a fixed
set of complexes, as they are and perturbed, and compare two such runs.

    PYTHONPATH=src python tools/verdict_sweep.py --seeds 12 --out new.jsonl
    python tools/verdict_sweep.py --compare old.jsonl new.jsonl

The cases are the acceptance suite's 12 generated profiles (n0/n2/n4 x no
group, Z/2, Z/3, Z/4) for seeds ``0 .. seeds-1``, the 9-vertex CP^2 and its
orientation flip, the octahedron with its Z/4 rotation, the once-subdivided
octahedron with that rotation and with its 24-element rotation group, and the
boundary of the 5-simplex (S^4).  Each case runs as it is and with its
duality perturbed at relative sizes 1e-11, 1e-9, 1e-7, 1e-5 and 1e-3, once by
a self-adjoint family (``S_k += eps (R_k + R_{n-k}^*) / 2``, which keeps an
entrywise self-adjoint ``S`` entrywise self-adjoint) and once by an arbitrary
one (``S_k += eps R_k``).  The perturbations are seeded by the case name, so
two runs see the same inputs.

Each case writes one JSON line: the ``verify_duality`` flags, failures and
cone value, and either the ``check_coincidence`` ``passed`` flag, classes,
spectral gaps and grading residual, or the exception type and its message
with floating-point numbers masked.  ``scale`` is the Frobenius norm of
``B + S``, an upper bound on its spectral norm.  The unperturbed line of a
triangulation also holds the same fields for ``manifold_signature``, which
reuses the spectra of its duality check; with a group action it further holds
every field of the ``EquivarianceReport`` that the CLI ``manifold`` command
gates on, and that command's ``--json`` payload and exit code.

``--compare A B`` lists every discrete mismatch (flags, failure lists,
exception types and messages, classes beyond 1e-6, exit codes and the
non-float fields of the CLI payload, missing cases) and the worst float
difference relative to ``max(1, scale)``; it exits 1 when a discrete mismatch
exists.  Needs only the standard library, numpy and the
``hpsig`` package on the path.
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
import zlib

import numpy as np

PROFILES = (
    "n0-d4", "n2-d4", "n4-d4",
    "n0-z2-d4", "n2-z2-d4", "n4-z2-d4",
    "n0-z3-d3", "n2-z3-d3", "n4-z3-d3",
    "n0-z4-d4", "n2-z4-d4", "n4-z4-d4",
)
LEVELS = (1e-11, 1e-9, 1e-7, 1e-5, 1e-3)
EQUIVARIANCE_FIELDS = (
    "tol", "boundary_residual", "duality_residual", "raw_cap_residual", "passed",
)
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
    s4 = fixtures.simplex_sphere(4)
    yield "s4", hpsig.to_hp_complex(s4), (s4, None)
    for seed in range(seeds):
        for profile in PROFILES:
            yield f"{profile}/{seed}", hpsig.generate_with_signature(seed, profile)[0], None


def equivariance(tri) -> dict:
    """Every field of the equivariance report of a triangulation with an
    action, as the CLI ``manifold`` command computes it."""
    from hpsig import simplicial

    m, action = tri
    try:
        chains = simplicial.enumerate_and_boundaries(m)
        # the report is the third item whatever else the helper returns
        rep = simplicial._equivariant_structure(m, action, chains, 1e-9)[2]
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
    return {
        "passed": rep.passed,
        "classes": {
            r.method: [[v.real, v.imag] for v in r.k0.values] for r in rep.results
        },
        "gaps": {r.method: r.spectral_gap for r in rep.results},
        "grading_residual": rep.grading_conjugation_residual,
    }


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


def sweep(seeds: int, stream) -> int:
    count = 0
    for name, hp, tri in base_cases(seeds):
        variants = [("base", hp)]
        variants += [
            (f"{kind}-{eps:g}", perturbed(hp, name, kind, eps))
            for kind in ("sa", "nsa")
            for eps in LEVELS
        ]
        for variant, case in variants:
            rec = record(name, variant, case)
            if tri is not None and variant == "base":
                record_triangulation(rec, tri)
            stream.write(json.dumps(rec) + "\n")
            count += 1
    return count


def _load(path: str) -> dict:
    with open(path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    return {(r["case"], r["variant"]): r for r in recs}


def _float_diff(a: float, b: float, scale: float) -> float:
    if a == b:
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

    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            mismatches.append(f"{key}: only in {'B' if key in b else 'A'}")
            continue
        ra, rb = a[key], b[key]
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
        for field in ("boundary_residual", "duality_residual", "raw_cap_residual"):
            if field in ea and field in eb:
                note_float(field, key, ea[field], eb[field], scale)
        compare_coincidence("coincidence", key, ra["coincidence"], rb["coincidence"], scale)
        if "manifold_signature" in ra or "manifold_signature" in rb:
            compare_coincidence("manifold_signature", key, ra.get("manifold_signature", {}),
                                rb.get("manifold_signature", {}), scale)
        if "cli" in ra or "cli" in rb:
            compare_payload(f"{key}: cli", ra.get("cli"), rb.get("cli"), key, scale)

    for line in mismatches:
        stream.write(line + "\n")
    stream.write(f"{len(set(a) | set(b))} cases, {len(mismatches)} discrete mismatches\n")
    for field, (d, key) in sorted(worst.items()):
        stream.write(f"worst relative {field} difference {d:.3e} at {key}\n")
    return len(mismatches)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=12,
                        help="seeds per generated profile (default 12)")
    parser.add_argument("--out", help="JSON lines file to write (default stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sweep files instead of running one")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare, sys.stdout) else 0
    if args.out:
        with open(args.out, "w") as f:
            count = sweep(args.seeds, f)
    else:
        count = sweep(args.seeds, sys.stdout)
    print(f"{count} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
