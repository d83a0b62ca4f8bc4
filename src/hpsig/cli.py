"""Command line front end.

Exit codes: 0 success, 1 verification or computation failure, 2 unreadable
or malformed input, 3 degenerate duality or operator (structure parses and
the algebraic identities hold, but an invertibility assumption fails: the
cone or quotient cone is the only failed gate of ``verify``, ``cone`` finds
the cone degenerate, or a degenerate duality or operator is raised).
The default tolerance is 1e-9, overridable with --tol or the HPSIG_TOL
environment variable by a positive finite number.

Every command has one output path.  It records each text line together with
the JSON fields that line shows in one :class:`_Output`; :func:`main` renders
that once, as the text lines or with ``--json`` as the JSON object, and
returns the command's exit code.  Gate verdicts and exit codes come from the
report flags, and a gate's ``ok``/``FAIL`` from the failure message that the
module producing the report defines; no message text is copied here.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .bordism import (
    _CONE_IDENTITY_FAILURES,
    ComplexWithBoundary,
    CwbReport,
    boundary_complex,
    boundary_signature_is_zero,
    verify_cone_identities,
    verify_with_boundary,
)
from .complexes import (
    _DUALITY_FAILURES,
    doubled_duality_cone,
    homology_ranks,
    verify_duality,
)
from .errors import (
    DegenerateBoundaryDuality,
    DegenerateDuality,
    DegenerateOperator,
    HpsigError,
    ParseError,
    PreconditionViolated,
)
from .generate import generate_with_boundary, generate_with_signature
from .groups import K0Class
from .io import read_hpx, read_smf, write_hpx, write_smf
from .signature import (
    check_coincidence,
    higson_roe_signature,
    mishchenko_signature,
    reduced_signature,
)
from .simplicial import (
    barycentric_subdivide,
    bordism_to_cwb,
    geometry_stats,
    manifold_signature,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3

# the gates of the duality check: DualityReport field, text label, JSON key
# of the residual (the cone value has its own key)
_DUALITY_GATES = (
    ("boundary_residual", "boundary squared", "boundary_squared"),
    ("selfadjoint_residual", "duality self-adjoint", "selfadjoint"),
    ("chain_residual", "chain condition", "chain_condition"),
    ("cone_min_singular_value", "cone min singular value", None),
    ("action_residual", "action commutes", "action"),
)
# the residual checks of the attaching construction: report field, text label
_ATTACHING_GATES = (
    ("cone_square_residual", "attaching cone squares"),
    ("chain_map_residual", "coupling chain map"),
    ("boundary_formula_residual", "boundary duality formula"),
)


class _Output:
    """The text lines and the JSON object of one command, recorded together."""

    def __init__(self, **fields) -> None:
        self.lines: list[str] = []
        self.payload = dict(fields)

    def __call__(self, line: str | None = None, /, **fields) -> None:
        """Record a text line (if any) and the JSON fields it shows."""
        if line is not None:
            self.lines.append(line)
        self.payload.update(fields)

    def render(self, as_json: bool) -> None:
        print(json.dumps(self.payload, indent=1) if as_json else "\n".join(self.lines))


def _not_run(value) -> bool:
    """Whether a report value is the NaN of a check that did not run."""
    return isinstance(value, float) and math.isnan(value)


def _fields(report, *names: str) -> dict:
    """The named fields of a report, as a JSON section; the value of a check
    that did not run is null."""
    values = {name: getattr(report, name) for name in names}
    return {name: None if _not_run(v) else v for name, v in values.items()}


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < 5e-7:
        re = z.real
        if abs(re - round(re)) < 5e-7:
            return str(int(round(re)))
        return f"{re:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}j"


def _class_dict(k0: K0Class) -> dict:
    return {
        "group": list(k0.group.elements),
        "classes": [
            {
                "representative": k0.group.elements[cls[0]],
                "value": [complex(v).real, complex(v).imag],
            }
            for cls, v in zip(k0.group.conjugacy_classes, k0.values)
        ],
        "rank": k0.rank,
    }


def _fmt_class(k0: K0Class) -> str:
    if k0.group.order == 1:
        return _fmt_complex(k0.values[0])
    parts = [
        f"{k0.group.elements[cls[0]]}: {_fmt_complex(v)}"
        for cls, v in zip(k0.group.conjugacy_classes, k0.values)
    ]
    return "{" + ", ".join(parts) + "}"


def _check_line(name: str, value: float, ok: bool) -> str:
    if _not_run(value):
        return f"  {name:<24s} {'not run':>11s}"
    return f"  {name:<24s} {value:11.3e}  {'ok' if ok else 'FAIL'}"


def _exit_code(rep) -> int:
    """Exit code of a duality or structure check: degenerate when the cone is
    the only failed gate."""
    if rep.passed:
        return EXIT_OK
    return EXIT_DEGENERATE if not rep.cone_invertible and len(rep.failures) == 1 else EXIT_FAIL


def _error_exit(exc: Exception) -> int:
    """Print the stderr line of an error and return its exit code."""
    if isinstance(exc, (ParseError, OSError)):
        prefix, code = "error", EXIT_PARSE
    elif isinstance(exc, (DegenerateDuality, DegenerateOperator, DegenerateBoundaryDuality)):
        prefix, code = "degenerate", EXIT_DEGENERATE
    else:
        prefix, code = "failure", EXIT_FAIL
    print(f"{prefix}: {exc}", file=sys.stderr)
    return code


def _read_hpx(path: str, closed: bool, why: str):
    """The complex stored at ``path``, which must be closed or have a boundary."""
    obj = read_hpx(path)
    if isinstance(obj, ComplexWithBoundary) == closed:
        raise PreconditionViolated(why)
    return obj


def _structure(out: _Output, rep: CwbReport, section: str | None = None) -> None:
    """The gate lines of a with-boundary structure check, with its residuals,
    cone value and failures at the top level of the JSON or under ``section``."""
    for name, value in rep.residuals.items():
        out(_check_line(name, value, name not in rep.failures))
    fields = _fields(rep, "residuals", "cone_min_singular_value", "failures")
    out(_check_line("cone min singular value", rep.cone_min_singular_value, rep.cone_invertible),
        **({section: fields} if section else fields))


def _cmd_verify(args, out: _Output) -> int:
    obj = read_hpx(args.file)
    tol = args.tol
    if isinstance(obj, ComplexWithBoundary):
        out(f"complex with boundary: top degree {obj.chain.n}, dims {obj.chain.dims}",
            kind="with-boundary", tol=tol)
        rep = verify_with_boundary(obj, tol=tol)
        _structure(out, rep)
    else:
        rep = verify_duality(obj, tol=tol)
        residuals = {key: getattr(rep, field) for field, _, key in _DUALITY_GATES if key}
        out(f"duality complex: top degree {obj.n}, dims {obj.dims}", kind="closed", tol=tol,
            residuals=residuals, cone_min_singular_value=rep.cone_min_singular_value)
        for field, label, key in _DUALITY_GATES:
            if key != "action" or obj.action is not None:
                ok = _DUALITY_FAILURES[field] not in rep.failures
                out(_check_line(label, getattr(rep, field), ok))
        out(failures=rep.failures)
    out(f"verify: {'PASS' if rep.passed else 'FAIL'} (tol {tol:g})", passed=rep.passed)
    return _exit_code(rep)


def _cmd_signature(args, out: _Output) -> int:
    hp = _read_hpx(args.file, True, "signature needs a closed complex; "
                   "use bordism-check for one with boundary")
    if args.method != "all":
        fn = {"higson-roe": higson_roe_signature, "mishchenko": mishchenko_signature,
              "reduced": reduced_signature}[args.method]
        result = fn(hp, tol=args.tol)
        out(f"{result.method} signature: {_fmt_class(result.k0)}",
            method=result.method, **{"class": _class_dict(result.k0)})
        out(f"  spectral gap {result.spectral_gap:.3e}", spectral_gap=result.spectral_gap)
        return EXIT_OK
    rep = check_coincidence(hp, tol=args.tol)
    out(methods={r.method: _class_dict(r.k0) for r in rep.results})
    for r in rep.results:
        out(f"  {r.method:<12s} {_fmt_class(r.k0)}   (gap {r.spectral_gap:.3e})")
    out(f"  max character difference {rep.max_character_difference:.3e}",
        max_character_difference=rep.max_character_difference)
    out(f"  grading conjugation residual {rep.grading_conjugation_residual:.3e}",
        grading_conjugation_residual=rep.grading_conjugation_residual)
    out(f"coincidence: {'PASS' if rep.passed else 'FAIL'}", passed=rep.passed)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _cmd_boundary(args, out: _Output) -> int:
    cwb = _read_hpx(args.file, False, "file holds a closed complex, not one with boundary")
    hp = boundary_complex(cwb, tol=args.tol)
    out(f"boundary complex: top degree {hp.n}, dims {hp.dims}", n=hp.n, dims=hp.dims)
    if args.output:
        write_hpx(hp, args.output)
        out(f"written to {args.output}", output=args.output)
    return EXIT_OK


def _cmd_cone(args, out: _Output) -> int:
    hp = _read_hpx(args.file, True, "the duality cone is defined for closed complexes; "
                   "run bordism-check on a complex with boundary")
    doubled = doubled_duality_cone(hp, tol=args.tol)
    cone = doubled.cone
    ranks = homology_ranks(cone, tol=args.tol)
    invertible, sv = doubled.invertibility(args.tol)
    acyclic = all(r == 0 for r in ranks)
    ok = acyclic and invertible
    out(f"mapping cone of the duality: dims {cone.dims}", dims=cone.dims)
    out(f"  homology ranks {ranks}", homology_ranks=ranks)
    out(f"  cone operator min singular value {sv:.3e}", min_singular_value=sv)
    out(f"cone: {'PASS' if ok else 'DEGENERATE'} (tol {args.tol:g})",
        acyclic=acyclic, invertible=invertible, passed=ok)
    return EXIT_OK if ok else EXIT_DEGENERATE


def _cmd_bordism_check(args, out: _Output) -> int:
    cwb = _read_hpx(args.file, False, "file holds a closed complex, not one with boundary")
    tol = args.tol
    struct = verify_with_boundary(cwb, tol=tol)
    cone = verify_cone_identities(cwb, tol=tol)
    try:
        zero, why, code = boundary_signature_is_zero(cwb, tol=tol), None, EXIT_FAIL
    except HpsigError as exc:
        # the boundary class cannot be computed; the report still prints, with
        # the stderr line and the exit code that main gives the same error
        zero, why, code = None, str(exc), _error_exit(exc)
    out("structure:")
    _structure(out, struct, "structure")
    out("attaching construction:", attaching=_fields(
        cone, *(field for field, _ in _ATTACHING_GATES),
        "hyperbolic_valid", "failures",
    ))
    for field, label in _ATTACHING_GATES:
        ok = _CONE_IDENTITY_FAILURES[field] not in cone.failures
        out(_check_line(label, getattr(cone, field), ok))
    out(f"  hyperbolic quotient valid:   {cone.hyperbolic_valid}")
    out("boundary class:")
    if zero is None:
        out(f"  not computed: {why}", boundary_class_zero=None, boundary_class_error=why)
    else:
        for result in zero.coincidence.results:
            out(f"  {result.method:<12s} {_fmt_class(result.k0)}")
        out(f"  boundary class vanishes: {zero.is_zero}", boundary_class_zero=zero.is_zero)
    passed = struct.passed and cone.passed and zero is not None and zero.passed
    out(f"bordism-check: {'PASS' if passed else 'FAIL'} (tol {tol:g})", passed=passed)
    return EXIT_OK if passed else code


def _describe(out: _Output, manifold, prefix: str = "") -> None:
    """The header line of a triangulation, with its dimension and boundary flag."""
    out(
        f"{prefix}dimension {manifold.dim}, {len(manifold.chains.vertices)} vertices, "
        f"{len(manifold.chains.facets)} facets, "
        f"{'with boundary' if manifold.with_boundary else 'closed'}",
        dim=manifold.dim,
        with_boundary=manifold.with_boundary,
    )


def _cmd_manifold(args, out: _Output) -> int:
    manifold, action = read_smf(args.file)
    tol = args.tol
    _describe(out, manifold, "triangulation: ")
    out(f"  chain dims {manifold.chains.dims}", chain_dims=manifold.chains.dims)
    if args.stats:
        stats = geometry_stats(manifold, action)
        out(f"  max closed star {stats.max_closed_star}, "
            f"max isotropy order {stats.max_isotropy_order}",
            stats=_fields(stats, "simplex_counts", "max_closed_star", "max_isotropy_order"))
    if manifold.with_boundary:
        if action is not None:
            raise PreconditionViolated("group actions are only supported on closed triangulations")
        # bordism_to_cwb raises unless the boundary structure checks pass
        cwb = bordism_to_cwb(manifold, tol=tol)
        zero = boundary_signature_is_zero(cwb, tol=tol)
        out("  boundary structure valid: True", structure_passed=True)
        out(f"  boundary class vanishes:  {zero.is_zero}", boundary_class_zero=zero.is_zero)
        out(f"manifold: {'PASS' if zero.passed else 'FAIL'} (tol {tol:g})", passed=zero.passed)
        return EXIT_OK if zero.passed else EXIT_FAIL
    rep = manifold_signature(manifold, action, tol=tol)
    if action is not None:
        # the duality check decides both commutators exactly and refuses an
        # action that fails one, so an action that reaches here has residuals 0
        out("  equivariance residuals: boundary 0.000e+00, duality 0.000e+00",
            equivariance={"boundary_residual": 0.0, "duality_residual": 0.0, "passed": True})
    out(methods={r.method: _class_dict(r.k0) for r in rep.results})
    for result in rep.results:
        out(f"  {result.method:<12s} {_fmt_class(result.k0)}")
    out(f"  max character difference {rep.max_character_difference:.3e}",
        max_character_difference=rep.max_character_difference)
    out(f"manifold signature: {_fmt_class(rep.k0)} ({'PASS' if rep.passed else 'FAIL'})",
        **{"class": _class_dict(rep.k0)}, passed=rep.passed)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _cmd_stats(args, out: _Output) -> int:
    manifold, action = read_smf(args.file)
    stats = geometry_stats(manifold, action)
    _describe(out, manifold)
    out(f"  simplex counts {stats.simplex_counts}", simplex_counts=stats.simplex_counts)
    out(f"  max closed star {stats.max_closed_star}", max_closed_star=stats.max_closed_star)
    out(f"  max isotropy order {stats.max_isotropy_order}",
        max_isotropy_order=stats.max_isotropy_order)
    return EXIT_OK


def _cmd_generate(args, out: _Output) -> int:
    if args.seed < 0:
        raise ParseError(f"--seed must be non-negative, got {args.seed}")
    if args.with_boundary:
        obj = generate_with_boundary(args.seed, args.profile)
        out(f"generated complex with boundary: top degree {obj.chain.n}, dims {obj.chain.dims}",
            kind="with-boundary", seed=args.seed, profile=args.profile, dims=obj.chain.dims)
        sub_dims = tuple(len(ix) for ix in obj.split)
        out(f"  subcomplex dims {sub_dims}", sub_dims=sub_dims)
    else:
        obj, expected = generate_with_signature(args.seed, args.profile)
        out(f"generated complex: top degree {obj.n}, dims {obj.dims}",
            kind="closed", seed=args.seed, profile=args.profile, dims=obj.dims)
        out(f"  expected signature class {_fmt_class(expected)}",
            expected_class=_class_dict(expected))
    if args.output:
        write_hpx(obj, args.output)
        out(f"written to {args.output}", output=args.output)
    return EXIT_OK


def _cmd_subdivide(args, out: _Output) -> int:
    manifold, action = read_smf(args.file)
    refined, refined_action = barycentric_subdivide(manifold, action)
    facets, vertices = len(refined.chains.facets), len(refined.chains.vertices)
    out(f"subdivided: {len(manifold.chains.facets)} -> {facets} facets, {vertices} vertices",
        facets=facets, vertices=vertices)
    write_smf(refined, args.output, refined_action)
    out(f"written to {args.output}", output=args.output)
    return EXIT_OK


def _default_tol() -> float:
    raw = os.environ.get("HPSIG_TOL", "")
    if not raw:
        return 1e-9
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"HPSIG_TOL is not a number: {raw!r}")
    if not 0 < value < float("inf"):
        why = "finite" if value > 0 else "positive"
        raise ParseError(f"HPSIG_TOL must be {why}, got {raw!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged, and every run of :func:`main` reads it."""
    parser = argparse.ArgumentParser(prog="hpsig",
                                     description="Signatures of algebraic duality complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, fn, file: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--tol", type=float, default=None,
                       help="numerical tolerance (default 1e-9 or HPSIG_TOL)")
        p.add_argument("--json", action="store_true", help="machine readable output")
        if file:
            p.add_argument("file")
        p.set_defaults(fn=fn)
        return p

    add("verify", "check the axioms of a stored complex", _cmd_verify)
    p = add("signature", "compute signature classes of a closed complex", _cmd_signature)
    p.add_argument("--method", default="all",
                   choices=["all", "higson-roe", "mishchenko", "reduced"])
    p = add("boundary", "extract the boundary complex of a complex with boundary", _cmd_boundary)
    p.add_argument("-o", "--output", default=None)
    add("cone", "mapping cone of the duality, with acyclicity report", _cmd_cone)
    add("bordism-check", "full structural and vanishing checks on a complex with boundary",
        _cmd_bordism_check)
    p = add("manifold", "build and check the duality complex of a triangulation", _cmd_manifold)
    p.add_argument("--stats", action="store_true", help="include geometry statistics")
    add("stats", "geometry statistics of a triangulation", _cmd_stats)
    p = add("generate", "seeded random complex with a known signature class", _cmd_generate,
            file=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", required=True,
                   help="n<int>[-z<int>][-d<int>], e.g. n4-z3-d6")
    p.add_argument("--with-boundary", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p = add("subdivide", "barycentric subdivision of a triangulation", _cmd_subdivide)
    p.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Output(command=args.command)
    try:
        if args.tol is None:
            args.tol = _default_tol()
        elif not 0 < args.tol < float("inf"):
            why = "finite" if args.tol > 0 else "positive"
            raise ParseError(f"--tol must be {why}, got {args.tol}")
        code = args.fn(args, out)
    except (HpsigError, OSError) as exc:
        return _error_exit(exc)
    out.render(args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
