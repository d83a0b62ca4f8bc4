"""Command line front end.

Exit codes: 0 success, 1 verification or computation failure, 2 unreadable
or malformed input, 3 degenerate duality or operator (structure parses and
the algebraic identities hold, but an invertibility assumption fails).
The default tolerance is 1e-9, overridable with --tol or the HPSIG_TOL
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bordism import (
    ComplexWithBoundary,
    boundary_complex,
    boundary_signature_is_zero,
    verify_cone_identities,
    verify_with_boundary,
)
from .complexes import (
    HilbertPoincareComplex,
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
    _coincidence,
    check_coincidence,
    higson_roe_signature,
    mishchenko_signature,
    reduced_signature,
)
from .simplicial import (
    _equivariant_structure,
    barycentric_subdivide,
    bordism_to_cwb,
    enumerate_and_boundaries,
    geometry_stats,
    manifold_signature,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3


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
    return f"  {name:<24s} {value:11.3e}  {'ok' if ok else 'FAIL'}"


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        for line in lines:
            print(line)


def _cmd_verify(args) -> int:
    obj = read_hpx(args.file)
    tol = args.tol
    if isinstance(obj, ComplexWithBoundary):
        rep = verify_with_boundary(obj, tol=tol)
        lines = [f"complex with boundary: top degree {obj.chain.n}, dims {obj.chain.dims}"]
        for name, value in rep.residuals.items():
            lines.append(_check_line(name, value, name not in rep.failures))
        lines.append(
            _check_line("cone min singular value", rep.cone_min_singular_value, rep.cone_invertible)
        )
        lines.append(f"verify: {'PASS' if rep.passed else 'FAIL'} (tol {tol:g})")
        payload = {
            "command": "verify",
            "kind": "with-boundary",
            "tol": tol,
            "residuals": rep.residuals,
            "cone_min_singular_value": rep.cone_min_singular_value,
            "failures": list(rep.failures),
            "passed": rep.passed,
        }
        _emit(args, payload, lines)
        if rep.passed:
            return EXIT_OK
        if all("cone" in f for f in rep.failures):
            return EXIT_DEGENERATE
        return EXIT_FAIL
    rep = verify_duality(obj, tol=tol)
    lines = [f"duality complex: top degree {obj.n}, dims {obj.dims}"]
    lines.append(
        _check_line("boundary squared", rep.boundary_residual,
                    "boundary squares to a nonzero operator" not in rep.failures)
    )
    lines.append(
        _check_line("duality self-adjoint", rep.selfadjoint_residual,
                    "duality is not self-adjoint" not in rep.failures)
    )
    lines.append(
        _check_line("chain condition", rep.chain_residual,
                    "duality does not anticommute with the boundary" not in rep.failures)
    )
    lines.append(
        _check_line("cone min singular value", rep.cone_min_singular_value, rep.cone_invertible)
    )
    if obj.action is not None:
        lines.append(
            _check_line("action commutes", rep.action_residual,
                        "action does not commute with the structure maps" not in rep.failures)
        )
    lines.append(f"verify: {'PASS' if rep.passed else 'FAIL'} (tol {tol:g})")
    payload = {
        "command": "verify",
        "kind": "closed",
        "tol": tol,
        "residuals": {
            "boundary_squared": rep.boundary_residual,
            "selfadjoint": rep.selfadjoint_residual,
            "chain_condition": rep.chain_residual,
            "action": rep.action_residual,
        },
        "cone_min_singular_value": rep.cone_min_singular_value,
        "failures": list(rep.failures),
        "passed": rep.passed,
    }
    _emit(args, payload, lines)
    if rep.passed:
        return EXIT_OK
    if rep.failures == ("duality cone operator is not invertible",):
        return EXIT_DEGENERATE
    return EXIT_FAIL


def _cmd_signature(args) -> int:
    obj = read_hpx(args.file)
    if isinstance(obj, ComplexWithBoundary):
        raise PreconditionViolated(
            "signature needs a closed complex; use bordism-check for one with boundary"
        )
    tol = args.tol
    if args.method != "all":
        fn = {
            "higson-roe": higson_roe_signature,
            "mishchenko": mishchenko_signature,
            "reduced": reduced_signature,
        }[args.method]
        result = fn(obj, tol=tol)
        lines = [
            f"{result.method} signature: {_fmt_class(result.k0)}",
            f"  spectral gap {result.spectral_gap:.3e}",
        ]
        payload = {
            "command": "signature",
            "method": result.method,
            "class": _class_dict(result.k0),
            "spectral_gap": result.spectral_gap,
        }
        _emit(args, payload, lines)
        return EXIT_OK
    rep = check_coincidence(obj, tol=tol)
    lines = []
    for result in rep.results:
        lines.append(
            f"  {result.method:<12s} {_fmt_class(result.k0)}   "
            f"(gap {result.spectral_gap:.3e})"
        )
    lines.append(f"  max character difference {rep.max_character_difference:.3e}")
    lines.append(
        f"  grading conjugation residual {rep.grading_conjugation_residual:.3e}"
    )
    lines.append(f"coincidence: {'PASS' if rep.passed else 'FAIL'}")
    payload = {
        "command": "signature",
        "methods": {
            r.method: _class_dict(r.k0) for r in rep.results
        },
        "max_character_difference": rep.max_character_difference,
        "grading_conjugation_residual": rep.grading_conjugation_residual,
        "passed": rep.passed,
    }
    _emit(args, payload, lines)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _cmd_boundary(args) -> int:
    obj = read_hpx(args.file)
    if not isinstance(obj, ComplexWithBoundary):
        raise PreconditionViolated("file holds a closed complex, not one with boundary")
    hp = boundary_complex(obj, tol=args.tol)
    lines = [
        f"boundary complex: top degree {hp.n}, dims {hp.dims}",
    ]
    payload = {"command": "boundary", "n": hp.n, "dims": list(hp.dims)}
    if args.output:
        write_hpx(hp, args.output)
        lines.append(f"written to {args.output}")
        payload["output"] = args.output
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_cone(args) -> int:
    obj = read_hpx(args.file)
    if isinstance(obj, ComplexWithBoundary):
        raise PreconditionViolated(
            "the duality cone is defined for closed complexes; "
            "run bordism-check on a complex with boundary"
        )
    doubled = doubled_duality_cone(obj, tol=args.tol)
    cone = doubled.cone
    ranks = homology_ranks(cone, tol=args.tol)
    invertible, sv = doubled.invertibility(args.tol)
    acyclic = all(r == 0 for r in ranks)
    ok = acyclic and invertible
    lines = [
        f"mapping cone of the duality: dims {cone.dims}",
        f"  homology ranks {ranks}",
        f"  cone operator min singular value {sv:.3e}",
        f"cone: {'PASS' if ok else 'DEGENERATE'} (tol {args.tol:g})",
    ]
    payload = {
        "command": "cone",
        "dims": list(cone.dims),
        "homology_ranks": list(ranks),
        "min_singular_value": sv,
        "acyclic": acyclic,
        "invertible": invertible,
        "passed": ok,
    }
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_DEGENERATE


def _cmd_bordism_check(args) -> int:
    obj = read_hpx(args.file)
    if not isinstance(obj, ComplexWithBoundary):
        raise PreconditionViolated("file holds a closed complex, not one with boundary")
    tol = args.tol
    struct = verify_with_boundary(obj, tol=tol)
    cone = verify_cone_identities(obj, tol=tol)
    zero = boundary_signature_is_zero(obj, tol=tol)
    lines = ["structure:"]
    for name, value in struct.residuals.items():
        lines.append(_check_line(name, value, name not in struct.failures))
    lines.append(
        _check_line("cone min singular value", struct.cone_min_singular_value,
                    struct.cone_invertible)
    )
    lines.append("attaching construction:")
    lines.append(_check_line("attaching cone squares", cone.cone_square_residual,
                             "attaching cone differential does not square to zero" not in cone.failures))
    lines.append(_check_line(
        "coupling chain map", cone.chain_map_residual,
        "coupling map is not a chain map to the boundary complex" not in cone.failures,
    ))
    lines.append(_check_line(
        "boundary duality formula", cone.boundary_formula_residual,
        "boundary duality formula does not match the restriction" not in cone.failures,
    ))
    lines.append(f"  four-term sequence composes: {cone.sequence_composes}")
    lines.append(f"  four-term sequence exact:    {cone.sequence_exact}")
    lines.append(f"  hyperbolic quotient valid:   {cone.hyperbolic_valid}")
    lines.append("boundary class:")
    for result in zero.coincidence.results:
        lines.append(f"  {result.method:<12s} {_fmt_class(result.k0)}")
    lines.append(f"  boundary class vanishes: {zero.is_zero}")
    passed = struct.passed and cone.passed and zero.passed
    lines.append(f"bordism-check: {'PASS' if passed else 'FAIL'} (tol {tol:g})")
    payload = {
        "command": "bordism-check",
        "structure": {
            "residuals": struct.residuals,
            "cone_min_singular_value": struct.cone_min_singular_value,
            "failures": list(struct.failures),
        },
        "attaching": {
            "cone_square_residual": cone.cone_square_residual,
            "chain_map_residual": cone.chain_map_residual,
            "boundary_formula_residual": cone.boundary_formula_residual,
            "sequence_composes": cone.sequence_composes,
            "sequence_exact": cone.sequence_exact,
            "hyperbolic_valid": cone.hyperbolic_valid,
            "failures": list(cone.failures),
        },
        "boundary_class_zero": zero.is_zero,
        "passed": passed,
    }
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_FAIL


def _cmd_manifold(args) -> int:
    manifold, action = read_smf(args.file)
    tol = args.tol
    chains = enumerate_and_boundaries(manifold)
    lines = [
        f"triangulation: dimension {manifold.dim}, "
        f"{len(manifold.vertices)} vertices, {len(manifold.facets)} facets, "
        f"{'with boundary' if manifold.with_boundary else 'closed'}",
        f"  chain dims {chains.chain.dims}",
    ]
    payload: dict = {
        "command": "manifold",
        "dim": manifold.dim,
        "with_boundary": manifold.with_boundary,
        "chain_dims": list(chains.chain.dims),
    }
    if args.stats:
        stats = geometry_stats(manifold, action, chains)
        lines.append(
            f"  max closed star {stats.max_closed_star}, "
            f"max isotropy order {stats.max_isotropy_order}"
        )
        payload["stats"] = {
            "simplex_counts": list(stats.simplex_counts),
            "max_closed_star": stats.max_closed_star,
            "max_isotropy_order": stats.max_isotropy_order,
        }
    if manifold.with_boundary:
        if action is not None:
            raise PreconditionViolated(
                "group actions are only supported on closed triangulations"
            )
        cwb = bordism_to_cwb(manifold, chains, tol=tol)
        struct = verify_with_boundary(cwb, tol=tol)
        zero = boundary_signature_is_zero(cwb, tol=tol)
        lines.append(f"  boundary structure valid: {struct.passed}")
        lines.append(f"  boundary class vanishes:  {zero.is_zero}")
        passed = struct.passed and zero.passed
        payload["structure_passed"] = struct.passed
        payload["boundary_class_zero"] = zero.is_zero
        payload["passed"] = passed
        lines.append(f"manifold: {'PASS' if passed else 'FAIL'} (tol {tol:g})")
        _emit(args, payload, lines)
        return EXIT_OK if passed else EXIT_FAIL
    if action is None:
        rep = manifold_signature(manifold, None, chains, tol=tol)
    else:
        # the action, the duality and the spectral splits of B + S and B - S
        # are built once, for the equivariance residuals and for the signatures
        rho, dual, eq, halves = _equivariant_structure(
            manifold, action, chains, tol, for_signatures=True
        )
        lines.append(
            f"  equivariance residuals: boundary {eq.boundary_residual:.3e}, "
            f"duality {eq.duality_residual:.3e}"
        )
        payload["equivariance"] = {
            "boundary_residual": eq.boundary_residual,
            "duality_residual": eq.duality_residual,
            "passed": eq.passed,
        }
        if not eq.passed:
            lines.append("manifold: FAIL (action does not commute)")
            _emit(args, payload, lines)
            return EXIT_FAIL
        rep = _coincidence(HilbertPoincareComplex(chains.chain, dual, rho), halves, tol)
    for result in rep.results:
        lines.append(f"  {result.method:<12s} {_fmt_class(result.k0)}")
    lines.append(f"  max character difference {rep.max_character_difference:.3e}")
    lines.append(f"manifold signature: {_fmt_class(rep.k0)}"
                 f" ({'PASS' if rep.passed else 'FAIL'})")
    payload["methods"] = {r.method: _class_dict(r.k0) for r in rep.results}
    payload["max_character_difference"] = rep.max_character_difference
    payload["class"] = _class_dict(rep.k0)
    payload["passed"] = rep.passed
    _emit(args, payload, lines)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _cmd_stats(args) -> int:
    manifold, action = read_smf(args.file)
    chains = enumerate_and_boundaries(manifold)
    stats = geometry_stats(manifold, action, chains)
    lines = [
        f"dimension {manifold.dim}, {len(manifold.vertices)} vertices, "
        f"{len(manifold.facets)} facets, "
        f"{'with boundary' if manifold.with_boundary else 'closed'}",
        f"  simplex counts {stats.simplex_counts}",
        f"  max closed star {stats.max_closed_star}",
        f"  max isotropy order {stats.max_isotropy_order}",
    ]
    payload = {
        "command": "stats",
        "dim": manifold.dim,
        "with_boundary": manifold.with_boundary,
        "simplex_counts": list(stats.simplex_counts),
        "max_closed_star": stats.max_closed_star,
        "max_isotropy_order": stats.max_isotropy_order,
    }
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.with_boundary:
        cwb = generate_with_boundary(args.seed, args.profile)
        lines = [
            f"generated complex with boundary: top degree {cwb.chain.n}, "
            f"dims {cwb.chain.dims}",
            f"  subcomplex dims {tuple(len(ix) for ix in cwb.split)}",
        ]
        payload = {
            "command": "generate",
            "kind": "with-boundary",
            "seed": args.seed,
            "profile": args.profile,
            "dims": list(cwb.chain.dims),
            "sub_dims": [len(ix) for ix in cwb.split],
        }
        if args.output:
            write_hpx(cwb, args.output)
            lines.append(f"written to {args.output}")
            payload["output"] = args.output
        _emit(args, payload, lines)
        return EXIT_OK
    hp, expected = generate_with_signature(args.seed, args.profile)
    lines = [
        f"generated complex: top degree {hp.n}, dims {hp.dims}",
        f"  expected signature class {_fmt_class(expected)}",
    ]
    payload = {
        "command": "generate",
        "kind": "closed",
        "seed": args.seed,
        "profile": args.profile,
        "dims": list(hp.dims),
        "expected_class": _class_dict(expected),
    }
    if args.output:
        write_hpx(hp, args.output)
        lines.append(f"written to {args.output}")
        payload["output"] = args.output
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_subdivide(args) -> int:
    manifold, action = read_smf(args.file)
    refined, refined_action = barycentric_subdivide(manifold, action)
    lines = [
        f"subdivided: {len(manifold.facets)} -> {len(refined.facets)} facets, "
        f"{len(refined.vertices)} vertices",
    ]
    payload = {
        "command": "subdivide",
        "facets": len(refined.facets),
        "vertices": len(refined.vertices),
    }
    write_smf(refined, args.output, refined_action)
    lines.append(f"written to {args.output}")
    payload["output"] = args.output
    _emit(args, payload, lines)
    return EXIT_OK


def _default_tol() -> float:
    raw = os.environ.get("HPSIG_TOL", "")
    if not raw:
        return 1e-9
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"HPSIG_TOL is not a number: {raw!r}")
    if not value > 0:
        raise ParseError(f"HPSIG_TOL must be positive, got {raw!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpsig",
        description="Signatures of algebraic duality complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--tol", type=float, default=None,
                       help="numerical tolerance (default 1e-9 or HPSIG_TOL)")
        p.add_argument("--json", action="store_true", help="machine readable output")
        return p

    p = add("verify", "check the axioms of a stored complex")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_verify)

    p = add("signature", "compute signature classes of a closed complex")
    p.add_argument("file")
    p.add_argument("--method", default="all",
                   choices=["all", "higson-roe", "mishchenko", "reduced"])
    p.set_defaults(fn=_cmd_signature)

    p = add("boundary", "extract the boundary complex of a complex with boundary")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_boundary)

    p = add("cone", "mapping cone of the duality, with acyclicity report")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_cone)

    p = add("bordism-check", "full structural and vanishing checks on a complex with boundary")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_bordism_check)

    p = add("manifold", "build and check the duality complex of a triangulation")
    p.add_argument("file")
    p.add_argument("--stats", action="store_true", help="include geometry statistics")
    p.set_defaults(fn=_cmd_manifold)

    p = add("stats", "geometry statistics of a triangulation")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_stats)

    p = add("generate", "seeded random complex with a known signature class")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", required=True,
                   help="n<int>[-z<int>][-d<int>], e.g. n4-z3-d6")
    p.add_argument("--with-boundary", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_generate)

    p = add("subdivide", "barycentric subdivision of a triangulation")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_subdivide)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is None:
            args.tol = _default_tol()
        elif not args.tol > 0:
            raise ParseError(f"--tol must be positive, got {args.tol}")
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateDuality, DegenerateOperator, DegenerateBoundaryDuality) as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HpsigError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
