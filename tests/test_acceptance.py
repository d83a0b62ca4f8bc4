"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria, tolerances, and time budgets:

1. 200 generated even complexes (top degree 0, 2, 4; per-degree dims at most
   8; no action and cyclic actions of order 2, 3, 4): the three signature
   constructions agree as virtual characters within 1e-6, in under 60 s.
2. Grading conjugation residual at most 1e-12 on every criterion-1 instance.
3. 100 generated complexes with boundary plus the 1- and 3-simplex fixtures:
   the restricted boundary duality matches its closed form within 1e-9 and
   commutes with the boundary differential within 1e-9.
4. Boundary signature class vanishes on every criterion-3 instance; the
   boundary duality formula residual of the attaching construction is at most
   1e-9; hyperbolic complexes have zero signature.
5. Triangulation regression: boundary of the 3-simplex and the octahedron
   have signature 0; the 9-vertex projective-plane triangulation has
   signature +1, flipping sign under orientation reversal; its run takes
   under 10 s.
6. Octahedron with the quarter-turn rotation: equivariance residuals at most
   1e-12 and signature character 0 within 1e-6; same character bound for the
   component swap on two disjoint sphere boundaries.
7. Signature invariance: unchanged under 20 random unitary twists and 20
   duality perturbations on each of 20 base instances; additive under direct
   sums; negated under opposite; unchanged by one barycentric subdivision of
   the 2-sphere.
8. A zero duality fails verification with cone-singularity diagnostics and
   drives the degeneracy exit code 3 of the command line tool.
"""

import functools
import subprocess
import sys
import time

import numpy as np
import pytest

from hpsig import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    boundary_complex,
    boundary_signature_is_zero,
    bordism_to_cwb,
    check_coincidence,
    decompose,
    direct_sum,
    generate_with_boundary,
    generate_with_signature,
    higson_roe_signature,
    hyperbolic,
    k0_equal,
    manifold_signature,
    opposite,
    perturb_duality,
    random_unitary,
    reduced_signature,
    to_hp_complex,
    twist,
    verify_cone_identities,
    verify_duality,
    verify_equivariance,
    verify_with_boundary,
    write_hpx,
    barycentric_subdivide,
)
from hpsig.cli import main
from hpsig.errors import DegenerateOperator
from hpsig.fixtures import (
    circle_polygon,
    cp2_nine_vertex,
    disjoint_sphere_pair,
    octahedron,
    octahedron_rotation,
    simplex_disk,
    simplex_sphere,
    sphere_swap_action,
)
from hpsig.linalg import adjoint, operator_norm

CHAR_TOL = 1e-6
RES_TOL = 1e-9
EXACT_TOL = 1e-12

_GROUP_SUFFIXES = ("", "-z2", "-z3", "-z4")
_DIM_CAP = {"": 4, "-z2": 4, "-z3": 3, "-z4": 4}


def _coincidence_profile(i: int) -> str:
    n = (0, 2, 4)[i % 3]
    g = _GROUP_SUFFIXES[(i // 3) % 4]
    return f"n{n}{g}-d{_DIM_CAP[g]}"


@functools.lru_cache(maxsize=1)
def _coincidence_batch():
    """The 200 criterion-1 instances with their coincidence reports.

    Seeds are bumped deterministically until every per-degree dimension is at
    most 8, so the batch honours the stated size cap."""
    out = []
    for i in range(200):
        seed = i
        while True:
            hp, expected = generate_with_signature(seed, _coincidence_profile(i))
            if max(hp.dims) <= 8:
                break
            seed += 200
        out.append((hp, expected, check_coincidence(hp)))
    return out


@functools.lru_cache(maxsize=1)
def _bordism_batch():
    """100 generated complexes with boundary plus the two simplex fixtures."""
    profiles = ["n2", "n2-d6", "n2-d8", "n4", "n4-d6", "n4-d8"]
    out = [
        generate_with_boundary(i, profiles[i % len(profiles)]) for i in range(100)
    ]
    out.append(bordism_to_cwb(simplex_disk(1)))
    out.append(bordism_to_cwb(simplex_disk(3)))
    return out


def test_criterion_1_signature_coincidence():
    t0 = time.monotonic()
    batch = _coincidence_batch()
    worst_char = 0.0
    seen_groups = set()
    for hp, expected, rep in batch:
        assert max(hp.dims) <= 8
        assert hp.n in (0, 2, 4)
        assert rep.passed
        assert rep.max_character_difference <= CHAR_TOL
        assert k0_equal(rep.k0, expected, tol=CHAR_TOL)
        worst_char = max(worst_char, rep.max_character_difference)
        seen_groups.add(1 if hp.action is None else hp.action.group.order)
    elapsed = time.monotonic() - t0
    assert len(batch) == 200
    assert seen_groups == {1, 2, 3, 4}
    assert elapsed < 60.0
    print(
        f"criterion 1 (signature coincidence): PASS — 200/200 instances, "
        f"worst character difference {worst_char:.2e}, {elapsed:.1f}s",
        flush=True,
    )


def test_criterion_2_grading_conjugation():
    worst = max(rep.grading_conjugation_residual for _, _, rep in _coincidence_batch())
    assert worst <= EXACT_TOL
    print(
        f"criterion 2 (grading conjugation): PASS — worst residual {worst:.2e} "
        f"over 200 instances (tol 1e-12)",
        flush=True,
    )


def _closed_form_residual(cwb) -> float:
    """Restricted defect family versus its closed form in the split blocks."""
    blocks = decompose(cwb)
    chain, s = cwb.chain, cwb.duality
    big_n = chain.n
    n = big_n - 1
    idx0 = [list(cwb.sub_indices(m)) for m in range(big_n + 1)]
    worst = 0.0
    for k in range(n + 1):
        defect = chain.boundary(k + 1) @ s.block(k + 1) + s.block(k) @ adjoint(
            chain.boundary(big_n - k)
        )
        restricted = defect[np.ix_(idx0[k], idx0[n - k])]
        closed = (
            blocks.b0[k + 1] @ blocks.s2[k + 1]
            + blocks.s2[k] @ adjoint(blocks.b0[big_n - k])
            + blocks.h[k + 1] @ adjoint(blocks.f_upper[n - k])
            + blocks.f_upper[k] @ adjoint(blocks.h[big_n - k])
        )
        worst = max(worst, operator_norm(restricted - closed))
    return worst


def test_criterion_3_boundary_closed_form():
    t0 = time.monotonic()
    batch = _bordism_batch()
    assert len(batch) == 102
    worst_form = 0.0
    worst_comm = 0.0
    for cwb in batch:
        rep = verify_with_boundary(cwb)
        assert rep.passed, rep.failures
        worst_form = max(worst_form, _closed_form_residual(cwb))
        hp = boundary_complex(cwb)
        blocks = decompose(cwb)
        n = hp.n
        for k in range(1, n + 1):
            comm = blocks.b0[k] @ hp.duality.block(k) - hp.duality.block(
                k - 1
            ) @ adjoint(blocks.b0[n - k + 1])
            worst_comm = max(worst_comm, operator_norm(comm))
    assert worst_form <= RES_TOL
    assert worst_comm <= RES_TOL
    elapsed = time.monotonic() - t0
    print(
        f"criterion 3 (boundary closed form): PASS — 102 instances, closed-form "
        f"residual {worst_form:.2e}, commutator {worst_comm:.2e}, {elapsed:.1f}s",
        flush=True,
    )


def test_criterion_4_bordism_invariance():
    worst_formula = 0.0
    for cwb in _bordism_batch():
        zero = boundary_signature_is_zero(cwb)
        assert zero.passed and zero.is_zero
        cone = verify_cone_identities(cwb)
        assert cone.passed, cone.failures
        worst_formula = max(worst_formula, cone.boundary_formula_residual)
    assert worst_formula <= RES_TOL

    hyperbolics = [
        hyperbolic(hp.chain, hp.duality.blocks)
        for hp in (
            to_hp_complex(circle_polygon(3)),
            to_hp_complex(circle_polygon(5)),
            to_hp_complex(simplex_sphere(3)),
        )
    ]
    for h in hyperbolics:
        rep = check_coincidence(h)
        assert rep.passed
        assert max(abs(v) for v in rep.k0.values) <= CHAR_TOL
    print(
        f"criterion 4 (bordism invariance): PASS — boundary class zero on 102 "
        f"instances, formula residual {worst_formula:.2e}, "
        f"{len(hyperbolics)} hyperbolic complexes with zero signature",
        flush=True,
    )


def test_criterion_5_triangulation_regression():
    for m in (simplex_sphere(2), octahedron()):
        rep = manifold_signature(m)
        assert rep.passed
        assert abs(rep.k0.values[0]) <= CHAR_TOL

    cp2 = cp2_nine_vertex()
    t0 = time.monotonic()
    rep_plus = manifold_signature(cp2)
    cp2_elapsed = time.monotonic() - t0
    assert cp2_elapsed < 10.0
    assert rep_plus.passed
    assert abs(abs(rep_plus.k0.values[0]) - 1.0) <= CHAR_TOL

    from hpsig import OrientedSimplicialManifold

    flipped = OrientedSimplicialManifold(cp2.facets, tuple(-s for s in cp2.signs))
    rep_minus = manifold_signature(flipped)
    assert rep_minus.passed
    assert abs(rep_plus.k0.values[0] + rep_minus.k0.values[0]) <= CHAR_TOL
    print(
        f"criterion 5 (triangulation regression): PASS — spheres 0, projective "
        f"plane {rep_plus.k0.values[0].real:+.0f}/{rep_minus.k0.values[0].real:+.0f} "
        f"under flip, {cp2_elapsed:.1f}s",
        flush=True,
    )


def test_criterion_6_equivariance():
    eq = verify_equivariance(octahedron(), octahedron_rotation())
    assert eq.passed
    assert eq.boundary_residual <= EXACT_TOL
    assert eq.duality_residual <= EXACT_TOL
    rep = manifold_signature(octahedron(), octahedron_rotation())
    assert rep.passed
    oct_char = max(abs(v) for v in rep.k0.values)
    assert oct_char <= CHAR_TOL

    eq2 = verify_equivariance(disjoint_sphere_pair(), sphere_swap_action())
    assert eq2.passed
    assert eq2.duality_residual <= EXACT_TOL
    rep2 = manifold_signature(disjoint_sphere_pair(), sphere_swap_action())
    assert rep2.passed
    pair_char = max(abs(v) for v in rep2.k0.values)
    assert pair_char <= CHAR_TOL
    print(
        f"criterion 6 (equivariance): PASS — octahedron residual "
        f"{eq.duality_residual:.2e}, characters {oct_char:.2e} / {pair_char:.2e}",
        flush=True,
    )


def _random_perturbation(rng, hp):
    n = hp.n
    r_blocks = [None] * (n + 1)
    for j in range(2, n + 1):
        partner = n + 2 - j
        if j > partner:
            continue
        blk = 0.2 * (
            rng.normal(size=(hp.dims[j], hp.dims[partner]))
            + 1j * rng.normal(size=(hp.dims[j], hp.dims[partner]))
        )
        if j == partner:
            blk = (blk + adjoint(blk)) / 2.0
            r_blocks[j] = blk
        else:
            r_blocks[j] = blk
            r_blocks[partner] = adjoint(blk)
    return r_blocks


def test_criterion_7_invariance_properties():
    t0 = time.monotonic()
    bases = []
    for i in range(20):
        profile = "n2-d6" if i % 2 == 0 else "n4-d6"
        hp, expected = generate_with_signature(i, profile)
        bases.append((hp, expected))

    for i, (hp, expected) in enumerate(bases):
        rng = np.random.default_rng(1000 + i)
        base_k0 = reduced_signature(hp).k0
        assert k0_equal(base_k0, expected, tol=CHAR_TOL)
        for _ in range(20):
            us = [random_unitary(rng, d) for d in hp.dims]
            assert k0_equal(
                reduced_signature(twist(hp, us)).k0, base_k0, tol=CHAR_TOL
            )
        for _ in range(20):
            pert = perturb_duality(hp, _random_perturbation(rng, hp))
            assert k0_equal(reduced_signature(pert).k0, base_k0, tol=CHAR_TOL)
        # negated under opposite
        neg = reduced_signature(opposite(hp)).k0
        assert all(
            abs(v + w) <= CHAR_TOL for v, w in zip(neg.values, base_k0.values)
        )

    # additive under direct sums (pairs share the same top degree, since
    # stepping by two preserves the profile parity)
    for i in range(18):
        a, ea = bases[i]
        b, eb = bases[i + 2]
        got = reduced_signature(direct_sum(a, b)).k0
        assert all(
            abs(v - (x + y)) <= CHAR_TOL
            for v, x, y in zip(got.values, ea.values, eb.values)
        )

    sphere = simplex_sphere(2)
    refined, _ = barycentric_subdivide(sphere)
    assert k0_equal(
        manifold_signature(refined).k0, manifold_signature(sphere).k0, tol=CHAR_TOL
    )
    elapsed = time.monotonic() - t0
    print(
        f"criterion 7 (invariance properties): PASS — 20 bases x (20 twists + "
        f"20 perturbations), sums, opposites, subdivision, {elapsed:.1f}s",
        flush=True,
    )


def test_criterion_8_degeneracy_handling(tmp_path):
    dims = (1, 0, 1)
    blocks = (
        np.zeros((1, 1), dtype=np.complex128),
        np.zeros((0, 0), dtype=np.complex128),
        np.zeros((1, 1), dtype=np.complex128),
    )
    bnds = (
        np.zeros((1, 0), dtype=np.complex128),
        np.zeros((0, 1), dtype=np.complex128),
    )
    hp = HilbertPoincareComplex(ChainComplex(dims, bnds), DualityOperator(blocks))

    rep = verify_duality(hp)
    assert not rep.passed
    assert not rep.cone_invertible
    assert rep.cone_min_singular_value == 0.0
    assert any("cone" in f for f in rep.failures)
    with pytest.raises(DegenerateOperator):
        higson_roe_signature(hp)

    path = str(tmp_path / "degenerate.hpx")
    write_hpx(hp, path)
    assert main(["verify", path]) == 3
    proc = subprocess.run(
        [sys.executable, "-m", "hpsig", "verify", path], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert "FAIL" in proc.stdout
    print(
        "criterion 8 (degeneracy handling): PASS — cone-singular diagnostics "
        "and exit code 3",
        flush=True,
    )
