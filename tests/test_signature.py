"""Tests for the three signature constructions and their coincidence."""

import numpy as np
import pytest

from hpsig import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    barycentric_subdivide,
    check_coincidence,
    direct_sum,
    doubled_duality_cone,
    generate_with_signature,
    higson_roe_signature,
    k0_equal,
    mishchenko_signature,
    opposite,
    reduced_signature,
    to_hp_complex,
)
from hpsig import signature
from hpsig.errors import DegenerateOperator, OddDimension
from hpsig.fixtures import (
    cp2_nine_vertex,
    model_even_sphere,
    model_projective_plane,
    octahedron,
    octahedron_rotation,
)
from hpsig.linalg import spectrum


def _hyperbolic_middle(n: int) -> HilbertPoincareComplex:
    """Rank-two middle-degree complex with the standard hyperbolic form."""
    dims = tuple(2 if k == n // 2 else 0 for k in range(n + 1))
    blocks = []
    for k in range(n + 1):
        if k == n // 2:
            blocks.append(np.array([[0, 1], [1, 0]], dtype=np.complex128))
        else:
            blocks.append(np.zeros((dims[k], dims[n - k]), dtype=np.complex128))
    bnds = tuple(
        np.zeros((dims[k - 1], dims[k]), dtype=np.complex128) for k in range(1, n + 1)
    )
    return HilbertPoincareComplex(ChainComplex(dims, bnds), DualityOperator(tuple(blocks)))


def test_model_sphere_signature_zero():
    hp = model_even_sphere(2)
    for method in (higson_roe_signature, mishchenko_signature, reduced_signature):
        res = method(hp)
        assert res.k0.rank == 0
        assert abs(res.k0.values[0]) < 1e-12
        assert res.spectral_gap > 0.5


def test_model_projective_plane_signature_one():
    hp = model_projective_plane()
    for method in (higson_roe_signature, mishchenko_signature, reduced_signature):
        res = method(hp)
        assert res.k0.rank == 1
        assert abs(res.k0.values[0] - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_hyperbolic_middle_signature_zero(n):
    hp = _hyperbolic_middle(n)
    rep = check_coincidence(hp)
    assert rep.passed
    assert abs(rep.k0.values[0]) < 1e-12


def test_odd_dimension_rejected():
    dims = (1, 1)
    one = np.ones((1, 1), dtype=np.complex128)
    zero = np.zeros((1, 1), dtype=np.complex128)
    hp = HilbertPoincareComplex(
        ChainComplex(dims, (zero,)), DualityOperator((one, one.copy()))
    )
    for method in (higson_roe_signature, mishchenko_signature, reduced_signature):
        with pytest.raises(OddDimension):
            method(hp)


def test_degenerate_operator_rejected():
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
    for method in (higson_roe_signature, mishchenko_signature, reduced_signature):
        with pytest.raises(DegenerateOperator):
            method(hp)


@pytest.mark.parametrize("profile", ["n2", "n4-d6", "n0", "n0-d3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coincidence_without_action(seed, profile):
    hp, expected = generate_with_signature(seed, profile)
    rep = check_coincidence(hp)
    assert rep.passed
    assert rep.max_character_difference <= 1e-6
    assert rep.grading_conjugation_residual <= 1e-12
    assert k0_equal(rep.k0, expected)


@pytest.mark.parametrize("profile", ["n2-z2", "n2-z3-d6", "n4-z4-d8", "n0-z3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coincidence_with_action(seed, profile):
    hp, expected = generate_with_signature(seed, profile)
    assert hp.action is not None
    rep = check_coincidence(hp)
    assert rep.passed
    assert rep.max_character_difference <= 1e-6
    assert rep.grading_conjugation_residual <= 1e-12
    assert k0_equal(rep.k0, expected)
    # the class is a character: one value per conjugacy class
    assert len(rep.k0.values) == len(hp.action.group.conjugacy_classes)


def test_opposite_negates_signature():
    hp, expected = generate_with_signature(7, "n2-d6")
    neg = reduced_signature(opposite(hp))
    for v, w in zip(neg.k0.values, expected.values):
        assert abs(v + w) < 1e-6


def test_direct_sum_adds_signatures():
    a, ea = generate_with_signature(3, "n2")
    b, eb = generate_with_signature(4, "n2-d6")
    both = reduced_signature(direct_sum(a, b))
    for v, x, y in zip(both.k0.values, ea.values, eb.values):
        assert abs(v - (x + y)) < 1e-6


def test_report_exposes_first_result_class():
    hp = model_projective_plane()
    rep = check_coincidence(hp)
    assert rep.k0 is rep.results[0].k0
    assert {r.method for r in rep.results} == {"higson-roe", "mishchenko", "reduced"}


@pytest.mark.parametrize("name", ["cp2", "octahedron-z4", "n4-z4-d4"])
def test_mishchenko_cone_sign_counts_match_the_full_cone(name, monkeypatch):
    if name == "cp2":
        hp = to_hp_complex(cp2_nine_vertex())
    elif name == "octahedron-z4":
        hp = to_hp_complex(*barycentric_subdivide(octahedron(), octahedron_rotation()))
    else:
        hp = generate_with_signature(2, name)[0]
    seen = []

    def record(fn):
        def wrapper(*args, **kwargs):
            seen.append(fn(*args, **kwargs))
            return seen[-1]
        return wrapper

    # the cone's spectrum is classified from the halves when decoupled, and
    # computed from the full cone operator otherwise
    monkeypatch.setattr(signature, "classify_eigenvalues", record(signature.classify_eigenvalues))
    monkeypatch.setattr(signature, "spectrum", record(signature.spectrum))
    mishchenko_signature(hp)
    doubled = doubled_duality_cone(hp)
    full = spectrum(doubled.operator)
    cone = seen[-1]
    assert len(seen) == (2 if doubled.decoupled else 1)
    assert cone.eigenvalues.size == full.eigenvalues.size
    assert (cone.rank_plus, cone.rank_minus, cone.rank_zero) == (
        full.rank_plus, full.rank_minus, full.rank_zero
    )
    assert abs(cone.min_abs_nonzero_eigenvalue - full.min_abs_nonzero_eigenvalue) <= 1e-12
