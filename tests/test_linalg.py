"""Spectral primitives: norms, splits, block assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpsig import (
    adjoint,
    check_coincidence,
    generate_with_boundary,
    is_invertible,
    manifold_signature,
    min_singular_value,
    operator_norm,
    spectral_split,
    verify_with_boundary,
)
from hpsig.errors import NotSelfAdjoint, PreconditionViolated, ShapeMismatch
from hpsig.fixtures import cp2_nine_vertex, model_even_sphere
from hpsig.linalg import (
    as_matrix,
    assemble_total,
    block_diag,
    classify_eigenvalues,
    frobenius_norm,
    operator_dtype,
    residual_within,
    spectrum,
    within,
)


def _random_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _random_hermitian(rng, d):
    a = _random_matrix(rng, d, d)
    return (a + adjoint(a)) / 2.0


def test_adjoint_is_conjugate_transpose():
    m = np.array([[1 + 2j, 3.0], [0.0, -4j]])
    expect = np.array([[1 - 2j, 0.0], [3.0, 4j]])
    assert np.array_equal(adjoint(m), expect)


def test_operator_norm_of_diagonal():
    assert operator_norm(np.diag([3.0, -7.0, 2.0])) == pytest.approx(7.0)
    assert operator_norm(np.zeros((0, 5))) == 0.0


def test_min_singular_value_conventions():
    assert min_singular_value(np.diag([3.0, 0.5])) == pytest.approx(0.5)
    assert min_singular_value(np.zeros((0, 0))) == float("inf")
    assert min_singular_value(np.zeros((0, 3))) == 0.0


def test_is_invertible_threshold():
    ok, sv = is_invertible(np.diag([1.0, 1e-12]), tol=1e-9)
    assert not ok and sv == pytest.approx(1e-12)
    ok, sv = is_invertible(np.eye(3), tol=1e-9)
    assert ok and sv == pytest.approx(1.0)
    # the smallest |eigenvalue|, not the smallest eigenvalue
    ok, sv = is_invertible(np.diag([2.0, -0.5]), tol=1e-9)
    assert ok and sv == pytest.approx(0.5)
    assert is_invertible(np.zeros((0, 0))) == (True, float("inf"))
    with pytest.raises(NotSelfAdjoint):
        is_invertible(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_within_rule():
    assert within(5e-10, 1e-9)
    assert not within(2e-9, 1e-9)
    # the scale only loosens the rule once it exceeds 1
    assert within(5e-9, 1e-9, scale=10.0)
    assert not within(5e-9, 1e-9, scale=0.1)


def test_residual_within_falls_back_when_the_frobenius_bound_fails():
    # |eps I_16|_F = 4 eps > tol >= eps = |eps I_16|_2
    eps, tol = 5e-10, 1e-9
    r = eps * np.eye(16)
    assert frobenius_norm(r) > tol
    ok, res = residual_within(r, tol)
    assert ok and res == pytest.approx(eps)
    ok, res = residual_within(3 * r, tol)
    assert not ok and res == pytest.approx(3 * eps)


def test_residual_within_falls_back_when_the_lower_scale_fails():
    # the all-ones matrix has column norms 4 but spectral norm 16
    a = np.ones((16, 16))
    r = np.zeros((16, 16))
    r[0, 0] = 1e-8
    ok, res = residual_within(r, 1e-9, lambda norm: norm(a))
    assert ok and res == pytest.approx(1e-8)
    r[0, 0] = 2e-8
    ok, res = residual_within(r, 1e-9, lambda norm: norm(a))
    assert not ok and res == pytest.approx(2e-8)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 10_000),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    rank_one=st.booleans(),
    size=st.sampled_from([0.0, 0.1, 1.0, 30.0]),
    ratio=st.floats(0.25, 4.0),
)
def test_residual_within_agrees_with_the_exact_rule(seed, rows, cols, rank_one, size, ratio):
    rng = np.random.default_rng(seed)
    a = size * _random_matrix(rng, rows, cols)
    if rank_one:
        r = _random_matrix(rng, rows, 1) @ _random_matrix(rng, 1, cols)
    else:
        r = _random_matrix(rng, rows, cols)
    tol = 1e-9
    # place |r|_2 at ratio times the threshold of the exact rule
    r *= ratio * tol * max(1.0, operator_norm(a)) / operator_norm(r)
    ok, res = residual_within(r, tol, lambda norm: norm(a))
    assert ok == within(operator_norm(r), tol, operator_norm(a))
    assert res in (frobenius_norm(r), operator_norm(r))
    assert res >= operator_norm(r) * (1 - 1e-12)


def test_as_complex_matrix_shape_enforcement():
    a = as_matrix([[1, 2], [3, 4]], rows=2, cols=2)
    assert a.dtype == np.float64
    z = as_matrix([[1, 2j], [3, 4]], rows=2, cols=2)
    assert z.dtype == np.complex128
    assert z[0, 1] == 2j
    with pytest.raises(ShapeMismatch):
        as_matrix([[1, 2]], rows=2, cols=2)
    with pytest.raises(ShapeMismatch):
        as_matrix([1, 2, 3])
    with pytest.raises(ShapeMismatch):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_dtype_follows_the_data():
    real = np.array([[1, 0], [0, 2]])
    cplx = np.array([[0, 1j], [-1j, 0]])
    assert operator_dtype(real.astype(float), np.eye(2)) == np.float64
    assert operator_dtype(real.astype(float), cplx) == np.complex128
    assert assemble_total([2, 2], [2, 2], [(0, 1, real), (1, 0, real)]).dtype == np.float64
    assert assemble_total([2, 2], [2, 2], [(0, 1, real), (1, 0, cplx)]).dtype == np.complex128
    assert block_diag(real, np.eye(3)).dtype == np.float64
    assert block_diag(real, cplx).dtype == np.complex128
    assert block_diag(np.ones((2, 3)), np.ones((1, 0)), np.ones((0, 2))).shape == (3, 5)
    assert np.array_equal(
        block_diag(np.ones((1, 2)), 2 * np.ones((2, 1))),
        [[1, 1, 0], [0, 0, 2], [0, 0, 2]],
    )
    assert as_matrix(np.eye(2, dtype=bool)).dtype == np.float64
    assert as_matrix(np.eye(2, dtype=np.complex64)).dtype == np.complex128
    assert spectral_split(np.array([[0.0, 1.0], [1.0, 0.0]])).p_plus.dtype == np.float64
    split = spectral_split(cplx)
    assert split.p_plus.dtype == np.complex128
    assert (split.rank_plus, split.rank_minus) == (1, 1)


def test_spectral_split_known_diagonal():
    split = spectral_split(np.diag([2.0, -1.0, 0.0]))
    assert (split.rank_plus, split.rank_minus, split.rank_zero) == (1, 1, 1)
    assert split.min_abs_nonzero_eigenvalue == pytest.approx(1.0)
    assert np.allclose(split.p_plus, np.diag([1.0, 0.0, 0.0]))
    assert np.allclose(split.p_minus, np.diag([0.0, 1.0, 0.0]))


def test_exactly_hermitian_operators_skip_the_average(monkeypatch):
    rng = np.random.default_rng(3)
    h = _random_hermitian(rng, 6)
    assert np.array_equal(h, adjoint(h))
    near = h.copy()
    near[0, 1] += 1e-13
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or eigvalsh(a))
    spectrum(h)
    spectrum(near)
    # the exactly Hermitian operator is diagonalised as it is, which is its
    # average bit for bit; the other one is still checked and averaged
    assert seen[0] is h
    assert np.array_equal(seen[1], (near + adjoint(near)) / 2.0)
    with pytest.raises(NotSelfAdjoint):
        spectrum(h + np.triu(np.ones((6, 6)), 1))


def test_spectral_split_rejects_nonhermitian():
    with pytest.raises(NotSelfAdjoint):
        spectral_split(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 7))
def test_spectral_split_is_a_resolution_of_identity(seed, d):
    rng = np.random.default_rng(seed)
    h = _random_hermitian(rng, d)
    split = spectral_split(h)
    # the rest of the identity is the projection onto the zero eigenspace
    p_zero = np.eye(d) - split.p_plus - split.p_minus
    for p in (split.p_plus, split.p_minus, p_zero):
        assert np.allclose(p @ p, p, atol=1e-10)
        assert np.allclose(adjoint(p), p, atol=1e-12)
    assert abs(np.trace(p_zero).real - split.rank_zero) < 1e-10
    # projections commute with the operator
    assert operator_norm(h @ split.p_plus - split.p_plus @ h) < 1e-9 * max(
        1.0, operator_norm(h)
    )
    assert split.rank_plus + split.rank_minus + split.rank_zero == d


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 7))
def test_signature_counts_match_sylvester(seed, d):
    """Congruence preserves inertia, spectral_split must see that."""
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=d) * 2 - 1
    g = _random_matrix(rng, d, d)
    while min_singular_value(g) < 1e-3:
        g = _random_matrix(rng, d, d)
    h = g @ np.diag(signs.astype(complex)) @ adjoint(g)
    for spec in (spectral_split((h + adjoint(h)) / 2.0), spectrum((h + adjoint(h)) / 2.0)):
        assert spec.rank_plus == int(np.sum(signs > 0))
        assert spec.rank_minus == int(np.sum(signs < 0))
        assert spec.rank_zero == 0


def test_assemble_total_accumulates_blocks():
    total = assemble_total(
        (1, 2),
        (2, 1),
        [
            (0, 0, np.ones((1, 2))),
            (1, 1, 2 * np.ones((2, 1))),
            (0, 0, np.ones((1, 2))),
        ],
    )
    expect = np.array([[2, 2, 0], [0, 0, 2], [0, 0, 2]], dtype=complex)
    assert np.array_equal(total, expect)
    with pytest.raises(ShapeMismatch):
        assemble_total((1,), (1,), [(0, 0, np.ones((2, 2)))])


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_a_negative_or_nan_tolerance_is_refused(tol):
    # every residual gate and every sign classification reads the tolerance
    # through within or the eigenvalue threshold
    with pytest.raises(PreconditionViolated, match="tolerance"):
        within(0.0, tol)
    with pytest.raises(PreconditionViolated, match="tolerance"):
        classify_eigenvalues(np.array([0.5, -0.5]), tol=tol)
    with pytest.raises(PreconditionViolated, match="tolerance"):
        manifold_signature(cp2_nine_vertex(), tol=tol)
    with pytest.raises(PreconditionViolated, match="tolerance"):
        check_coincidence(model_even_sphere(2), tol=tol)


def test_an_infinite_tolerance_is_refused():
    # an infinite tolerance would pass every residual gate whatever its size
    # and read every eigenvalue as zero
    inf = float("inf")
    for gate in (
        lambda: within(1e300, inf),
        lambda: residual_within(np.ones((2, 2)), inf),
        lambda: classify_eigenvalues(np.array([0.5, -0.5]), tol=inf),
        lambda: check_coincidence(model_even_sphere(2), tol=inf),
        lambda: verify_with_boundary(generate_with_boundary(0, "n2"), tol=inf),
    ):
        with pytest.raises(PreconditionViolated, match="tolerance must be finite, got inf"):
            gate()


def test_a_zero_tolerance_decides_exactly():
    assert within(0.0, 0.0) and not within(1e-300, 0.0)
    counts = classify_eigenvalues(np.array([0.5, -0.5, 0.0]), tol=0.0)
    assert (counts.rank_plus, counts.rank_minus, counts.rank_zero) == (1, 1, 1)
