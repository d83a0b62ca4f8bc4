"""Chain complexes, duality operators, cones, and the structural ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpsig import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    adjoint,
    barycentric_subdivide,
    direct_sum,
    doubled_duality_cone,
    dual_complex,
    duality_cone,
    homology_ranks,
    is_invertible,
    mapping_cone,
    mishchenko_signature,
    operator_norm,
    opposite,
    perturb_duality,
    check_coincidence,
    generate_with_signature,
    k0_add,
    k0_equal,
    random_unitary,
    spectral_split,
    to_hp_complex,
    twist,
    verify_complex,
    verify_duality,
)
from hpsig import complexes
from hpsig.errors import (
    DimensionMismatch,
    GroupMismatch,
    NotChainMap,
    NotSelfAdjoint,
    NotUnitary,
    ShapeMismatch,
)
from hpsig.fixtures import (
    cp2_nine_vertex,
    model_even_sphere,
    model_projective_plane,
    octahedron,
    octahedron_rotation,
)
from hpsig.linalg import BlockSpectrum


def _interval() -> ChainComplex:
    # two points, one edge: b1 = (-1, 1)^T columns
    return ChainComplex((2, 1), (np.array([[-1.0], [1.0]]),))


def test_chain_complex_shape_validation():
    with pytest.raises(ShapeMismatch):
        ChainComplex((2, -1), (np.zeros((2, 1)),))
    with pytest.raises(ShapeMismatch):
        ChainComplex((2, 1), (np.zeros((1, 1)),))
    with pytest.raises(ShapeMismatch):
        ChainComplex((2, 1), ())


def test_total_boundary_blocks():
    c = _interval()
    total = c.total_boundary()
    assert total.shape == (3, 3)
    assert np.array_equal(total[:2, 2:], np.array([[-1.0], [1.0]]))
    assert not total[:, :2].any()


def test_verify_complex_catches_nonzero_square():
    good = ChainComplex(
        (1, 1, 1), (np.array([[1.0]]), np.array([[0.0]]))
    )
    assert verify_complex(good).passed
    bad = ChainComplex(
        (1, 1, 1), (np.array([[1.0]]), np.array([[1.0]]))
    )
    rep = verify_complex(bad)
    assert not rep.passed
    assert rep.residuals[0] == pytest.approx(1.0)


def test_homology_ranks_interval_and_sphere_model():
    assert homology_ranks(_interval()) == (1, 0)
    sphere = model_even_sphere(2)
    assert homology_ranks(sphere.chain) == (1, 0, 1)


def test_dual_complex_is_an_involution():
    c = _interval()
    dd = dual_complex(dual_complex(c))
    assert dd.dims == c.dims
    for k in range(1, c.n + 1):
        assert np.array_equal(dd.boundary(k), c.boundary(k))


def test_mapping_cone_of_identity_is_acyclic():
    for hp in (model_even_sphere(2), model_projective_plane()):
        c = hp.chain
        eye = [np.eye(d) for d in c.dims]
        cone = mapping_cone(eye, c, c)
        assert homology_ranks(cone) == (0,) * (c.n + 2)


def test_mapping_cone_rejects_non_chain_maps():
    c = _interval()
    blocks = [np.zeros((2, 2)), np.ones((1, 1))]
    with pytest.raises(NotChainMap):
        mapping_cone(blocks, c, c)


def test_duality_cone_dims():
    hp = model_even_sphere(2)
    cone = duality_cone(hp)
    # degree j of the cone stacks dual degree j-1 over degree j
    assert cone.dims == (1, 1, 1, 1)
    assert homology_ranks(cone) == (0, 0, 0, 0)


def test_verify_duality_passes_on_models():
    for hp in (model_even_sphere(2), model_even_sphere(4), model_projective_plane()):
        rep = verify_duality(hp)
        assert rep.passed, rep.failures
        assert rep.cone_invertible


def test_verify_duality_failure_strings():
    hp = model_even_sphere(2)
    # break self-adjointness: S_0 and S_2 no longer adjoint to each other
    blocks = list(hp.duality.blocks)
    blocks[0] = 2.0 * blocks[0]
    rep = verify_duality(HilbertPoincareComplex(hp.chain, DualityOperator(tuple(blocks))))
    assert "duality is not self-adjoint" in rep.failures

    zero = DualityOperator(tuple(np.zeros_like(b) for b in hp.duality.blocks))
    rep = verify_duality(HilbertPoincareComplex(hp.chain, zero))
    assert rep.failures == ("duality cone operator is not invertible",)
    assert rep.cone_min_singular_value == pytest.approx(0.0)

    bad_chain = ChainComplex(
        (1, 1, 1), (np.array([[1.0]]), np.array([[1.0]]))
    )
    rep = verify_duality(
        HilbertPoincareComplex(bad_chain, DualityOperator(
            (np.eye(1), np.eye(1), np.eye(1))
        ))
    )
    assert "boundary squares to a nonzero operator" in rep.failures


def test_duality_shape_mismatch_is_constructor_level():
    hp = model_even_sphere(2)
    blocks = list(hp.duality.blocks)
    blocks[1] = np.zeros((2, 2))
    with pytest.raises(ShapeMismatch):
        HilbertPoincareComplex(hp.chain, DualityOperator(tuple(blocks)))


def test_opposite_is_an_involution_and_negates_duality():
    hp = model_projective_plane()
    opp = opposite(hp)
    for k in range(hp.n + 1):
        assert np.array_equal(opp.duality.block(k), -hp.duality.block(k))
    back = opposite(opp)
    for k in range(hp.n + 1):
        assert np.array_equal(back.duality.block(k), hp.duality.block(k))


def test_direct_sum_with_zero_is_identity():
    hp = model_even_sphere(2)
    zero = HilbertPoincareComplex(
        ChainComplex((0, 0, 0), (np.zeros((0, 0)), np.zeros((0, 0)))),
        DualityOperator((np.zeros((0, 0)),) * 3),
    )
    total = direct_sum(hp, zero)
    assert total.dims == hp.dims
    for k in range(1, hp.n + 1):
        assert np.array_equal(total.chain.boundary(k), hp.chain.boundary(k))
    for k in range(hp.n + 1):
        assert np.array_equal(total.duality.block(k), hp.duality.block(k))


def test_direct_sum_of_complexes_with_actions():
    a, class_a = generate_with_signature(3, "n2-z3-d3")
    b, class_b = generate_with_signature(4, "n2-z3-d3")
    total = direct_sum(a, b)
    report = check_coincidence(total)
    assert report.passed
    assert k0_equal(report.k0, k0_add(class_a, class_b))
    for g in range(total.action.group.order):
        # degree k of the sum is a_k (+) b_k, so the total action interleaves
        # the degree blocks of the two summands
        expect = np.zeros((total.total_dim(),) * 2, dtype=complex)
        off = 0
        for k, (da, db) in enumerate(zip(a.dims, b.dims)):
            expect[off : off + da, off : off + da] = a.action.degree(g, k)
            off += da
            expect[off : off + db, off : off + db] = b.action.degree(g, k)
            off += db
        assert np.array_equal(total.action.total(g), expect)


def test_direct_sum_mismatch_errors():
    with pytest.raises(DimensionMismatch):
        direct_sum(model_even_sphere(2), model_even_sphere(4))
    from hpsig import FiniteGroup, GroupAction

    hp = model_even_sphere(2)
    act = GroupAction.trivial_action(hp.dims)
    withact = HilbertPoincareComplex(hp.chain, hp.duality, act)
    with pytest.raises(GroupMismatch):
        direct_sum(withact, hp)


def test_twist_requires_unitaries():
    hp = model_even_sphere(2)
    us = [np.eye(1), np.zeros((0, 0)), 2.0 * np.eye(1)]
    with pytest.raises(NotUnitary):
        twist(hp, us)
    with pytest.raises(ShapeMismatch):
        twist(hp, us[:2])


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_twist_preserves_all_residuals(seed):
    rng = np.random.default_rng(seed)
    hp = model_projective_plane()
    us = [random_unitary(rng, d) for d in hp.dims]
    rep = verify_duality(twist(hp, us))
    assert rep.passed, rep.failures


def test_perturb_duality_validates_blocks():
    hp = model_even_sphere(2)
    with pytest.raises(ShapeMismatch):
        perturb_duality(hp, [None, None])
    bad = [None, None, np.ones((1, 1))]
    # R_2 must be adjoint to R_{n+2-2} = R_2 itself here, so an
    # anti-selfadjoint choice is rejected
    with pytest.raises(NotSelfAdjoint):
        perturb_duality(hp, [None, None, np.array([[1j]])])
    out = perturb_duality(hp, bad)
    assert verify_duality(out).passed


def test_perturb_duality_changes_s_but_not_homology_pairing():
    from hpsig import generate_with_signature

    hp, _ = generate_with_signature(0, "n2")
    rng = np.random.default_rng(5)
    r = rng.normal(size=(hp.dims[2], hp.dims[2]))
    r = (r + r.T) / 2.0
    out = perturb_duality(hp, [None, None, r])
    # middle block picks up b R b^*, top and bottom blocks cannot move
    assert np.array_equal(out.duality.block(0), hp.duality.block(0))
    assert np.array_equal(out.duality.block(hp.n), hp.duality.block(hp.n))
    moved = operator_norm(out.duality.block(1) - hp.duality.block(1))
    assert moved > 1e-6
    assert verify_duality(out).passed


# The duality cone in its doubling basis.


def _triangulation(name):
    if name == "cp2":
        return to_hp_complex(cp2_nine_vertex())
    return to_hp_complex(*barycentric_subdivide(octahedron(), octahedron_rotation()))


@pytest.fixture(scope="module", params=["cp2", "octahedron-z4"])
def triangulated(request):
    return _triangulation(request.param)


def _full_cone_min_sv(hp):
    d = duality_cone(hp).total_boundary()
    return is_invertible(d + adjoint(d))[1]


def _skewed_model():
    """The rank-one model of CP^2 with ``S_0`` moved by 1e-3 and ``S_4`` left
    alone: not self-adjoint, and a chain map since its boundaries are zero."""
    base = model_projective_plane()
    blocks = list(base.duality.blocks)
    blocks[0] = blocks[0] + 1e-3
    return HilbertPoincareComplex(base.chain, DualityOperator(tuple(blocks)))


def _doubling_case(name):
    if name in ("cp2", "octahedron-z4"):
        return _triangulation(name)
    if name == "skewed":
        return _skewed_model()
    # generated dualities are self-adjoint only up to rounding
    return generate_with_signature(5, name)[0]


def _doubling_isometries(hp):
    """``v: x -> (x, x)/sqrt(2)`` and ``w: x -> (-x, x)/sqrt(2)`` as dense
    matrices from the total space of ``hp`` into that of its duality cone,
    whose degree ``j`` is ``E_{n-j+1} (+) E_j``, source summand first."""
    n, dims = hp.n, hp.dims
    start = np.cumsum([0, *dims])
    v_rows, w_rows = [], []
    for j in range(n + 2):
        for k, sign in ((n - j + 1, -1.0), (j, 1.0)):
            if 0 <= k <= n:
                e = np.zeros((dims[k], start[-1]))
                e[:, start[k]:start[k + 1]] = np.eye(dims[k]) / np.sqrt(2.0)
                v_rows.append(e)
                w_rows.append(sign * e)
    return np.vstack(v_rows), np.vstack(w_rows)


@pytest.mark.parametrize("name", ["cp2", "octahedron-z4", "n4-z3-d3", "skewed"])
def test_doubled_cone_halves_are_b_plus_and_minus_s(name):
    hp = _doubling_case(name)
    b = hp.total_boundary()
    big_b, s = b + adjoint(b), hp.total_duality()
    s_h, x = (s + adjoint(s)) / 2.0, (s - adjoint(s)) / 2.0
    doubled = doubled_duality_cone(hp)
    assert doubled.decoupled == (name in ("cp2", "octahedron-z4"))
    assert np.array_equal(doubled.plus, big_b + s_h)
    assert np.array_equal(doubled.minus, big_b - s_h)
    d = doubled.cone.total_boundary()
    c = doubled.operator
    assert np.array_equal(c, d + adjoint(d))
    # the doubling basis, built here from the cone's summand layout
    v, w = _doubling_isometries(hp)
    assert v.shape[0] == sum(doubled.cone.dims)
    both = np.hstack([v, w])
    assert np.allclose(adjoint(both) @ both, np.eye(both.shape[1]), rtol=0, atol=1e-15)
    scale = max(1.0, operator_norm(c))
    for got, want in (
        (adjoint(v) @ c @ v, big_b + s_h),
        (adjoint(w) @ c @ w, big_b - s_h),
        (adjoint(w) @ c @ v, x),
    ):
        assert operator_norm(got - want) <= 1e-12 * scale
    if doubled.decoupled:
        # entry for entry: the halves are B + S and B - S in their place
        assert np.array_equal(doubled.plus, big_b + s)
        assert np.array_equal(doubled.minus, big_b - s)
        assert not x.any()


def test_doubled_cone_min_sv_matches_the_full_cone(triangulated):
    hp = triangulated
    rep = verify_duality(hp)
    assert rep.passed, rep.failures
    assert abs(rep.cone_min_singular_value - _full_cone_min_sv(hp)) <= 1e-12
    # read off B + S and B - S without the cone, as the assembled halves give it
    assert rep.cone_min_singular_value == doubled_duality_cone(hp).invertibility()[1]


@pytest.mark.parametrize("name", ["n4-z3-d3", "skewed"])
def test_cone_of_an_asymmetric_duality_is_read_off_its_hermitian_part(name):
    hp = _doubling_case(name)
    s = hp.total_duality()
    assert not np.array_equal(s, adjoint(s))
    b = hp.total_boundary()
    big_b, s_h = b + adjoint(b), (s + adjoint(s)) / 2.0
    want = min(np.abs(np.linalg.eigvalsh(big_b + sign * s_h)).min() for sign in (1, -1))
    rep = verify_duality(hp)
    assert rep.cone_min_singular_value == want
    assert doubled_duality_cone(hp).invertibility()[1] == want
    # within |S - S*| / 2 of the cone value of S itself (Weyl)
    assert abs(want - _full_cone_min_sv(hp)) <= operator_norm(s - adjoint(s)) / 2 + 1e-12
    # the self-adjointness gate still runs on the given S
    failures = ("duality is not self-adjoint",) if name == "skewed" else ()
    assert rep.failures == failures


def test_the_grading_mirrors_b_minus_s_on_every_even_sweep_case(verdict_sweep):
    # every even-degree closed case of the verdict sweep (two seeds of each
    # generated profile), as it is and perturbed
    count = 0
    for name, hp, _ in verdict_sweep.base_cases(2):
        for variant, case in verdict_sweep._variants(hp, name, verdict_sweep.perturbed):
            count += _mirrors(case, f"{name} {variant}")
    assert count == (8 + 2 * 12) * 11


def _mirrors(hp, name):
    """Assert that the grading conjugates ``B - S`` into ``-(B + S)`` entry
    for entry, and ``B - S_h`` into ``-(B + S_h)``, when ``hp.n`` is even;
    return whether it is."""
    if hp.n % 2:
        return False
    signs = hp.degree_signs()
    b, s = hp.total_boundary(), hp.total_duality()
    big_b = b + adjoint(b)
    halves = (
        (big_b + s, big_b - s),
        complexes._hermitian_halves(b, s, s - adjoint(s)),
    )
    for plus_op, minus_op in halves:
        assert np.array_equal(signs[:, None] * minus_op * signs, -plus_op), name
    return True


def _self_adjoint_non_chain_map():
    """CP^2_9 with ``S_0`` and ``S_4 = S_0^*`` moved by the same entry: ``S``
    stays self-adjoint entry for entry but no longer anticommutes with ``b``.
    (The rank-one model of CP^2 has zero boundaries, so every duality on it is
    a chain map.)"""
    base = to_hp_complex(cp2_nine_vertex())
    blocks = list(base.duality.blocks)
    bump = np.zeros_like(blocks[0])
    bump[0, 0] = 1e-3
    blocks[0] = blocks[0] + bump
    blocks[4] = blocks[4] + bump.T
    hp = HilbertPoincareComplex(base.chain, DualityOperator(tuple(blocks)))
    s = hp.total_duality()
    assert np.array_equal(s, adjoint(s))
    return hp


def test_self_adjoint_non_chain_map_fails_the_cone_gate():
    hp = _self_adjoint_non_chain_map()
    rep = verify_duality(hp)
    assert not rep.passed
    assert "duality does not anticommute with the boundary" in rep.failures
    assert "duality cone operator is not invertible" in rep.failures
    assert rep.cone_min_singular_value == 0.0
    assert not rep.cone_invertible
    with pytest.raises(NotChainMap) as full:
        duality_cone(hp)
    # the coincidence check raises the cone's own message without building it
    with pytest.raises(NotChainMap) as fast:
        check_coincidence(hp)
    assert str(fast.value) == str(full.value)
    with pytest.raises(NotChainMap) as standalone:
        mishchenko_signature(hp)
    assert str(standalone.value) == str(full.value)


def _even_complex(name):
    """A triangulation of even dimension, or a generated complex with a group."""
    if name == "cp2":
        return to_hp_complex(cp2_nine_vertex())
    if name == "octahedron-z4":
        return to_hp_complex(*barycentric_subdivide(octahedron(), octahedron_rotation()))
    profile, seed = name.rsplit("/", 1)
    return generate_with_signature(int(seed), profile)[0]


@pytest.mark.parametrize("name", ["cp2", "octahedron-z4", "n2-z4-d4/1", "n4-z3-d3/0"])
def test_mirrored_halves_match_an_independent_diagonalisation(name):
    hp = _even_complex(name)
    b = hp.total_boundary()
    big_b, s = b + adjoint(b), hp.total_duality()
    signs = hp.degree_signs()
    # in even top degree the grading conjugates B - S into -(B + S) exactly
    assert np.array_equal(signs[:, None] * (big_b - s) * signs, -(big_b + s))
    # the operators diagonalised are B + S_h and B - S_h, self-adjoint entry
    # for entry
    plus_op, minus_op = complexes._hermitian_halves(b, s, s - adjoint(s))
    # over the trivial group, one block, and over the action's group, one
    # block per irreducible character: from the orbits of the exactly
    # commuting octahedron action, and degree by degree for the dense
    # generated ones
    actions = [None] if hp.action is None else [None, hp.action]
    for action in actions:
        plus, minus = complexes._diagonalise_halves(plus_op, minus_op, hp.n, 1e-9, action)
        (own,) = complexes._diagonalise((minus_op,), 1e-9, action)
        assert type(minus) is type(own) is BlockSpectrum
        assert (minus.rank_plus, minus.rank_minus, minus.rank_zero) == (
            own.rank_plus, own.rank_minus, own.rank_zero
        )
        scale = max(1.0, float(np.abs(own.eigenvalues).max()))
        assert np.abs(minus.eigenvalues - own.eigenvalues).max() <= 1e-12 * scale
        assert abs(minus.min_abs_nonzero_eigenvalue - own.min_abs_nonzero_eigenvalue) <= 1e-12 * scale
        assert minus.block_ranks == own.block_ranks
        assert len(own.block_ranks) == (1 if action is None else len(action.group.characters))


@pytest.mark.parametrize(
    "name", ["cp2", "octahedron-z4", "n2-z4-d4/1", "n4-z3-d3/0", "n4-d6/3", "n2-d4/5"]
)
def test_degree_block_products_match_the_dense_products(name):
    hp = _even_complex(name)
    chain = hp.chain
    b, s = hp.total_boundary(), hp.total_duality()
    square = complexes._boundary_square(chain)
    anti = complexes._anticommutator(chain, complexes._duality_sides(chain, hp.duality.blocks))
    dense_square, dense_anti = b @ b, b @ s + s @ adjoint(b)
    if "/" not in name:
        # +-1 boundaries and dyadic caps: every product is exact
        assert np.array_equal(square, dense_square)
        assert np.array_equal(anti, dense_anti)
    else:
        nb, ns = operator_norm(b), operator_norm(s)
        assert np.abs(square - dense_square).max() <= 1e-15 * max(1.0, nb * nb)
        assert np.abs(anti - dense_anti).max() <= 1e-15 * max(1.0, nb * ns)


@pytest.mark.parametrize("name", ["cp2", "n4-z3-d3/0"])
def test_cone_chain_map_gate_reads_the_chain_condition_blocks(name, monkeypatch):
    hp = _even_complex(name)
    seen = []
    gate = complexes._require_chain_map

    def capture(sides, tol):
        seen.append(list(sides))
        return gate(sides, tol)

    formed = []
    sides_of = complexes._chain_map_sides

    def count(*args):
        formed.append(args)
        return sides_of(*args)

    monkeypatch.setattr(complexes, "_require_chain_map", capture)
    monkeypatch.setattr(complexes, "_chain_map_sides", count)
    duality_cone(hp)
    assert len(seen) == len(formed) == 1
    rep = verify_duality(hp)
    # the cone's gate, and the duality check's own run of it, see the blocks
    # of b S + S b* that the chain condition gates; the check forms those
    # sides once and gates them once
    assert len(seen) == len(formed) == 2
    for sides in seen[1:]:
        assert all(
            np.array_equal(p, q) for pair, other in zip(sides, seen[0]) for p, q in zip(pair, other)
        )
    anti = complexes._anticommutator(hp.chain, seen[0])
    assert rep.passed and rep.chain_residual == np.linalg.norm(anti)
