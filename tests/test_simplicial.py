"""Tests for triangulated manifolds, the cap duality, and group actions."""

import numpy as np
import pytest

from hpsig import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    OrientedSimplicialManifold,
    SimplicialAction,
    FiniteGroup,
    barycentric_subdivide,
    bordism_to_cwb,
    boundary_complex,
    boundary_signature_is_zero,
    cap_duality,
    chain_action,
    check_coincidence,
    duality_operator,
    enumerate_and_boundaries,
    fundamental_cycle,
    geometry_stats,
    k0_equal,
    manifold_signature,
    spectral_split,
    to_hp_complex,
    verify_complex,
    verify_duality,
    verify_equivariance,
)
from hpsig.errors import (
    BoundaryConditionViolated,
    EquivarianceViolated,
    IncoherentOrientation,
    InvalidFacet,
    NotSimplicial,
    OddDimension,
    OrientationReversing,
    PreconditionViolated,
)
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


def test_facet_validation():
    with pytest.raises(InvalidFacet):
        OrientedSimplicialManifold((), ())
    with pytest.raises(InvalidFacet):
        OrientedSimplicialManifold(((0, 1, 2), (0, 1)), (1, 1))
    with pytest.raises(InvalidFacet):
        OrientedSimplicialManifold(((2, 1, 0),), (1,))
    with pytest.raises(InvalidFacet):
        OrientedSimplicialManifold(((0, 1, 2), (0, 1, 2)), (1, 1))
    with pytest.raises(InvalidFacet):
        OrientedSimplicialManifold(((0, 1, 2),), (2,))
    # an edge in three triangles is not allowed
    with pytest.raises(InvalidFacet):
        OrientedSimplicialManifold(
            ((0, 1, 2), (0, 1, 3), (0, 1, 4)), (1, 1, 1)
        )


@pytest.mark.parametrize(
    "build,dims",
    [
        (lambda: simplex_disk(2), (3, 3, 1)),
        (lambda: simplex_sphere(2), (4, 6, 4)),
        (lambda: octahedron(), (6, 12, 8)),
        (lambda: cp2_nine_vertex(), (9, 36, 84, 90, 36)),
    ],
)
def test_simplex_counts(build, dims):
    chains = enumerate_and_boundaries(build())
    assert chains.chain.dims == dims
    rep = verify_complex(chains.chain)
    assert rep.passed
    assert all(r == 0.0 for r in rep.residuals)


def test_fundamental_cycle_closed():
    m = simplex_sphere(2)
    chains = enumerate_and_boundaries(m)
    z = fundamental_cycle(m, chains)
    assert np.array_equal(np.abs(z), np.ones(len(m.facets)))
    assert operator_norm((chains.chain.boundary(2) @ z).reshape(-1, 1)) == 0.0


def test_fundamental_cycle_with_boundary():
    m = simplex_disk(2)
    chains = enumerate_and_boundaries(m)
    z = fundamental_cycle(m, chains)
    bz = chains.chain.boundary(2) @ z
    allowed = {chains.index[1][f] for f in m.boundary_faces()}
    for row, val in enumerate(bz):
        assert abs(val) < 0.5 or row in allowed


def test_incoherent_signs_rejected():
    facets = simplex_sphere(2).facets
    bad = OrientedSimplicialManifold(facets, (1, 1, 1, 1))
    with pytest.raises(IncoherentOrientation):
        fundamental_cycle(bad)


def test_solver_assigns_coherent_signs():
    assert simplex_sphere(2).signs == (1, -1, 1, -1)
    # two components: each starts at +1 independently
    pair = disjoint_sphere_pair()
    assert pair.signs[:4] == pair.signs[4:]


def test_interval_cap_values():
    m = simplex_disk(1)
    chains = enumerate_and_boundaries(m)
    caps = cap_duality(m, chains)
    assert np.array_equal(caps[0].real, np.array([[0.0], [1.0]]))
    assert np.array_equal(caps[1].real, np.array([[1.0, 0.0]]))


def test_point_manifold_signature_one():
    pt = OrientedSimplicialManifold(((0,),), (1,))
    assert pt.dim == 0 and not pt.with_boundary
    rep = manifold_signature(pt)
    assert rep.passed
    assert abs(rep.k0.values[0] - 1.0) < 1e-12


@pytest.mark.parametrize("build", [simplex_sphere, lambda k: octahedron()])
def test_phased_cap_anticommutes_exactly(build):
    m = build(2)
    dual, rep = duality_operator(m)
    assert rep.passed
    # alternating-sign orderings cancel exactly in integer arithmetic
    assert rep.raw_chain_residual == 0.0
    assert rep.chain_residual == 0.0
    assert rep.cone_min_singular_value > 1e-3


def test_duality_operator_rejects_boundary():
    with pytest.raises(PreconditionViolated):
        duality_operator(simplex_disk(2))


@pytest.mark.parametrize("build", [lambda: simplex_sphere(2), octahedron])
def test_sphere_signature_zero(build):
    rep = manifold_signature(build())
    assert rep.passed
    assert abs(rep.k0.values[0]) < 1e-6


def test_cp2_signature_and_orientation_flip():
    m = cp2_nine_vertex()
    rep = manifold_signature(m)
    assert rep.passed
    assert abs(rep.k0.values[0] - 1.0) < 1e-6
    flipped = OrientedSimplicialManifold(m.facets, tuple(-s for s in m.signs))
    rep2 = manifold_signature(flipped)
    assert rep2.passed
    assert abs(rep2.k0.values[0] + 1.0) < 1e-6


def _b_plus_s_and_b_minus_s(hp):
    b = hp.total_boundary()
    big_b, s = b + adjoint(b), hp.total_duality()
    return big_b + s, big_b - s


@pytest.mark.parametrize("build", [cp2_nine_vertex, lambda: simplex_sphere(4)])
def test_four_k_triangulation_stays_real(build):
    hp = to_hp_complex(build())
    assert hp.total_boundary().dtype == np.float64
    assert hp.total_duality().dtype == np.float64
    for op in _b_plus_s_and_b_minus_s(hp):
        split = spectral_split(op)
        assert {p.dtype for p in (split.p_plus, split.p_minus, split.p_zero)} == {
            np.dtype(np.float64)
        }


def test_two_mod_four_triangulation_is_complex():
    m2, act2 = barycentric_subdivide(octahedron(), octahedron_rotation())
    hp = to_hp_complex(m2, act2)
    assert hp.total_duality().dtype == np.complex128


def test_cp2_complex_cast_gives_the_same_verdicts():
    real = to_hp_complex(cp2_nine_vertex())
    cast = HilbertPoincareComplex(
        ChainComplex(real.dims, tuple(b.astype(np.complex128) for b in real.chain.boundaries)),
        DualityOperator(tuple(s.astype(np.complex128) for s in real.duality.blocks)),
    )
    assert cast.total_duality().dtype == np.complex128
    rep_real, rep_cast = check_coincidence(real), check_coincidence(cast)
    assert rep_real.passed and rep_cast.passed
    for r, c in zip(rep_real.results, rep_cast.results):
        assert r.method == c.method
        assert r.k0.values == c.k0.values
        assert c.spectral_gap == pytest.approx(r.spectral_gap, rel=1e-12)
    for op_real, op_cast in zip(_b_plus_s_and_b_minus_s(real), _b_plus_s_and_b_minus_s(cast)):
        sr, sc = spectral_split(op_real), spectral_split(op_cast)
        assert (sr.rank_plus, sr.rank_minus, sr.rank_zero) == (
            sc.rank_plus,
            sc.rank_minus,
            sc.rank_zero,
        )
        assert sc.min_abs_nonzero_eigenvalue == pytest.approx(
            sr.min_abs_nonzero_eigenvalue, rel=1e-12
        )


def test_odd_dimension_circle():
    hp = to_hp_complex(circle_polygon(5))
    assert verify_duality(hp).passed
    with pytest.raises(OddDimension):
        manifold_signature(circle_polygon(5))


def test_chain_action_octahedron():
    m = octahedron()
    act = octahedron_rotation()
    rho = chain_action(m, act)
    for k in range(3):
        r = rho.blocks[1][k]
        assert np.array_equal(np.linalg.matrix_power(r.real.astype(int), 4), np.eye(r.shape[0], dtype=int))


def test_chain_action_component_swap():
    m = disjoint_sphere_pair()
    rho = chain_action(m, sphere_swap_action())
    swap = rho.blocks[1][2].real
    # the swap exchanges the two blocks of four facets
    assert np.array_equal(swap @ swap, np.eye(8))
    assert operator_norm(np.asarray(swap[:4, :4], dtype=np.complex128)) == 0.0


def test_chain_action_rejects_non_permutation():
    m = simplex_sphere(2)
    g2 = FiniteGroup.cyclic(2)
    collapse = {v: 0 for v in range(4)}
    act = SimplicialAction(g2, ({v: v for v in range(4)}, collapse))
    with pytest.raises(NotSimplicial):
        chain_action(m, act)


def test_chain_action_rejects_irregular_with_hint():
    m = simplex_sphere(2)
    g2 = FiniteGroup.cyclic(2)
    transposition = {0: 1, 1: 0, 2: 2, 3: 3}
    act = SimplicialAction(g2, ({v: v for v in range(4)}, transposition))
    with pytest.raises(NotSimplicial, match="subdivide"):
        chain_action(m, act)


def test_chain_action_rejects_orientation_reversal():
    m = disjoint_sphere_pair()
    g2 = FiniteGroup.cyclic(2)
    twisted = {0: 5, 1: 4, 2: 6, 3: 7, 4: 1, 5: 0, 6: 2, 7: 3}
    act = SimplicialAction(g2, ({v: v for v in range(8)}, twisted))
    with pytest.raises(OrientationReversing):
        chain_action(m, act)


def test_equivariance_identity_action():
    m = simplex_sphere(2)
    act = SimplicialAction(FiniteGroup.trivial(), ({v: v for v in range(4)},))
    rep = verify_equivariance(m, act)
    assert rep.passed
    assert rep.boundary_residual == 0.0
    assert rep.duality_residual == 0.0


def test_equivariance_octahedron_rotation():
    rep = verify_equivariance(octahedron(), octahedron_rotation())
    assert rep.passed
    # averaging makes the pipeline duality commute exactly, while the raw
    # phased cap is order sensitive and visibly fails to commute
    assert rep.duality_residual == 0.0
    assert rep.raw_cap_residual > 1.0


def test_equivariance_sphere_pair_swap():
    rep = verify_equivariance(disjoint_sphere_pair(), sphere_swap_action())
    assert rep.passed
    assert rep.duality_residual <= 1e-12


def test_equivariance_violation_raises(monkeypatch):
    import hpsig.simplicial as sim

    monkeypatch.setattr(sim, "_average_over_group", lambda blocks, rho: list(blocks))
    with pytest.raises(EquivarianceViolated) as exc_info:
        verify_equivariance(octahedron(), octahedron_rotation())
    assert exc_info.value.report.duality_residual > 1.0


def test_equivariant_complex_and_character():
    hp = to_hp_complex(octahedron(), octahedron_rotation())
    assert hp.action is not None
    rep = manifold_signature(octahedron(), octahedron_rotation())
    assert rep.passed
    assert all(abs(v) < 1e-6 for v in rep.k0.values)


def test_bordism_interval():
    cwb = bordism_to_cwb(simplex_disk(1))
    # the distinguished subcomplex is the two endpoint vertices
    assert cwb.split == ((0, 1), ())


def test_bordism_disk3_boundary_is_sphere():
    cwb = bordism_to_cwb(simplex_disk(3))
    hp = boundary_complex(cwb)
    assert hp.n == 2
    assert hp.dims == (4, 6, 4)
    rep = boundary_signature_is_zero(cwb)
    assert rep.passed and rep.is_zero


def test_bordism_rejects_closed_manifold():
    with pytest.raises(PreconditionViolated):
        bordism_to_cwb(octahedron())


def test_bordism_rejects_pseudomanifold():
    bowtie = OrientedSimplicialManifold.from_facets([(0, 1, 2), (2, 3, 4)])
    with pytest.raises(BoundaryConditionViolated) as exc_info:
        bordism_to_cwb(bowtie)
    assert not exc_info.value.report.passed


def test_geometry_stats_disk():
    stats = geometry_stats(simplex_disk(2))
    assert stats.simplex_counts == (3, 3, 1)
    assert stats.max_closed_star == 7
    assert stats.max_isotropy_order == 1


def test_geometry_stats_octahedron_action():
    stats = geometry_stats(octahedron(), octahedron_rotation())
    assert stats.simplex_counts == (6, 12, 8)
    # the polar vertices are fixed by the full rotation group
    assert stats.max_isotropy_order == 4


def test_subdivision_preserves_sphere_signature():
    m = simplex_sphere(2)
    m2, act2 = barycentric_subdivide(m)
    assert act2 is None
    assert len(m2.facets) == len(m.facets) * 6
    rep = manifold_signature(m2)
    base = manifold_signature(m)
    assert rep.passed
    assert k0_equal(rep.k0, base.k0)


def test_subdivision_transports_action():
    m2, act2 = barycentric_subdivide(octahedron(), octahedron_rotation())
    assert len(m2.facets) == 48
    rep = verify_equivariance(m2, act2)
    assert rep.passed
    assert rep.duality_residual <= 1e-12
