"""Tests for triangulated manifolds, the cap duality, and group actions."""

import json
import tracemalloc

import numpy as np
import pytest

from hpsig import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    OrientedSimplicialManifold,
    SimplicialAction,
    FiniteGroup,
    GroupAction,
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
from hpsig import complexes, linalg, reduce, simplicial
from hpsig.errors import (
    BoundaryConditionViolated,
    DegenerateDuality,
    EquivarianceViolated,
    IncoherentOrientation,
    InvalidFacet,
    NotRepresentation,
    NotSimplicial,
    OddDimension,
    OrientationReversing,
    PreconditionViolated,
)
from hpsig.fixtures import (
    circle_polygon,
    cp2_automorphisms,
    cp2_nine_vertex,
    cp2_triple_s3,
    disjoint_sphere_pair,
    octahedron,
    octahedron_rotation,
    octahedron_rotation_group,
    simplex_disk,
    simplex_sphere,
    sphere_swap_action,
)
from hpsig.generate import random_unitary
from hpsig.cli import main
from hpsig.io import read_smf, write_smf
from hpsig.linalg import DEFAULT_TOL, adjoint, operator_norm


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
    "facets, signs, message",
    [
        ((), (), "a manifold needs at least one facet"),
        (((0, 1, 2), (0, 1)), (1, 1), "facet (0, 1) has 2 vertices, expected 3"),
        (((2, 1, 0),), (1,), "facet (2, 1, 0) is not a sorted tuple of distinct vertices"),
        (((0, 1, 1),), (1,), "facet (0, 1, 1) is not a sorted tuple of distinct vertices"),
        # facet by facet, whichever check fails first
        (
            ((0, 1, 2), (2, 1, 0), (0, 1)),
            (1, 1, 1),
            "facet (2, 1, 0) is not a sorted tuple of distinct vertices",
        ),
        (((0, 1, 2), (0, 1), (2, 1, 0)), (1, 1, 1), "facet (0, 1) has 2 vertices, expected 3"),
        (((0, 1, 2), (0, 1, 3), (0, 1, 2)), (1, 1, 1), "duplicate facets"),
        # one facet with no vertex is not a duplicate of anything
        (((),), (1,), "facet () has no vertex"),
        (((), ()), (1, 1), "facet () has no vertex"),
        # a label that no int64 array can hold
        (((0, 1, 2**70),), (1,), f"vertex label {2**70} is outside the 64-bit integer range"),
        (((0, 1, 2),), (2,), "signs must be +1 or -1, one per facet"),
        (((0, 1, 2), (0, 1, 3)), (1,), "signs must be +1 or -1, one per facet"),
        (
            ((0, 1, 2), (0, 1, 3), (0, 1, 4)),
            (1, 1, 1),
            "face (0, 1) lies in 3 facets; at most 2 allowed",
        ),
        # the face named is the first to appear, not the least
        (
            ((1, 2, 3), (1, 2, 4), (1, 2, 5), (0, 1, 6), (0, 1, 7), (0, 1, 8), (0, 1, 9)),
            (1,) * 7,
            "face (1, 2) lies in 3 facets; at most 2 allowed",
        ),
        (((0,), (1,), (2,)), (1, 1, 1), None),
        # a label or sign that is not an integer is refused, not truncated
        (((0, 1.5, 2),), (1,), "vertex label 1.5 is not an integer"),
        (((0, "1", 2),), (1,), "vertex label '1' is not an integer"),
        (((0, 1, 2),), (1.5,), "signs must be +1 or -1, one per facet"),
        (((0, 1, 2),), ("1",), "signs must be +1 or -1, one per facet"),
        # a label that is itself a sequence, ragged or not
        (((0, (1, 2)),), (1,), "vertex label (1, 2) is not an integer"),
        ((((0,), (1,)),), (1,), "vertex label (0,) is not an integer"),
        # a facet of another size has its labels checked before it is named
        (((0, 1, 2), ("a", 1)), (1, 1), "vertex label 'a' is not an integer"),
    ],
)
def test_facet_validation_messages(facets, signs, message):
    if message is None:  # points have no codimension-one faces to count
        m = OrientedSimplicialManifold(facets, signs)
        assert m.dim == 0 and not m.with_boundary and m.boundary_faces() == ()
        return
    with pytest.raises(InvalidFacet) as exc:
        OrientedSimplicialManifold(facets, signs)
    assert str(exc.value) == message


def test_face_counts_give_the_boundary():
    disk = simplex_disk(2)
    assert disk.with_boundary and disk.boundary_faces() == ((0, 1), (0, 2), (1, 2))
    # two triangles sharing an edge: the other four edges, sorted
    m = OrientedSimplicialManifold(((0, 2, 3), (0, 1, 2)), (1, -1))
    assert m.facets == ((0, 2, 3), (0, 1, 2)) and m.vertices == (0, 1, 2, 3)
    assert m.boundary_faces() == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert not octahedron().with_boundary and octahedron().boundary_faces() == ()


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
    chains = m.chains
    z = fundamental_cycle(m)
    assert np.array_equal(np.abs(z), np.ones(len(m.facets)))
    assert operator_norm((chains.chain.boundary(2) @ z).reshape(-1, 1)) == 0.0


def test_fundamental_cycle_with_boundary():
    m = simplex_disk(2)
    chains = m.chains
    z = fundamental_cycle(m)
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: simplex_sphere(2),
        lambda: simplex_sphere(4),
        lambda: circle_polygon(5),
        octahedron,
        disjoint_sphere_pair,
        cp2_nine_vertex,
    ],
)
def test_the_solved_signs_are_the_one_sign_array(build):
    m = build()
    assert m.chains.signs.tolist() == list(m.signs) and m.chains.signs.dtype == np.int64
    for name in ("facets", "signs", "vertices"):
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(m, name))


@pytest.mark.parametrize(
    "facets, message",
    [
        ([], "a manifold needs at least one facet"),
        ([(0, 1.5, 2)], "vertex label 1.5 is not an integer"),
        # three facets on one face can never be oriented coherently, but the
        # face is refused first, as the constructor refuses it
        ([(0, 1, 2), (1, 2, 3), (1, 2, 4)], "face (1, 2) lies in 3 facets; at most 2 allowed"),
        # labels that cannot be sorted are named as the constructor names them
        ([("a", 1, 2)], "vertex label 'a' is not an integer"),
        ([(0, (1, 2))], "vertex label (1, 2) is not an integer"),
    ],
)
def test_the_sign_solver_runs_on_validated_facets(facets, message):
    with pytest.raises(InvalidFacet) as exc:
        OrientedSimplicialManifold.from_facets(facets)
    assert str(exc.value) == message


def test_a_manifold_is_enumerated_once(count_calls, tmp_path):
    calls = count_calls(simplicial, ("enumerate_and_boundaries",))
    m, act = octahedron(), octahedron_rotation()
    fundamental_cycle(m)
    geometry_stats(m, act)
    chain_action(m, act)
    verify_equivariance(m, act)
    manifold_signature(m, act)
    to_hp_complex(m, act)
    assert calls == {"enumerate_and_boundaries": 1}
    # the constructor enumerates the manifolds the reader and the subdivision
    # build, and nothing else does
    path = str(tmp_path / "oct.smf")
    write_smf(m, path)
    read, _ = read_smf(path)
    assert calls == {"enumerate_and_boundaries": 2}
    fine, _ = barycentric_subdivide(read)
    manifold_signature(fine)
    assert calls == {"enumerate_and_boundaries": 3}
    # chain data passed where it used to be accepted is refused, not read as
    # the tolerance
    chains, disk = m.chains, simplex_disk(2)
    for call in (
        lambda: fundamental_cycle(m, chains),
        lambda: cap_duality(m, chains),
        lambda: duality_operator(m, chains),
        lambda: chain_action(m, act, chains),
        lambda: verify_equivariance(m, act, chains),
        lambda: to_hp_complex(m, act, chains),
        lambda: manifold_signature(m, act, chains),
        lambda: bordism_to_cwb(disk, disk.chains),
        lambda: geometry_stats(m, act, chains),
    ):
        with pytest.raises(TypeError):
            call()


def test_a_manifold_keeps_its_facets_once(tmp_path):
    # labels that are not the vertex numbers, facets out of label order
    facets = [(10, 30, 70), (30, 70, 90), (10, 30, 90), (10, 70, 90)]
    m = OrientedSimplicialManifold.from_facets(facets[::-1])
    arrays = [v for v in vars(m).values() if isinstance(v, np.ndarray) and v.ndim == 2]
    assert arrays == []  # the facets are held by ``chains`` only, as vertex numbers
    assert m.facets == tuple(facets[::-1])
    assert np.array_equal(m.chains.vertices[m.chains.facets], np.array(facets[::-1]))
    path = str(tmp_path / "s2.smf")
    write_smf(m, path)
    again, _ = read_smf(path)
    assert (again.facets, again.signs) == (m.facets, m.signs)
    assert simplicial.enumerate_and_boundaries(m).dims == m.chains.dims


def test_interval_cap_values():
    m = simplex_disk(1)
    caps = cap_duality(m)
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
    # alternating-sign orderings cancel exactly in integer arithmetic, and
    # in floating point on the laid-out phased cap
    chains = m.chains
    assert simplicial._exact_identities(chains, None, simplicial._cap_entries(chains, None)[0]) is None
    phased = HilbertPoincareComplex(chains.chain, DualityOperator(tuple(_phased(m, chains))))
    assert verify_duality(phased).chain_residual == 0.0
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
        assert {p.dtype for p in (split.p_plus, split.p_minus)} == {
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


@pytest.mark.parametrize(
    "m, vertex_map, error, message",
    [
        (simplex_sphere(2), {v: 0 for v in range(4)}, NotSimplicial,
         "element g does not permute the vertex set"),
        (octahedron(), {0: 0, 1: 2, 2: 1, 3: 3, 4: 4, 5: 5}, NotSimplicial,
         "element g maps facet (0, 1, 4) to (0, 2, 4), which is not a facet"),
        (simplex_sphere(2), {0: 1, 1: 0, 2: 2, 3: 3}, NotSimplicial,
         "element g fixes simplex (0, 1) setwise but not pointwise; subdivide "
         "barycentrically once to make the action regular"),
        (disjoint_sphere_pair(), {0: 5, 1: 4, 2: 6, 3: 7, 4: 1, 5: 0, 6: 2, 7: 3},
         OrientationReversing, "element g reverses the orientation on facet (0, 1, 2)"),
    ],
)
def test_chain_action_reports_the_first_violation(m, vertex_map, error, message):
    identity = {v: v for v in m.vertices}
    act = SimplicialAction(FiniteGroup.cyclic(2), (identity, vertex_map))
    with pytest.raises(error) as exc_info:
        chain_action(m, act)
    assert str(exc_info.value) == message


def test_equivariance_identity_action():
    m = simplex_sphere(2)
    act = SimplicialAction(FiniteGroup.trivial(), ({v: v for v in range(4)},))
    rep = verify_equivariance(m, act)
    assert rep.passed
    assert rep.boundary_residual == 0.0
    assert rep.duality_residual == 0.0


def _phased(m, chains):
    """The phased cap laid out densely, each raw cap block times its phase:
    the reference for the cap blocks that the simplicial layer scatters."""
    return [r * x for r, x in zip(simplicial._roots(m.dim), cap_duality(m))]


def test_equivariance_octahedron_rotation():
    m, act = octahedron(), octahedron_rotation()
    rep = verify_equivariance(m, act)
    assert rep.passed
    # averaging makes the pipeline duality commute exactly, while the raw
    # phased cap is order sensitive and visibly fails to commute
    assert rep.duality_residual == 0.0
    chains = m.chains
    rho = chain_action(m, act)
    raw = DualityOperator(tuple(_phased(m, chains))).total(chains.chain)
    commutators = [rho.total(g) @ raw - raw @ rho.total(g) for g in range(rho.group.order)]
    assert max(np.linalg.norm(x) for x in commutators) > 1.0


def test_equivariance_sphere_pair_swap():
    rep = verify_equivariance(disjoint_sphere_pair(), sphere_swap_action())
    assert rep.passed
    assert rep.duality_residual <= 1e-12


def test_equivariance_violation_raises(monkeypatch):
    # the cap is not averaged: its entries, which the exact identities read,
    # are the raw cap's, which the quarter turn does not commute with
    entries = simplicial._cap_entries
    monkeypatch.setattr(simplicial, "_cap_entries", lambda chains, rho: entries(chains, None))
    with pytest.raises(EquivarianceViolated) as exc_info:
        verify_equivariance(octahedron(), octahedron_rotation())
    assert str(exc_info.value) == (
        "action does not commute with the structure maps on the integer arrays"
    )


def test_equivariance_with_boundary_is_decided_on_the_integer_arrays(monkeypatch, count_calls):
    # the 2-disk with Z/3 rotating its vertices, subdivided to be regular and
    # relabelled so that the rotation scrambles the vertex order
    rotation = SimplicialAction(
        FiniteGroup.cyclic(3), tuple({v: (v + k) % 3 for v in range(3)} for k in range(3))
    )
    m, act = _relabelled(*barycentric_subdivide(simplex_disk(2), rotation), 0)
    assert m.with_boundary
    solves = count_calls(np.linalg, ("eigh", "eigvalsh", "svd"))
    layouts = count_calls(linalg, ("assemble_total",))
    rep = verify_equivariance(m, act)
    assert (rep.boundary_residual, rep.duality_residual, rep.passed) == (0.0, 0.0, True)
    assert solves == {"eigh": 0, "eigvalsh": 0, "svd": 0}
    assert layouts == {"assemble_total": 0}
    # an unaveraged cap does not commute with the rotation
    entries = simplicial._cap_entries
    monkeypatch.setattr(simplicial, "_cap_entries", lambda chains, rho: entries(chains, None))
    with pytest.raises(EquivarianceViolated) as exc_info:
        verify_equivariance(m, act)
    assert str(exc_info.value) == (
        "action does not commute with the structure maps on the integer arrays"
    )


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


def test_signed_action_needs_no_dense_element(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "oct.smf")
    m, act = barycentric_subdivide(octahedron(), octahedron_rotation())
    write_smf(m, path, act)
    calls = []
    total = GroupAction.total
    monkeypatch.setattr(GroupAction, "total", lambda self, g: calls.append(g) or total(self, g))
    assert main(["manifold", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    # gates, characters and the group average all run on index arrays
    assert calls == []


def test_octahedral_rotation_group_on_the_subdivided_octahedron(tmp_path, capsys):
    act = octahedron_rotation_group()
    group = act.group
    assert group.order == 24
    assert sorted(map(len, group.conjugacy_classes)) == [1, 3, 6, 6, 8]
    m, act2 = barycentric_subdivide(octahedron(), act)
    assert chain_action(m, act2).is_signed_permutation
    path = str(tmp_path / "oct24.smf")
    write_smf(m, path, act2)
    assert main(["manifold", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["equivariance"]["passed"] is True
    # S^2 has no middle homology, so every character vanishes
    for k0 in payload["methods"].values():
        assert len(k0["classes"]) == 5
        assert all(abs(complex(*c["value"])) < 1e-6 for c in k0["classes"])


def test_the_automorphisms_of_cp2_act_on_its_subdivision():
    act = cp2_automorphisms()
    group = act.group
    assert group.order == 54
    assert sorted(map(len, group.conjugacy_classes)) == [1, 2, 3, 3, 6, 6, 6, 9, 9, 9]
    assert sorted(group.character_degrees) == [1, 1, 1, 1, 1, 1, 2, 2, 2, 6]
    cp2 = cp2_nine_vertex()
    with pytest.raises(NotSimplicial, match="setwise but not pointwise"):
        chain_action(cp2, act)
    # simplicial, regular and orientation preserving once subdivided
    m, sd_act = barycentric_subdivide(cp2, act)
    assert chain_action(m, sd_act).is_signed_permutation


def _flipped(m):
    return OrientedSimplicialManifold(m.facets, tuple(-s for s in m.signs))


_ROUTE_CASES = {
    "cp2": lambda: (cp2_nine_vertex(), None),
    "cp2-flip": lambda: (_flipped(cp2_nine_vertex()), None),
    "s4": lambda: (simplex_sphere(4), None),
    "octahedron-z4": lambda: barycentric_subdivide(octahedron(), octahedron_rotation()),
    "octahedron-rot24": lambda: barycentric_subdivide(
        octahedron(), octahedron_rotation_group()
    ),
}


def _morse_hp(m, chains, rho=None):
    """The Morse complex of a triangulation, with its transported duality and
    its action when ``rho`` is given, laid out from their degree blocks as a
    :class:`HilbertPoincareComplex`: the complex whose ``B + S`` the route
    read off the integer arrays diagonalises."""
    morse = reduce.morse_complex(chains, simplicial._roots(m.dim), rho)
    s, at, n = morse.duality, np.cumsum((0, *morse.dims)), m.dim

    def block(x, r, c):
        return x[at[r] : at[r + 1], at[c] : at[c + 1]]

    chain = ChainComplex(morse.dims, tuple(block(morse.boundary, k - 1, k) for k in range(1, n + 1)))
    dual = DualityOperator(tuple(block(s, k, n - k) for k in range(n + 1)))
    return HilbertPoincareComplex(chain, dual, morse.action)


@pytest.mark.parametrize("name", sorted(_ROUTE_CASES))
def test_shared_route_matches_the_public_route(name):
    m, act = _ROUTE_CASES[name]()
    chains = m.chains
    rho = chain_action(m, act) if act is not None else None
    shared = manifold_signature(m, act)
    public = check_coincidence(to_hp_complex(m, act))
    # the spectra are those of the Morse complex, with its action
    morse = _morse_hp(m, chains, rho)
    spectral = check_coincidence(morse)
    assert shared.passed and public.passed and spectral.passed
    assert [r.method for r in shared.results] == [r.method for r in public.results]
    for a, b, c in zip(shared.results, public.results, spectral.results):
        assert a.k0.values == b.k0.values == c.k0.values
        assert a.spectral_gap == c.spectral_gap
    assert shared.max_character_difference == public.max_character_difference
    assert shared.grading_conjugation_residual == public.grading_conjugation_residual == 0.0
    # the CapReport of the route read off the integer arrays, against every
    # float gate of the public check on the laid-out blocks, and its cone
    # value against that of the Morse complex, which the public check reads
    # over the trivial group and the route, with an action, block by block
    exact = duality_operator(m, rho=rho)[1]
    floated = verify_duality(to_hp_complex(m, act))
    assert exact.passed and floated.passed and floated.chain_residual == 0.0
    reduced = verify_duality(morse).cone_min_singular_value
    if act is None:
        assert exact.cone_min_singular_value == reduced
    else:
        assert abs(exact.cone_min_singular_value - reduced) <= 1e-12


_CAP_TRIPLES = simplicial.SimplicialChainData.cap_triples.func


def _moved_cap_triples(chains):
    """The cap triples with the first front face of the middle degree moved
    to the next simplex: the dense cap and the integer arrays that the exact
    gates read both change."""
    triples = list(_CAP_TRIPLES(chains))
    k = len(triples) // 2
    back, front = triples[k]
    front = front.copy()
    front[0] = (front[0] + 1) % chains.dims[len(triples) - 1 - k]
    triples[k] = (back, front)
    return tuple(triples)


@pytest.mark.parametrize(
    "name, build, error, message",
    [
        ("odd", lambda: circle_polygon(5), OddDimension,
         "signature constructions need even top degree, got 1"),
        ("boundary", lambda: simplex_disk(2), PreconditionViolated,
         "duality_operator needs a closed manifold; "
         "manifolds with boundary use bordism_to_cwb"),
        ("chain-map", cp2_nine_vertex, DegenerateDuality,
         "duality does not anticommute with the boundary on the integer arrays"),
    ],
)
def test_shared_route_fails_as_the_public_route(name, build, error, message):
    m = build()
    if name == "chain-map":
        # the moved cap triple fails the chain condition exactly, which both
        # routes decide on the integer arrays and refuse
        m.chains.cap_triples = _moved_cap_triples(m.chains)
    with pytest.raises(error) as shared:
        manifold_signature(m)
    with pytest.raises(error) as public:
        check_coincidence(to_hp_complex(m))
    assert str(shared.value) == str(public.value) == message


_EXACT_CASES = {
    "cp2": lambda: (cp2_nine_vertex(), None),
    "cp2-flip": lambda: (_flipped(cp2_nine_vertex()), None),
    "sphere-pair-swap": lambda: (disjoint_sphere_pair(), sphere_swap_action()),
    "octahedron-z4": lambda: (octahedron(), octahedron_rotation()),
    "octahedron-sd-z4": lambda: barycentric_subdivide(octahedron(), octahedron_rotation()),
    "octahedron-sd-rot24": lambda: barycentric_subdivide(
        octahedron(), octahedron_rotation_group()
    ),
    "cp2-s3": cp2_triple_s3,
    "s4": lambda: (simplex_sphere(4), None),
    # odd degree: B - S is laid out and diagonalised too
    "s3": lambda: (simplex_sphere(3), None),
}

@pytest.mark.parametrize("name", sorted(_EXACT_CASES))
def test_exact_gates_agree_with_the_float_gates(name):
    m, act = _EXACT_CASES[name]()
    chains = m.chains
    rho = chain_action(m, act) if act is not None else None
    failed = simplicial._exact_identities(chains, rho, simplicial._cap_entries(chains, rho)[0])
    # every identity holds exactly, so the duality check runs no float gate
    assert failed is None
    cap = simplicial._closed_duality(m, 1e-9, rho)
    hp = HilbertPoincareComplex(chains.chain, cap.dual, rho)
    # the float gates pass on the same complex
    plain = verify_duality(HilbertPoincareComplex(hp.chain, DualityOperator(hp.duality.blocks), rho))
    assert plain.failures == () and plain.action_residual == 0.0
    # B + S and B - S are those of the Morse complex with its action, whose
    # totals they are bit for bit, zero signs included, and so are their
    # eigenvalues over the group, and the cone value
    spectral = _morse_hp(m, chains, rho)
    b, s = spectral.total_boundary(), spectral.total_duality()
    totals = complexes._hermitian_halves(b, s, s - adjoint(s))
    reduced = reduce.reduced_halves(reduce.morse_complex(chains, cap.roots, rho))
    assert (reduced[1] is None) == (m.dim % 2 == 0)
    for got, want in zip(reduced, totals):
        if got is not None:
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
    halves = complexes._diagonalise_halves(*totals, m.dim, 1e-9, spectral.action)
    for got, want in zip(cap.halves, halves):
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert got.block_ranks == want.block_ranks
    phased = _phased(m, chains)
    if rho is not None:
        phased = _dense_group_average(phased, rho)
    raw = verify_duality(HilbertPoincareComplex(hp.chain, DualityOperator(tuple(phased))))
    assert raw.chain_residual == plain.chain_residual == 0.0
    least = complexes._halves_invertibility(*halves, 1e-9)[1]
    assert cap.report.cone_min_singular_value == least
    # and it is the plain check's cone value of the complex diagonalised
    reference = verify_duality(spectral)
    assert reference.passed and reference.action_residual == 0.0
    assert abs(cap.report.cone_min_singular_value - reference.cone_min_singular_value) <= 1e-12
    assert cap.report.passed == plain.passed
    # the diagnostic symmetrization residual, from the blocks, against the
    # totals: the same sum of squares, exact unless the average divides by
    # an order that is not a power of two
    want = np.linalg.norm(DualityOperator(tuple(phased)).total(hp.chain) - hp.total_duality())
    order = 1 if rho is None else rho.group.order
    if order & (order - 1) == 0:
        assert cap.report.symmetrization_residual == want
    else:
        assert abs(cap.report.symmetrization_residual - want) <= 1e-14 * want


def _dense_group_average(blocks, rho):
    """The group average of a duality family under conjugation by the
    action, by dense conjugations: the reference for the average that the
    simplicial layer reads off the cap entries."""
    n, order = len(blocks) - 1, rho.group.order
    return [
        sum(adjoint(rho.degree(g, k)) @ blocks[k] @ rho.degree(g, n - k) for g in range(order)) / order
        for k in range(n + 1)
    ]


def _circle_rotation():
    """The square with its Z/4 rotation: a one-dimensional case, whose
    ``B - S`` is not the mirror of ``B + S``."""
    act = tuple({v: (v + k) % 4 for v in range(4)} for k in range(4))
    return circle_polygon(4), SimplicialAction(FiniteGroup.cyclic(4), act)


_ACTION_CASES = {
    "octahedron-z4": lambda: (octahedron(), octahedron_rotation()),
    "octahedron-sd-z4": lambda: barycentric_subdivide(octahedron(), octahedron_rotation()),
    "octahedron-sd-rot24": lambda: barycentric_subdivide(octahedron(), octahedron_rotation_group()),
    "sphere-pair-swap": lambda: (disjoint_sphere_pair(), sphere_swap_action()),
    "cp2-triple-s3": cp2_triple_s3,
    "circle-z4": _circle_rotation,
}


@pytest.mark.parametrize("name", sorted(_ACTION_CASES))
def test_the_cap_entries_give_the_dense_route_s_blocks_and_compressions(name):
    m, act = _ACTION_CASES[name]()
    chains = m.chains
    rho = chain_action(m, act)
    assert rho.is_signed_permutation
    # the group average read off the cap entries is the dense one, up to
    # the sign of zero
    cap, count = simplicial._cap_entries(chains, rho)
    roots = simplicial._roots(m.dim)
    phased = simplicial._cap_blocks(chains, cap, count, roots)
    dense = _dense_group_average(_phased(m, chains), rho)
    for got, want in zip(phased, dense):
        assert got.dtype == want.dtype and np.array_equal(got + 0.0, want + 0.0)
    hp = HilbertPoincareComplex(chains.chain, DualityOperator(simplicial._symmetrize(phased)), rho)
    # the Morse complex's duality is the compression pi S pi^T of the dense
    # one, up to the rounding of the average, and its action rho' is rho on
    # the critical simplices, so its classes are the dense route's
    morse = reduce.morse_complex(chains, roots, rho)
    pi = morse.projection
    s = hp.total_duality()
    assert np.abs(morse.duality - pi @ s @ pi.T).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(s).max())
    for g in range(rho.group.order):
        assert np.array_equal(pi @ rho.total(g), morse.action.total(g) @ pi)
    reduced = _morse_hp(m, chains, rho)
    assert verify_duality(reduced).passed and verify_duality(hp).passed
    if m.dim % 2 == 0:
        classes = [check_coincidence(x).results for x in (reduced, hp)]
        for a, b in zip(*classes):
            assert a.k0.multiplicities == b.k0.multiplicities


def _half_of_blocks(hp, sign):
    """``B + sign S`` laid out from the degree blocks of ``b``, ``b^*`` and
    ``S``, added in that order: the reference for the entries that the
    simplicial layer reads off the integer arrays."""
    n, bnds = hp.n, hp.chain.boundaries
    blocks = [(k - 1, k, x) for k, x in enumerate(bnds, start=1)]
    blocks += [(k, k - 1, adjoint(x)) for k, x in enumerate(bnds, start=1)]
    blocks += [(k, n - k, x if sign > 0 else -x) for k, x in enumerate(hp.duality.blocks)]
    return linalg.assemble_total(hp.dims, hp.dims, blocks)


# every closed triangulation fixture, with its action where it has one
_HALF_CASES = {
    **_EXACT_CASES,
    "circle-z4": _circle_rotation,
    "point": lambda: (OrientedSimplicialManifold(((0,),), (1,)), None),
}
_ACTING = sorted(set(_HALF_CASES) - {"cp2", "cp2-flip", "s3", "s4", "point"})


@pytest.mark.parametrize(
    "name, acting",
    [(name, False) for name in sorted(_HALF_CASES)] + [(name, True) for name in _ACTING],
)
def test_b_plus_minus_s_read_off_the_integer_arrays_are_the_block_layout(name, acting):
    m, act = _HALF_CASES[name]()
    chains = m.chains
    rho = chain_action(m, act) if acting else None
    halves = reduce.reduced_halves(reduce.morse_complex(chains, simplicial._roots(m.dim), rho))
    assert (halves[1] is None) == (m.dim % 2 == 0)
    hp = _morse_hp(m, chains, rho)
    for sign, h in zip((1.0, -1.0), halves):
        if h is None:
            continue
        # the matrix of the Morse complex's blocks, zero signs included
        want = _half_of_blocks(hp, sign)
        assert h.dtype == want.dtype and np.array_equal(h, want)
        assert np.array_equal(np.signbit(h.view(np.float64)), np.signbit(want.view(np.float64)))


@pytest.mark.parametrize("name", sorted(set(_ACTION_CASES) - {"circle-z4"}) + ["cp2"])
def test_the_action_route_lays_out_no_n_wide_operator(
    name, monkeypatch, tmp_path, capsys, count_calls
):
    m, act = _ACTION_CASES[name]() if name in _ACTION_CASES else (cp2_nine_vertex(), None)
    want = manifold_signature(m, act)
    chains = m.chains
    width = sum(chains.dims)

    def refuse(*args):
        raise AssertionError("an N-wide operator or a degree block was laid out")

    # no dense degree block of b or S, and no dense block or isotypic basis
    # of the triangulation's action: only those of the Morse complex, on its
    # critical simplices
    monkeypatch.setattr(simplicial.SimplicialChainData, "chain", property(refuse))
    for helper in ("_cap_blocks", "_symmetrize"):
        monkeypatch.setattr(simplicial, helper, refuse)
    blocks = GroupAction.blocks.fget
    monkeypatch.setattr(
        GroupAction, "blocks", property(lambda self: refuse() if sum(self.dims) == width else blocks(self))
    )
    widths = []
    for solver in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, solver)
        monkeypatch.setattr(
            np.linalg, solver, lambda a, *args, real=real: widths.append(a.shape[-1]) or real(a, *args)
        )
    layouts = count_calls(complexes, ("assemble_total",))
    tracemalloc.start()
    try:
        rep = manifold_signature(m, act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and want.passed
    for got, expected in zip(rep.results, want.results):
        assert got.k0.multiplicities == expected.k0.multiplicities
    # every eigensolve is on the Morse complex, and where an N x N float64
    # array would outweigh the route's arrays, which are at most critical
    # simplices x simplices, none was allocated
    assert 0 < max(widths) < width
    if width * width * 8 > 2**18:
        assert peak < width * width * 8
    path = str(tmp_path / f"{name}.smf")
    write_smf(m, path, act)
    assert main(["manifold", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert layouts == {"assemble_total": 0}


def test_an_action_that_does_not_compose_exactly_is_refused(monkeypatch):
    # the square's four rotations labelled by Z/2 x Z/2: no quarter turn is
    # an involution, so the chain action is refused at every tolerance, with
    # the exact residual of the first product that fails
    klein = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    turns = tuple({v: (v + k) % 4 for v in range(4)} for k in range(4))
    for tol in (1e-9, 3.0):
        with pytest.raises(NotRepresentation) as exc:
            chain_action(circle_polygon(4), SimplicialAction(klein, turns), tol=tol)
        assert str(exc.value) == (
            "homomorphism fails for elements (1, 1) at degree 0: residual 2.000e+00"
        )
    # every action that chain_action returns composes exactly, so its
    # identities are decided on the group's generators
    m, act = barycentric_subdivide(octahedron(), octahedron_rotation_group())
    chains = m.chains
    rho = chain_action(m, act)
    cap = simplicial._cap_entries(chains, rho)[0]
    seen = set()
    dst, sign = rho._images

    class Rows(np.ndarray):  # records the element of each row it is read at
        def __getitem__(self, key):
            seen.add(int(key[0] if isinstance(key, tuple) else key))
            return np.asarray(self)[key]

    monkeypatch.setattr(rho, "_images", (dst.view(Rows), sign.view(Rows)))
    assert simplicial._exact_identities(chains, rho, cap) is None
    assert seen == set(rho.group.generators) and len(seen) < rho.group.order - 1


def test_the_action_gate_reads_the_boundary_half(monkeypatch):
    # one flipped sign of a generator on an edge breaks rho(g) b = b rho(g),
    # which the boundary entries alone decide, before any cap entry is read
    m, act = barycentric_subdivide(octahedron(), octahedron_rotation())
    chains = m.chains
    rho = chain_action(m, act)
    dst, sign = rho._images
    g = rho.group.generators[0]
    flipped = sign.copy()
    flipped[g, chains.dims[0]] *= -1
    bad = GroupAction._from_images(rho.group, rho.dims, dst, flipped, rho.tol)
    bnd = simplicial._boundary_entries(chains)
    assert simplicial._action_commutes(chains, rho, [], bnd)
    assert not simplicial._action_commutes(chains, bad, [], bnd)
    monkeypatch.setattr(simplicial, "chain_action", lambda *args, **kwargs: bad)
    with pytest.raises(EquivarianceViolated) as exc:
        verify_equivariance(m, act)
    assert str(exc.value) == (
        "action does not commute with the structure maps on the integer arrays"
    )


def test_the_cap_is_averaged_over_signed_permutations_only():
    m, act = barycentric_subdivide(octahedron(), octahedron_rotation())
    chains = m.chains
    rho = chain_action(m, act)
    rng = np.random.default_rng(5)
    twisted = rho.conjugated([random_unitary(rng, d) for d in rho.dims])
    with pytest.raises(PreconditionViolated, match="signed permutations"):
        duality_operator(m, rho=twisted)


def _moved_face(chains):
    """Move the first face of the first 2-simplex to the next edge: ``b b``
    and the chain condition then fail exactly, on the face arrays and on the
    dense boundary, which is laid out from them."""
    assert "chain" not in vars(chains)
    chains.faces[2][0, 0] = (chains.faces[2][0, 0] + 1) % chains.dims[1]


def _swapped_face_columns(chains):
    """Swap the first two faces of the first top simplex: its face set
    stays the same, but the two faces change signs, so ``b b`` fails in the
    degree below the top."""
    assert "chain" not in vars(chains)
    top = chains.faces[-1]
    top[0, [0, 1]] = top[0, [1, 0]]


@pytest.mark.parametrize("broken", ["cap-triple", "face-index", "face-columns"])
def test_an_identity_that_fails_exactly_is_refused(broken):
    m = cp2_nine_vertex()
    chains = m.chains
    if broken == "cap-triple":
        chains.cap_triples = _moved_cap_triples(chains)
    if broken == "face-index":
        _moved_face(chains)
    if broken == "face-columns":
        _swapped_face_columns(chains)
        # the fundamental cycle reads the same face arrays and refuses them
        # first; below, the cap is laid out and refused past it
        with pytest.raises(IncoherentOrientation):
            duality_operator(m)
    raw = simplicial._cap_entries(chains, None)[0]
    failed = simplicial._exact_identities(chains, None, raw)
    # the public float gates on the laid-out blocks catch the same fault
    if broken == "face-columns":
        phased = simplicial._cap_blocks(chains, raw, 1, simplicial._roots(m.dim))
    else:
        phased = _phased(m, chains)
    hp = HilbertPoincareComplex(chains.chain, DualityOperator(simplicial._symmetrize(phased)))
    rep = verify_duality(hp)
    assert "duality does not anticommute with the boundary" in rep.failures
    assert rep.chain_residual > 0.1
    if broken != "cap-triple":
        assert failed == "boundary_residual"
        assert "boundary squares to a nonzero operator" in rep.failures
    else:
        assert failed == "chain_residual"
    with pytest.raises(DegenerateDuality) as exc:
        if broken == "face-columns":
            simplicial._duality_from_cap(chains, DEFAULT_TOL, None)
        else:
            duality_operator(m)
    assert str(exc.value) == f"{complexes._DUALITY_FAILURES[failed]} on the integer arrays"


def test_b_b_is_decided_column_by_column():
    # the boundary of the triangle [0, 1, 2]: edges (0, 1), (0, 2), (1, 2)
    edges = np.array([[1, 0], [2, 0], [2, 1]])
    faces = [np.zeros((3, 0), np.intp), edges, np.array([[2, 1, 0]])]
    assert simplicial._squares_to_zero(faces, 1)
    # two columns of b_1 b_2 that are nonzero but sum to zero are refused
    faces[2] = np.array([[2, 1, 0], [0, 1, 0], [2, 1, 2]])
    assert not simplicial._squares_to_zero(faces, 1)


def test_vanishes_compares_the_entries_as_signed_multisets():
    rows, cols = np.array([0, 0, 0]), np.array([1, 1, 1])
    assert simplicial._vanishes(rows, cols, np.array([2, -1, -1]), 3)
    assert not simplicial._vanishes(rows[:2], cols[:2], np.array([2, -1]), 3)
    assert simplicial._vanishes(rows[:0], cols[:0], np.zeros(0, np.int64), 3)
    assert simplicial._vanishes(rows[:2], cols[:2], np.array([0, 0]), 3)
    # entries at two different positions never cancel, nor do those given in
    # ``more``: (0, 1) and (1, 0) are different positions of a wide matrix
    assert not simplicial._vanishes(np.array([0, 1]), np.array([1, 0]), np.array([1, -1]), 3)
    one = (rows[:1], cols[:1], np.array([1]))
    assert not simplicial._vanishes(*one, 3, (np.array([1]), np.array([0]), np.array([-1])))
    assert simplicial._vanishes(*one, 3, (rows[:1], cols[:1], np.array([-1])))


def test_the_manifold_command_refuses_an_identity_that_fails_exactly(
    tmp_path, capsys, monkeypatch
):
    cp2, octa = str(tmp_path / "cp2.smf"), str(tmp_path / "octahedron-z4.smf")
    write_smf(cp2_nine_vertex(), cp2)
    write_smf(octahedron(), octa, octahedron_rotation())
    with monkeypatch.context() as patch:
        patch.setattr(
            simplicial.SimplicialChainData, "cap_triples", property(_moved_cap_triples)
        )
        assert main(["manifold", cp2]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "degenerate: duality does not anticommute with the boundary on the integer arrays\n"
    # an unaveraged cap does not commute with the quarter turn
    entries = simplicial._cap_entries
    monkeypatch.setattr(simplicial, "_cap_entries", lambda chains, rho: entries(chains, None))
    assert main(["manifold", octa, "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "failure: action does not commute with the structure maps on the integer arrays\n"
    )


def _relabelled(m, act, seed):
    """The triangulation and its action pushed forward along the seed's
    random vertex bijection, carrying the orientation (the benchmark's
    relabelling)."""
    verts = list(m.vertices)
    perm = dict(zip(verts, (verts[i] for i in np.random.default_rng(seed).permutation(len(verts)))))
    facets = [[perm[v] for v in f] for f in m.facets]
    signs = [s * simplicial._parities(np.array(f)) for f, s in zip(facets, m.signs)]
    moved = OrientedSimplicialManifold.from_facets(facets, [int(s) for s in signs])
    if act is None:
        return moved, None
    inverse = {w: v for v, w in perm.items()}
    maps = tuple({w: perm[vm[inverse[w]]] for w in inverse} for vm in act.vertex_maps)
    return moved, SimplicialAction(act.group, maps)


_CLOSED_FIXTURES = {
    "circle": lambda: (circle_polygon(5), None),
    "s2": lambda: (simplex_sphere(2), None),
    "s3": lambda: (simplex_sphere(3), None),
    "s4": lambda: (simplex_sphere(4), None),
    "cp2": lambda: (cp2_nine_vertex(), None),
    "octahedron-z4": lambda: (octahedron(), octahedron_rotation()),
    "octahedron-sd-rot24": lambda: barycentric_subdivide(octahedron(), octahedron_rotation_group()),
    "octahedron-sd-z4": lambda: barycentric_subdivide(octahedron(), octahedron_rotation()),
    "sphere-pair-swap": lambda: (disjoint_sphere_pair(), sphere_swap_action()),
    "cp2-s3": cp2_triple_s3,
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FIXTURES))
def test_the_refusal_never_fires_on_valid_input(name):
    base, base_act = _CLOSED_FIXTURES[name]()
    for seed in range(10):
        m, act = _relabelled(base, base_act, seed)
        for oriented in (m, _flipped(m)):
            chains = oriented.chains
            rhos = [None] if act is None else [None, chain_action(oriented, act)]
            for rho in rhos:
                cap = simplicial._cap_entries(chains, rho)[0]
                assert simplicial._exact_identities(chains, rho, cap) is None


def test_chain_action_checks_the_homomorphism_on_the_vertex_maps(monkeypatch):
    calls = []
    check = GroupAction._check_images
    monkeypatch.setattr(GroupAction, "_check_images", lambda self: calls.append(1) or check(self))
    chain_action(*barycentric_subdivide(octahedron(), octahedron_rotation_group()))
    assert calls == []
    # a rotation of the triangle's vertices is not an involution: the vertex
    # maps fail, and the chain-level check names the first failure as before
    m = circle_polygon(3)
    act = SimplicialAction(
        FiniteGroup.cyclic(2), ({v: v for v in range(3)}, {v: (v + 1) % 3 for v in range(3)})
    )
    with pytest.raises(NotRepresentation) as exc:
        chain_action(m, act)
    assert calls == [1]
    assert str(exc.value) == "homomorphism fails for elements (1, 1) at degree 0: residual 1.732e+00"


def test_the_refusal_of_a_labelling_lays_out_only_the_blocks_it_names():
    # S_3's elements 1 and 2 with their vertex maps swapped: the message and
    # residual are read off the degree-0 blocks of 1, 2 and their product,
    # not off every element's dense blocks (7.6 MiB on this input)
    m, act = cp2_triple_s3()
    maps = list(act.vertex_maps)
    maps[1], maps[2] = maps[2], maps[1]
    chains = m.chains
    chains.cap_triples  # located before the measurement
    tracemalloc.start()
    try:
        with pytest.raises(NotRepresentation) as exc:
            chain_action(m, SimplicialAction(act.group, tuple(maps)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "homomorphism fails for elements (1, 2) at degree 0: residual 1.732e+00"
    assert peak < 1 << 20
