"""Tests for the three signature constructions and their coincidence."""

import json

import numpy as np
import pytest

from hpsig import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    barycentric_subdivide,
    boundary_signature_is_zero,
    chain_action,
    check_coincidence,
    direct_sum,
    doubled_duality_cone,
    generate_with_boundary,
    generate_with_signature,
    higson_roe_signature,
    adjoint,
    k0_equal,
    k0_from_projections,
    mishchenko_signature,
    opposite,
    OrientedSimplicialManifold,
    random_unitary,
    reduced_signature,
    spectral_split,
    to_hp_complex,
    twist,
    verify_duality,
    verify_equivariance,
    write_smf,
)
from hpsig import complexes, groups, linalg, reduce, signature, simplicial
from hpsig.cli import main
from hpsig.simplicial import manifold_signature
from hpsig.errors import DegenerateOperator, EquivarianceViolated, NotSelfAdjoint, OddDimension
from hpsig.fixtures import (
    cp2_nine_vertex,
    cp2_triple_s3,
    disjoint_sphere_pair,
    model_even_sphere,
    model_projective_plane,
    octahedron,
    octahedron_rotation,
    octahedron_rotation_group,
    simplex_sphere,
    sphere_swap_action,
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


@pytest.mark.parametrize(
    "construct",
    [higson_roe_signature, mishchenko_signature, reduced_signature, check_coincidence],
)
def test_every_construction_gates_self_adjointness(construct):
    hp = model_projective_plane()
    hp.duality.blocks[0][...] += 1e-3
    with pytest.raises(NotSelfAdjoint) as exc_info:
        construct(hp)
    assert str(exc_info.value) == (
        "operator is not self-adjoint: |h - h*| = 1.000e-03 exceeds tol"
    )


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


@pytest.mark.parametrize(
    "profile", [f"n{n}{g}-d{d}" for g, d in (("", 4), ("-z2", 4), ("-z3", 3), ("-z4", 4))
                for n in (0, 2, 4)]
)
def test_the_grading_identity_holds_entry_for_entry(profile):
    # in even degree b and S share no entry, so phi (B - S) phi = -(B + S)
    # holds to the bit, and check_coincidence reports its residual as 0.0
    for seed in range(4):
        hp = generate_with_signature(seed, profile)[0]
        _, _, plus, minus = signature._operators(hp, 1e-9)
        signs = hp.degree_signs()
        assert np.array_equal(signs[:, None] * minus * signs, -plus)
        assert check_coincidence(hp).grading_conjugation_residual == 0.0


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


def test_coincidence_is_decided_on_the_integer_multiplicities():
    group = groups.FiniteGroup.cyclic(2)
    both = vars(linalg.classify_eigenvalues(np.array([2.0, 1.0, -1.0, -3.0])))

    def halves(plus_ranks, minus_ranks):
        return tuple(linalg.BlockSpectrum(**both, block_ranks=r) for r in (plus_ranks, minus_ranks))

    agree = signature._coincidence(2, group, halves(((1, 1), (1, 1)), ((1, 1), (1, 1))), 1e-9)
    assert agree.passed and agree.max_character_difference == 0.0
    # Higson-Roe counts the positive eigenvalues of both halves in each
    # block, Mishchenko and reduced the signs of B + S
    split = signature._coincidence(2, group, halves(((2, 0), (0, 2)), ((1, 1), (1, 1))), 1e-9)
    assert [r.k0.multiplicities for r in split.results] == [(1, -1), (2, -2), (2, -2)]
    assert not split.passed and split.max_character_difference == 2.0


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

    # the cone's spectrum is classified from the halves B + S_h and B - S_h
    # on every input, also where S is self-adjoint only up to rounding
    # (n4-z4-d4), and the full cone operator is not diagonalised; over the
    # trivial group the halves are spectra, and only B + S_h is diagonalised
    # (B - S_h is its mirror under the grading)
    monkeypatch.setattr(signature, "classify_eigenvalues", record(signature.classify_eigenvalues))
    monkeypatch.setattr(complexes, "classify_eigenvalues", record(complexes.classify_eigenvalues))
    mishchenko_signature(hp)
    cone = seen[-1]
    assert len(seen) == (2 if hp.action is None else 1)
    full = spectrum(doubled_duality_cone(hp).operator)
    assert cone.eigenvalues.size == full.eigenvalues.size
    assert (cone.rank_plus, cone.rank_minus, cone.rank_zero) == (
        full.rank_plus, full.rank_minus, full.rank_zero
    )
    assert abs(cone.min_abs_nonzero_eigenvalue - full.min_abs_nonzero_eigenvalue) <= 1e-12


def test_eigensolve_budget(monkeypatch, tmp_path, capsys, count_calls):
    cp2 = cp2_nine_vertex()
    path = str(tmp_path / "octahedron-z4.smf")
    m, act = barycentric_subdivide(octahedron(), octahedron_rotation())
    write_smf(m, path, act)
    cp2_hp = to_hp_complex(cp2)
    octa = to_hp_complex(m, act)
    s3 = to_hp_complex(simplex_sphere(3))
    cwb = generate_with_boundary(2, "n4-d6")
    # the isotypic block widths of the full complex and of its Morse complex
    blocks = sorted(q.shape[1] for q in octa.action.isotypic_bases)
    chains = m.chains
    rho = simplicial.chain_action(m, act)
    morse = reduce.morse_complex(chains, simplicial._roots(m.dim), rho)
    reduced = sorted(q.shape[1] for q in morse.action.isotypic_bases)
    solves = count_calls(np.linalg, ("eigh", "eigvalsh"))
    widths = []
    counted = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        widths.append(a.shape[0])
        return counted(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    cones = count_calls(complexes, ("mapping_cone",))
    boundaries = count_calls(complexes.ChainComplex, ("total_boundary",))
    totals = count_calls(complexes.DualityOperator, ("total",))
    layouts = count_calls(complexes, ("assemble_total",))
    # B + S once, in the duality check, eigenvalues only; B - S is its mirror
    # under the grading, and both are read again by the constructions; no
    # cone; the structural identities are decided on the integer arrays, so
    # no total b, phased or symmetrized cap, and B + S is read off them and
    # laid out from its entries, with no block layout
    assert manifold_signature(cp2).passed
    assert solves == {"eigh": 0, "eigvalsh": 1}
    assert cones == {"mapping_cone": 0}
    assert boundaries == {"total_boundary": 0}
    assert totals == {"total": 0}
    assert layouts == {"assemble_total": 0}
    solves.update(eigh=0, eigvalsh=0)
    # check_coincidence alone diagonalises B + S once, shared by all three
    # constructions: eigenvalues only over the trivial group, and with a group
    # whose action commutes exactly one eigvalsh per irreducible character,
    # each as wide as the character's isotypic block
    assert check_coincidence(cp2_hp).passed
    assert solves == {"eigh": 0, "eigvalsh": 1}
    solves.update(eigh=0, eigvalsh=0)
    widths.clear()
    assert check_coincidence(octa).passed
    assert solves == {"eigh": 0, "eigvalsh": 4}
    assert sorted(widths) == blocks == [36, 36, 36, 38]
    assert cones == {"mapping_cone": 0}
    solves.update(eigh=0, eigvalsh=0)
    widths.clear()
    # the manifold command hands the duality check's block spectra on: those
    # of the Morse complex, whose isotypic bases take one eigh per degree
    assert main(["manifold", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert solves == {"eigh": 3, "eigvalsh": 4}
    assert sorted(widths) == reduced == [2, 2, 2, 4]
    assert cones == {"mapping_cone": 0}
    solves.update(eigh=0, eigvalsh=0)
    widths.clear()
    # the equivariance check decides its commutators on the integer arrays
    verify_equivariance(m, act)
    assert solves == {"eigh": 0, "eigvalsh": 0}
    assert widths == []
    solves.update(eigh=0, eigvalsh=0)
    # the boundary class reuses the boundary complex's duality check
    assert boundary_signature_is_zero(cwb).passed
    assert solves == {"eigh": 0, "eigvalsh": 1}
    solves.update(eigh=0, eigvalsh=0)
    # in odd top degree the grading does not relate B + S and B - S, and both
    # are diagonalised
    assert verify_duality(s3).passed
    assert solves == {"eigh": 0, "eigvalsh": 2}
    solves.update(eigh=0, eigvalsh=0)
    widths.clear()
    # a duality that is self-adjoint only up to rounding takes the same route:
    # B + S once, 4 wide, and no cone
    rounded = generate_with_signature(2, "n2-d4")[0]
    s = rounded.total_duality()
    assert not np.array_equal(s, adjoint(s))
    assert check_coincidence(rounded).passed
    assert solves == {"eigh": 0, "eigvalsh": 1}
    assert widths == [4]
    assert cones == {"mapping_cone": 0}


def _flipped(m):
    return OrientedSimplicialManifold(m.facets, tuple(-s for s in m.signs))


def _forbid_the_projection_route(monkeypatch):
    """Record every call of ``spectral_split`` and ``k0_from_projections``
    through their modules from here on; returns the list of calls."""
    calls = []
    for module, name in ((linalg, "spectral_split"), (groups, "k0_from_projections")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: calls.append(name))
    return calls


def _four_entry_points(hp):
    """The classes of the three constructions, alone and in the coincidence
    check, by method."""
    rep = check_coincidence(hp)
    assert rep.passed and rep.max_character_difference == 0.0
    alone = [f(hp) for f in (higson_roe_signature, mishchenko_signature, reduced_signature)]
    return [*rep.results, *alone]


def _assert_integer_classes(results, group):
    for r in results:
        m_chi = r.k0.multiplicities
        assert all(type(x) is int for x in m_chi)
        assert r.k0.values == tuple(np.asarray(m_chi) @ group.characters)


@pytest.mark.parametrize("name", ["cp2", "cp2-flip", "s4", "n0", "n2", "n4"])
def test_inertia_classes_match_the_projection_classes(name, monkeypatch):
    if name.startswith("cp2"):
        m = cp2_nine_vertex()
        hp = to_hp_complex(_flipped(m) if name == "cp2-flip" else m)
    elif name == "s4":
        hp = to_hp_complex(simplex_sphere(4))
    else:
        hp = generate_with_signature(3, name)[0]
    assert hp.action is None
    b = hp.total_boundary()
    big_b, s = b + adjoint(b), hp.total_duality()
    plus, minus = spectral_split(big_b + s), spectral_split(big_b - s)
    compression = spectral_split(doubled_duality_cone(hp).plus)
    want = {
        "higson-roe": k0_from_projections(plus.p_plus, minus.p_plus),
        "mishchenko": k0_from_projections(compression.p_plus, compression.p_minus),
        "reduced": k0_from_projections(plus.p_plus, plus.p_minus),
    }
    projections = _forbid_the_projection_route(monkeypatch)
    results = _four_entry_points(hp)
    assert projections == []
    for r in results:
        assert r.k0.group.same_group(want[r.method].group)
        assert r.k0.values == want[r.method].values
    # over the trivial group the one multiplicity is the inertia difference
    _assert_integer_classes(results, want["reduced"].group)


def _triangulation_with_action(name):
    if name == "octahedron-z4-coarse":
        return octahedron(), octahedron_rotation()
    if name == "octahedron-z4":
        return barycentric_subdivide(octahedron(), octahedron_rotation())
    if name == "octahedron-rot24":
        return barycentric_subdivide(octahedron(), octahedron_rotation_group())
    if name == "sphere-pair-swap":
        return disjoint_sphere_pair(), sphere_swap_action()
    return cp2_triple_s3()


def _projection_classes(hp):
    """The three classes by spectral projections, as before isotypic blocks."""
    b = hp.total_boundary()
    big_b, s = b + adjoint(b), hp.total_duality()
    plus, minus = spectral_split(big_b + s), spectral_split(big_b - s)
    return {
        "higson-roe": k0_from_projections(plus.p_plus, minus.p_plus, hp.action),
        "mishchenko": k0_from_projections(plus.p_plus, plus.p_minus, hp.action),
        "reduced": k0_from_projections(plus.p_plus, plus.p_minus, hp.action),
    }


def _twisted_rotations():
    """The subdivided octahedron with its 24 rotations, conjugated degree by
    degree by seeded random unitaries: a dense action with characters of
    degrees 1, 1, 2, 3 and 3."""
    hp = to_hp_complex(*barycentric_subdivide(octahedron(), octahedron_rotation_group()))
    rng = np.random.default_rng(24)
    return twist(hp, [random_unitary(rng, d) for d in hp.dims])


@pytest.mark.parametrize(
    "name",
    [
        "octahedron-z4-coarse",
        "octahedron-z4",
        "octahedron-rot24",
        "sphere-pair-swap",
        "cp2-s3",
        "n0-z2-d4/1",
        "n2-z2-d4/2",
        "n4-z3-d3/0",
        "n2-z3-d6/4",
        "n2-z4-d4/1",
        "n4-z4-d8/3",
        "octahedron-rot24-twisted",
    ],
)
def test_isotypic_classes_match_the_projection_classes(name, monkeypatch):
    if name == "octahedron-rot24-twisted":
        m, hp = None, _twisted_rotations()
    elif "/" in name:
        profile, seed = name.rsplit("/", 1)
        m, hp = None, generate_with_signature(int(seed), profile)[0]
    else:
        m, action = _triangulation_with_action(name)
        hp = to_hp_complex(m, action)
    # triangulations take the orbit route, generated and twisted complexes
    # the dense one
    assert hp.action.is_signed_permutation == (m is not None)
    want = _projection_classes(hp)
    projections = _forbid_the_projection_route(monkeypatch)
    results = _four_entry_points(hp)
    if m is not None:
        rep = manifold_signature(m, action)
        assert rep.passed and rep.max_character_difference == 0.0
        results.extend(rep.results)
    assert projections == []
    for r in results:
        assert np.abs(np.subtract(r.k0.values, want[r.method].values)).max() <= 1e-9
    _assert_integer_classes(results, hp.action.group)


def test_cp2_triple_s3_has_exact_integer_multiplicities():
    m, action = cp2_triple_s3()
    hp = to_hp_complex(m, action)
    group = hp.action.group
    assert hp.total_dim() == 765
    assert group.character_degrees == (1, 1, 2)
    # each simplex orbit carries the trivial and the two-dimensional character
    assert [q.shape[1] for q in hp.action.isotypic_bases] == [255, 0, 510]
    rep = manifold_signature(m, action)
    assert rep.passed
    for r in rep.results:
        # the trivial plus the standard character: (3, 1, 0) on the identity,
        # the transpositions and the 3-cycles, exactly
        assert r.k0.multiplicities == (1, 0, 1)
        assert r.k0.values == (3, 1, 0)


def test_inexactly_commuting_duality_keeps_the_integer_classes():
    m, action = barycentric_subdivide(octahedron(), octahedron_rotation())
    hp = to_hp_complex(m, action)
    blocks = [blk.copy() for blk in hp.duality.blocks]
    blocks[1][0, 0] += 1e-13  # within every gate, but no longer equivariant exactly
    moved = HilbertPoincareComplex(hp.chain, DualityOperator(tuple(blocks)), hp.action)
    rep = verify_duality(moved)
    assert rep.passed and 0.0 < rep.action_residual <= 1e-12
    # the off-block part of B + S moves no eigenvalue across the threshold
    for e, f in zip(_four_entry_points(hp), _four_entry_points(moved)):
        assert e.method == f.method
        assert f.k0.multiplicities == e.k0.multiplicities
        assert f.k0.values == e.k0.values


def _noncommuting(name, monkeypatch):
    """A complex whose action fails the duality check's action gate, and the
    triangulation it comes from (None for a generated complex)."""
    if name == "unaveraged-cap":
        # the coarse octahedron's rotation scrambles the vertex order, so the
        # phased cap commutes with it only after the group average; the
        # duality's blocks and the cap's entries, which the exact identities
        # read, are not averaged
        entries = simplicial._cap_entries
        monkeypatch.setattr(simplicial, "_cap_entries", lambda chains, rho: entries(chains, None))
        m, action = octahedron(), octahedron_rotation()
        chains = m.chains
        raw = entries(chains, None)[0]
        dual = simplicial._symmetrize(simplicial._cap_blocks(chains, raw, 1, simplicial._roots(2)))
        rho = chain_action(m, action)
        return HilbertPoincareComplex(chains.chain, DualityOperator(dual), rho), (m, action)
    hp = generate_with_signature(1, "n2-z3-d4")[0]
    rng = np.random.default_rng(3)
    moved = hp.action.conjugated([random_unitary(rng, d) for d in hp.dims])
    return HilbertPoincareComplex(hp.chain, hp.duality, moved), None


@pytest.mark.parametrize("name", ["unaveraged-cap", "conjugated-action"])
def test_actions_that_fail_the_duality_checks_action_gate_are_rejected(name, monkeypatch):
    hp, tri = _noncommuting(name, monkeypatch)
    rep = verify_duality(hp)
    assert rep.failures == ("action does not commute with the structure maps",)
    message = f"action does not commute with the structure maps: residual {rep.action_residual:.3e}"
    entry_points = [higson_roe_signature, mishchenko_signature, reduced_signature, check_coincidence]
    for construction in entry_points:
        with pytest.raises(EquivarianceViolated) as exc:
            construction(hp)
        assert str(exc.value) == message
    if tri is not None:
        # the triangulation's own route decides the commutator exactly and
        # refuses it
        with pytest.raises(EquivarianceViolated) as exc:
            manifold_signature(*tri)
        assert str(exc.value) == (
            "action does not commute with the structure maps on the integer arrays"
        )


def test_the_manifold_command_gates_each_element_once(monkeypatch, tmp_path, capsys):
    path = str(tmp_path / "octahedron-z4.smf")
    m, act = barycentric_subdivide(octahedron(), octahedron_rotation())
    write_smf(m, path, act)
    checks, elements = [], []
    gates, blocks = complexes._action_gates, complexes._commutator_blocks
    monkeypatch.setattr(complexes, "_action_gates", lambda *args: checks.append(1) or gates(*args))
    monkeypatch.setattr(
        complexes, "_commutator_blocks", lambda rho, g, x: elements.append(g) or blocks(rho, g, x)
    )
    assert main(["manifold", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True and payload["equivariance"]["passed"] is True
    # the duality check decides the action gate on the integer arrays, so no
    # float gate runs and no commutator is formed for it; the equivariance
    # report reads that verdict
    assert checks == [] and elements == []
