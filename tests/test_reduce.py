"""Tests for the Morse reduction of a triangulation's duality complex."""

import json

import numpy as np
import pytest

from hpsig import (
    DualityOperator,
    FiniteGroup,
    HilbertPoincareComplex,
    OrientedSimplicialManifold,
    SimplicialAction,
    barycentric_subdivide,
    chain_action,
    check_coincidence,
    duality_operator,
    enumerate_and_boundaries,
    manifold_signature,
    reduce,
    simplicial,
    to_hp_complex,
    verify_duality,
)
from hpsig.cli import main
from hpsig.errors import DegenerateDuality, OddDimension
from hpsig.fixtures import (
    circle_polygon,
    cp2_nine_vertex,
    cp2_triple_s3,
    disjoint_sphere_pair,
    octahedron,
    octahedron_rotation,
    octahedron_rotation_group,
    simplex_sphere,
    sphere_swap_action,
)
from hpsig.io import write_smf


def _flipped(m):
    return OrientedSimplicialManifold(m.facets, tuple(-s for s in m.signs))


def _parity(seq) -> int:
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def _relabel(m, perm):
    """The triangulation pushed forward along the vertex bijection ``perm``,
    carrying the orientation, so the class is unchanged (the benchmark's
    relabelling)."""
    pushed = []
    for f, s in zip(m.facets, m.signs):
        image = [perm[v] for v in f]
        pushed.append((tuple(sorted(image)), s * _parity(image)))
    pushed.sort()
    return OrientedSimplicialManifold(tuple(f for f, _ in pushed), tuple(s for _, s in pushed))


def _random_relabelling(m, seed):
    rng = np.random.default_rng(seed)
    verts = list(m.vertices)
    return dict(zip(verts, (verts[i] for i in rng.permutation(len(verts)))))


def _morse(chains):
    """The Morse complex of a triangulation with its transported cap."""
    return reduce.morse_complex(chains, simplicial._roots(len(chains.dims) - 1))


# every closed fixture without an action
_CLOSED = {
    "cp2": cp2_nine_vertex,
    "cp2-flip": lambda: _flipped(cp2_nine_vertex()),
    "s4": lambda: simplex_sphere(4),
    "octahedron": octahedron,
    "sphere-pair": disjoint_sphere_pair,
    "octahedron-sd": lambda: barycentric_subdivide(octahedron())[0],
    "cp2-triple": lambda: cp2_triple_s3()[0],
}


def _blocks(chains, morse):
    """The degree blocks of ``b`` and ``pi`` on the simplicial and Morse
    total spaces: the slices of each degree."""
    offsets, at = np.cumsum((0, *chains.dims)), np.cumsum((0, *morse.dims))
    return [slice(a, b) for a, b in zip(offsets, offsets[1:])], [
        slice(a, b) for a, b in zip(at, at[1:])
    ]


@pytest.mark.parametrize("name", sorted(_CLOSED) + ["s3", "circle"])
def test_certificates_hold_exactly(name):
    m = {"s3": lambda: simplex_sphere(3), "circle": lambda: circle_polygon(5), **_CLOSED}[name]()
    chains = m.chains
    morse = _morse(chains)
    b, pi = chains.chain.total_boundary(), morse.projection
    bp = morse.boundary
    assert bp.dtype == pi.dtype == np.int64
    assert not (bp @ bp).any()
    assert np.array_equal(pi @ b.astype(np.int64), bp @ pi)
    # pi is the identity on the critical simplices and is zero off its degree
    offsets, at = _blocks(chains, morse)
    for k, (rows, cols) in enumerate(zip(at, offsets)):
        outside = np.ones(pi.shape[1], bool)
        outside[cols] = False
        assert not pi[rows][:, outside].any()
    # the transported duality anticommutes with b' and is self-adjoint
    s = morse.duality
    assert np.array_equal(s, s.conj().T)
    assert not (bp @ s + s @ bp.T).any()
    # and it is pi S pi^T for the symmetrized phased cap S laid out densely
    full = to_hp_complex(m).total_duality()
    assert np.array_equal(pi @ full @ pi.T, s)


def test_cp2_reduces_to_one_simplex_in_each_even_degree():
    chains = enumerate_and_boundaries(cp2_nine_vertex())
    morse = _morse(chains)
    assert morse.dims == (1, 0, 1, 0, 1)
    assert not morse.boundary.any()


def test_matching_reads_the_face_arrays_only(monkeypatch):
    chains = enumerate_and_boundaries(cp2_nine_vertex())
    chains.cap_triples  # the cap's faces are located once, before

    def locate(*args):
        raise AssertionError("_locate called")

    monkeypatch.setattr(simplicial.SimplicialChainData, "_locate", locate)
    assert _morse(chains).dims == (1, 0, 1, 0, 1)


def test_relabelled_cp2_keeps_few_critical_simplices():
    base = cp2_nine_vertex()
    counts = {}
    for seed in range(200):
        m = _relabel(base, _random_relabelling(base, seed))
        dims = _morse(enumerate_and_boundaries(m)).dims
        # the Euler characteristic of CP^2 is 3
        assert sum((-1) ** k * d for k, d in enumerate(dims)) == 3
        counts[sum(dims)] = counts.get(sum(dims), 0) + 1
    assert counts == {3: 200}


def _unreduced_classes(m, act=None):
    """The classes of the public dense route: ``B + S`` of the full
    simplicial complex, laid out from its degree blocks, diagonalised over
    the group of its action."""
    return check_coincidence(to_hp_complex(m, act))


@pytest.mark.parametrize("name", sorted(_CLOSED))
def test_reduced_and_unreduced_classes_agree(name):
    m = _CLOSED[name]()
    reduced, full = manifold_signature(m), _unreduced_classes(m)
    assert reduced.passed and full.passed
    for a, b in zip(reduced.results, full.results):
        assert a.method == b.method
        assert a.k0.values == b.k0.values
    assert reduced.max_character_difference == full.max_character_difference


def test_zero_dimensional_manifold():
    m = OrientedSimplicialManifold(((0,), (1,), (2,)), (1, -1, 1))
    chains = m.chains
    morse = _morse(chains)
    assert morse.dims == (3,) and morse.boundary.shape == (3, 3)
    assert np.array_equal(morse.projection, np.eye(3, dtype=np.int64))
    rep = manifold_signature(m)
    assert rep.passed
    assert rep.k0.values == _unreduced_classes(m).k0.values == (1 + 0j,)


def test_empty_degrees_of_the_morse_complex():
    # S^4 keeps a vertex and a facet, with three empty degrees between them
    m = simplex_sphere(4)
    morse = _morse(enumerate_and_boundaries(m))
    assert morse.dims == (1, 0, 0, 0, 1)
    assert manifold_signature(m).k0.values == (0j,)
    _, report = duality_operator(m)
    assert report.passed and report.cone_min_singular_value == 1.0


@pytest.mark.parametrize("build", [lambda: simplex_sphere(3), lambda: circle_polygon(5)])
def test_odd_degree_keeps_its_verdicts(build):
    m = build()
    dual, report = duality_operator(m)
    # every float gate of the public check on the laid-out blocks
    floated = verify_duality(to_hp_complex(m))
    assert report.passed and floated.passed
    assert report.cone_min_singular_value > 1e-9
    with pytest.raises(OddDimension):
        manifold_signature(m)
    with pytest.raises(OddDimension):
        check_coincidence(to_hp_complex(m))
    # a zero cap anticommutes exactly and is degenerate on both routes
    zeroed = build()
    zeroed.chains.signs = np.zeros_like(zeroed.chains.signs)
    with pytest.raises(DegenerateDuality):
        duality_operator(zeroed)
    zero = DualityOperator(tuple(np.zeros_like(x) for x in dual.blocks))
    assert not verify_duality(HilbertPoincareComplex(zeroed.chains.chain, zero)).cone_invertible


def test_first_subdivision_of_cp2(tmp_path, capsys):
    m, _ = barycentric_subdivide(cp2_nine_vertex())
    assert _morse(enumerate_and_boundaries(m)).dims == (1, 0, 1, 0, 1)
    for manifold, sign in ((m, 1), (_flipped(m), -1)):
        rep = manifold_signature(manifold)
        assert rep.passed
        assert [r.k0.values for r in rep.results] == [(complex(sign),)] * 3
    path = str(tmp_path / "sd-cp2.smf")
    write_smf(m, path)
    assert main(["manifold", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["chain_dims"] == [255, 2916, 9144, 10800, 4320]
    for k0 in payload["methods"].values():
        assert [c["value"] for c in k0["classes"]] == [[1.0, 0.0]]


def _relabel_action(act, perm):
    """The action moved along the vertex bijection ``perm`` with its
    triangulation (:func:`_relabel`)."""
    inverse = {w: v for v, w in perm.items()}
    maps = tuple({w: perm[vm[inverse[w]]] for w in inverse} for vm in act.vertex_maps)
    return SimplicialAction(act.group, maps)


def _circle_rotation():
    """The square with its Z/4 rotation: one-dimensional, so its ``B - S`` is
    diagonalised too."""
    act = tuple({v: (v + k) % 4 for v in range(4)} for k in range(4))
    return circle_polygon(4), SimplicialAction(FiniteGroup.cyclic(4), act)


# every closed fixture with an action
_ACTING = {
    "octahedron-z4": lambda: (octahedron(), octahedron_rotation()),
    "octahedron-sd-z4": lambda: barycentric_subdivide(octahedron(), octahedron_rotation()),
    "octahedron-sd-rot24": lambda: barycentric_subdivide(octahedron(), octahedron_rotation_group()),
    "cp2-triple-s3": cp2_triple_s3,
    "sphere-pair-swap": lambda: (disjoint_sphere_pair(), sphere_swap_action()),
    "circle-z4": _circle_rotation,
}


def _rounds(chains, rho):
    """The face table and the pairs the coreduction keeps, round by round
    as (simplices, faces, face columns), on the orbits of ``rho`` or on
    singletons without it."""
    table = reduce._face_table(chains)
    orbit = np.arange(table.shape[1]) if rho is None else rho._images[0].min(axis=0)
    return table, reduce._coreduction(chains, table, orbit)


def _mates(chains, rho):
    """Each simplex's partner in the coreduction's matching, -1 for a
    critical one."""
    mate = np.full(sum(chains.dims), -1)
    for s, t, _ in _rounds(chains, rho)[1]:
        mate[s], mate[t] = t, s
    return mate


def _reduce_with(m, act):
    """The chains, the chain action and the Morse complex with its action."""
    chains = m.chains
    rho = chain_action(m, act)
    return chains, rho, reduce.morse_complex(chains, simplicial._roots(m.dim), rho)


@pytest.mark.parametrize("name", sorted(_ACTING))
def test_the_orbit_reduction_is_invariant_and_exact_on_relabellings(name):
    base, base_act = _ACTING[name]()
    for seed in range(10):
        perm = _random_relabelling(base, seed)
        m, act = _relabel(base, perm), _relabel_action(base_act, perm)
        for oriented in (m, _flipped(m)):
            chains, rho, morse = _reduce_with(oriented, act)
            # the matching commutes with every element: mate[g x] = g mate[x]
            mate = _mates(chains, rho)
            for dst in rho._images[0]:
                assert np.array_equal(mate[dst], np.where(mate >= 0, dst[mate], -1))
            assert sum(morse.dims) == np.count_nonzero(mate < 0)
            # b' b' = 0, pi b = b' pi and pi rho(g) = rho'(g) pi, against the
            # dense boundary and the dense action, on every element
            b, pi, bp = chains.chain.total_boundary(), morse.projection, morse.boundary
            assert not (bp @ bp).any()
            assert np.array_equal(pi @ b.astype(np.int64), bp @ pi)
            for g in range(rho.group.order):
                assert np.array_equal(pi @ rho.total(g), morse.action.total(g) @ pi)
            # and the classes are those of the public dense route
            if oriented.dim % 2:
                with pytest.raises(OddDimension):
                    manifold_signature(oriented, act)
                continue
            reduced, full = manifold_signature(oriented, act), _unreduced_classes(oriented, act)
            assert reduced.passed and full.passed
            for a, c in zip(reduced.results, full.results):
                assert a.method == c.method
                assert a.k0.multiplicities == c.k0.multiplicities


def _transported_average(chains, rho, morse):
    """``pi P_avg pi^T`` for the group-averaged cap ``P_avg`` of
    :func:`simplicial._cap_entries`, ``|G|`` times more entries than the raw
    cap, phased, divided by ``|G|`` and symmetrized: the duality of the Morse
    complex as the average taken before the transport gives it."""
    cap, count = simplicial._cap_entries(chains, rho)
    n, pi = len(chains.dims) - 1, morse.projection
    offsets, at = np.cumsum((0, *chains.dims)), np.cumsum((0, *morse.dims))
    raw = np.zeros((at[-1],) * 2, np.int64)
    for k, (back, front, vals) in enumerate(cap):
        rows, cols = slice(at[k], at[k + 1]), slice(at[n - k], at[n - k + 1])
        raw[rows, cols] = (pi[rows, offsets[k] + back] * vals) @ pi[cols, offsets[n - k] + front].T
    phased = np.repeat(np.asarray(simplicial._roots(n)), morse.dims)[:, None] * raw / count
    return (phased + phased.conj().T) / 2.0


@pytest.mark.parametrize("name", sorted(_ACTING))
def test_the_average_on_the_critical_simplices_is_the_transported_average(name):
    # as given, and relabelled so that the raw cap does not commute with the
    # action and the average has work to do
    base, base_act = _ACTING[name]()
    for seed in (None, 0, 1, 2):
        perm = {v: v for v in base.vertices} if seed is None else _random_relabelling(base, seed)
        chains, rho, morse = _reduce_with(_relabel(base, perm), _relabel_action(base_act, perm))
        want = _transported_average(chains, rho, morse)
        assert morse.duality.dtype == want.dtype and morse.duality.tobytes() == want.tobytes()
        # b' is pi b at the critical columns
        mate = _mates(chains, rho)
        pi_b = morse.projection @ chains.chain.total_boundary().astype(np.int64)
        assert np.array_equal(morse.boundary, pi_b[:, mate < 0])


def test_orbit_reductions_of_the_action_fixtures():
    dims = {name: _reduce_with(*build())[2].dims for name, build in _ACTING.items()}
    assert dims["octahedron-sd-z4"] == (2, 4, 4)
    assert dims["cp2-triple-s3"] == (3, 0, 3, 0, 3)
    assert dims["sphere-pair-swap"] == (2, 0, 2)
    # the 24 rotations' orbits with unequal stabilisers do not pair
    assert dims["octahedron-sd-rot24"] == (26, 48, 24)


@pytest.mark.parametrize("name", sorted(_CLOSED))
def test_no_action_and_the_trivial_group_give_the_same_morse_complex(name):
    m = _CLOSED[name]()
    trivial = SimplicialAction(FiniteGroup.trivial(), ({v: v for v in m.vertices},))
    alone, acted = _morse(enumerate_and_boundaries(m)), _reduce_with(m, trivial)[2]
    assert alone.dims == acted.dims
    for field in ("boundary", "projection", "duality"):
        a, b = getattr(alone, field), getattr(acted, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_a_matching_that_is_not_invariant_is_refused(monkeypatch):
    # the coreduction on singleton orbits ignores the action: on the
    # subdivided octahedron it keeps critical simplices that the quarter turn
    # does not permute
    m, act = barycentric_subdivide(octahedron(), octahedron_rotation())
    chains = m.chains
    rho = chain_action(m, act)
    real = reduce._coreduction
    monkeypatch.setattr(
        reduce, "_coreduction", lambda chains, table, orbit: real(chains, table, np.arange(orbit.size))
    )
    with pytest.raises(ArithmeticError, match="pi rho = rho' pi"):
        reduce.morse_complex(chains, simplicial._roots(m.dim), rho)


def _acting_or_closed(name):
    """The chains and chain action (None without one) of a fixture of
    ``_CLOSED`` or ``_ACTING``."""
    if name in _CLOSED:
        return enumerate_and_boundaries(_CLOSED[name]()), None
    m, act = _ACTING[name]()
    chains = m.chains
    return chains, chain_action(m, act)


def _morse_of(chains, rho):
    """The Morse complex of ``chains`` with the action ``rho`` or without."""
    return reduce.morse_complex(chains, simplicial._roots(len(chains.dims) - 1), rho)


@pytest.mark.parametrize("name", sorted(_CLOSED) + sorted(_ACTING))
def test_each_kept_pair_s_other_faces_died_in_an_earlier_round(name):
    # the order in which morse_complex solves for pi: the other faces of a
    # pair's simplex are critical, known from the start, or matched earlier
    chains, rho = _acting_or_closed(name)
    table, rounds = _rounds(chains, rho)
    size = table.shape[1]
    died = np.full(size + 1, -1)  # each matched simplex's round, -1 elsewhere
    for r, (s, t, _) in enumerate(rounds):
        died[s] = died[t] = r
    pairs = sum(s.size for s, *_ in rounds)
    assert np.count_nonzero(died >= 0) == 2 * pairs  # none matched twice
    for r, (s, t, col) in enumerate(rounds):
        faces = table[:, s].T
        assert ((faces == t[:, None]).sum(axis=1) == 1).all()
        assert np.array_equal(faces[np.arange(s.size), col], t)  # t is the face in column col
        assert (died[faces[faces != t[:, None]]] < r).all()
    assert sum(_morse_of(chains, rho).dims) == size - 2 * pairs


@pytest.mark.parametrize("name", ["cp2", "octahedron", "octahedron-sd-z4", "cp2-triple-s3"])
def test_pairs_solved_for_out_of_order_are_refused(monkeypatch, name):
    chains, rho = _acting_or_closed(name)
    real = reduce._coreduction
    monkeypatch.setattr(reduce, "_coreduction", lambda *args: real(*args)[::-1])
    with pytest.raises(ArithmeticError, match="pi b = b' pi"):
        _morse_of(chains, rho)
