"""Tests for the Morse reduction of a triangulation's duality complex."""

import json

import numpy as np
import pytest

from hpsig import (
    DualityOperator,
    HilbertPoincareComplex,
    OrientedSimplicialManifold,
    barycentric_subdivide,
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
from hpsig.complexes import _diagonalise_halves
from hpsig.errors import DegenerateDuality, OddDimension
from hpsig.fixtures import (
    circle_polygon,
    cp2_nine_vertex,
    cp2_triple_s3,
    disjoint_sphere_pair,
    octahedron,
    simplex_sphere,
)
from hpsig.io import write_smf
from hpsig.signature import _coincidence


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
    cap = simplicial._cap_entries(chains, None)[0]
    return reduce.morse_complex(chains, cap, simplicial._roots(len(chains.dims) - 1))


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
    chains = enumerate_and_boundaries(m)
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
    assert max(counts) <= 11
    assert counts == {3: 187, 7: 12, 11: 1}


def _unreduced_classes(m):
    """The classes read off ``B + S`` of the full simplicial complex: the
    integer arrays' entries diagonalised in one eigensolve."""
    chains = enumerate_and_boundaries(m)
    cap, count = simplicial._cap_entries(chains, None)
    halves = simplicial._half_entries(chains, cap, count, simplicial._roots(m.dim))
    spectra = _diagonalise_halves(*halves, m.dim, 1e-9, None)
    return _coincidence(m.dim, None, spectra, 1e-9)


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
    chains = enumerate_and_boundaries(m)
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
    chains = enumerate_and_boundaries(m)
    chains.signs = np.zeros_like(chains.signs)
    with pytest.raises(DegenerateDuality):
        duality_operator(m, chains)
    zero = DualityOperator(tuple(np.zeros_like(x) for x in dual.blocks))
    assert not verify_duality(HilbertPoincareComplex(chains.chain, zero)).cone_invertible


def test_first_subdivision_of_cp2(tmp_path, capsys):
    m, _ = barycentric_subdivide(cp2_nine_vertex())
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
