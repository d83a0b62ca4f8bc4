"""The integer-array simplicial layer against plain loops over vertex tuples.

The ``_reference_*`` functions below are the loop implementations the array
layer replaced: simplices enumerated as sorted tuples, dense blocks written
entry by entry, and every simplex image sorted by a bubble sort that counts
its swaps.  On every triangulation fixture the array layer must give the same
simplices and index maps, and dense boundary, cap and action blocks that are
the same bit for bit, dtype included.  On the simplex disks and their
subdivisions, the boundary subcomplex read off the face arrays must be the
one found by looking up every face of every boundary face in the index maps.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from hpsig import (
    FiniteGroup,
    OrientedSimplicialManifold,
    SimplicialAction,
    barycentric_subdivide,
    bordism_to_cwb,
    cap_duality,
    chain_action,
    fundamental_cycle,
    geometry_stats,
    manifold_signature,
)
from hpsig import simplicial
from hpsig.errors import IncoherentOrientation, NotSimplicial, OrientationReversing
from hpsig.fixtures import (
    circle_polygon,
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


def _reference_sort_with_sign(seq):
    """Sort a tuple of distinct integers, returning the permutation parity."""
    items = list(seq)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return tuple(items), sign


def _reference_simplices(m):
    """Simplices per degree and index maps."""
    per_degree = [set() for _ in range(m.dim + 1)]
    for f in m.facets:
        for p in range(m.dim + 1):
            for sub in itertools.combinations(f, p + 1):
                per_degree[p].add(sub)
    simplices = tuple(tuple(sorted(s)) for s in per_degree)
    return simplices, tuple({s: i for i, s in enumerate(degree)} for degree in simplices)


def _reference_enumerate(m):
    """Simplices per degree, index maps and dense boundary matrices."""
    n = m.dim
    simplices, index = _reference_simplices(m)
    dims = tuple(len(degree) for degree in simplices)
    bnds = []
    for p in range(1, n + 1):
        mat = np.zeros((dims[p - 1], dims[p]))
        for col, s in enumerate(simplices[p]):
            for i in range(p + 1):
                face = s[:i] + s[i + 1 :]
                mat[index[p - 1][face], col] = (-1.0) ** i
        bnds.append(mat)
    return simplices, index, bnds


def _reference_boundary_split(m, index):
    """The boundary subcomplex: every face of each codimension-one face that
    lies in a single facet, as sorted indices per degree."""
    per_degree = [set() for _ in range(m.dim + 1)]
    for face in m.boundary_faces():
        for p in range(len(face)):
            per_degree[p].update(itertools.combinations(face, p + 1))
    return tuple(tuple(sorted(index[p][s] for s in degree)) for p, degree in enumerate(per_degree))


def _reference_cap(m, simplices, index):
    n = m.dim
    out = []
    for p in range(n + 1):
        mat = np.zeros((len(simplices[p]), len(simplices[n - p])))
        for f, s in zip(m.facets, m.signs):
            mat[index[p][f[n - p :]], index[n - p][f[: n - p + 1]]] += s
        out.append(mat)
    return out


def _reference_action_blocks(m, action, simplices, index):
    """Dense signed permutation blocks of a valid action, per element and degree."""
    fams = []
    for vm in action.vertex_maps:
        fam = []
        for p in range(m.dim + 1):
            images = [_reference_sort_with_sign([vm[v] for v in s]) for s in simplices[p]]
            mat = np.zeros((len(simplices[p]), len(simplices[p])))
            rows = np.array([index[p][image] for image, _ in images], dtype=np.intp)
            mat[rows, np.arange(rows.size)] = [flip for _, flip in images]
            fam.append(mat)
        fams.append(fam)
    return fams


def _reference_isotropy(m, action, simplices):
    max_iso = 1
    for p in range(m.dim + 1):
        for s in simplices[p]:
            stab = sum(1 for vm in action.vertex_maps if tuple(sorted(vm[v] for v in s)) == s)
            max_iso = max(max_iso, stab)
    return max_iso


def _reference_closed_star(m):
    """The largest closed vertex star: every face of every facet at each of
    its vertices, gathered as sets of vertex tuples."""
    star = {v: set() for v in m.vertices}
    for f in m.facets:
        faces = [sub for p in range(len(f)) for sub in itertools.combinations(f, p + 1)]
        for v in f:
            star[v].update(faces)
    return max(len(s) for s in star.values())


def _reference_subdivide(m, action):
    simplices = _reference_enumerate(m)[0]
    all_simplices = [s for degree in simplices for s in degree]
    new_id = {s: i for i, s in enumerate(all_simplices)}
    new_facets, new_signs = [], []
    for f, sgn in zip(m.facets, m.signs):
        for perm in itertools.permutations(range(m.dim + 1)):
            acc, flag = [], []
            for k in perm:
                acc.append(f[k])
                flag.append(new_id[tuple(sorted(acc))])
            new_facets.append(tuple(flag))
            new_signs.append(sgn * _reference_sort_with_sign(perm)[1])
    maps = None
    if action is not None:
        maps = [
            {new_id[s]: new_id[tuple(sorted(vm[v] for v in s))] for s in all_simplices}
            for vm in action.vertex_maps
        ]
    return new_facets, new_signs, maps


def _flipped(m):
    return OrientedSimplicialManifold(m.facets, tuple(-s for s in m.signs))


def _transposition():
    """An irregular action: Z/2 swapping two vertices of the tetrahedron."""
    swap = {0: 1, 1: 0, 2: 2, 3: 3}
    return SimplicialAction(FiniteGroup.cyclic(2), ({v: v for v in range(4)}, swap))


FIXTURES = {
    "octahedron": lambda: (octahedron(), None),
    "octahedron-z4": lambda: (octahedron(), octahedron_rotation()),
    "sd-octahedron-z4": lambda: barycentric_subdivide(octahedron(), octahedron_rotation()),
    "sd-octahedron-rot24": lambda: barycentric_subdivide(
        octahedron(), octahedron_rotation_group()
    ),
    "sphere-pair-swap": lambda: (disjoint_sphere_pair(), sphere_swap_action()),
    "cp2": lambda: (cp2_nine_vertex(), None),
    "cp2-flip": lambda: (_flipped(cp2_nine_vertex()), None),
    "cp2-triple-s3": cp2_triple_s3,
    "s4": lambda: (simplex_sphere(4), None),
    "disk1": lambda: (simplex_disk(1), None),
    "disk2": lambda: (simplex_disk(2), None),
    "disk3": lambda: (simplex_disk(3), None),
    "circle": lambda: (circle_polygon(5), None),
    "point": lambda: (OrientedSimplicialManifold(((0,),), (1,)), None),
}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["sd-cp2"])
def test_enumeration_and_cap_match_the_loops(name):
    m = barycentric_subdivide(cp2_nine_vertex())[0] if name == "sd-cp2" else FIXTURES[name]()[0]
    n = m.dim
    simplices, index = _reference_simplices(m)
    chains = m.chains
    assert chains.simplices == simplices
    assert chains.index == index
    assert chains.dims == tuple(map(len, simplices))
    for p, degree in enumerate(simplices):
        # every simplex is found at its own index by its keys
        assert np.array_equal(chains._locate(p, chains.rows[p]), np.arange(len(degree)))
        if p:
            faces = [[index[p - 1][s[:i] + s[i + 1 :]] for i in range(p + 1)] for s in degree]
            assert _same_bits(chains.faces[p], np.array(faces, np.intp).reshape(-1, p + 1))
    for p, (back, front) in enumerate(chains.cap_triples):
        assert back.tolist() == [index[p][f[n - p :]] for f in m.facets]
        assert front.tolist() == [index[n - p][f[: n - p + 1]] for f in m.facets]
    if name in FIXTURES:  # the dense blocks of sd(CP^2_9) would take gigabytes
        _, _, bnds = _reference_enumerate(m)
        assert chains.chain.dims == chains.dims
        assert len(chains.chain.boundaries) == len(bnds)
        for got, want in zip(chains.chain.boundaries, bnds):
            assert _same_bits(got, want)
        for got, want in zip(cap_duality(m), _reference_cap(m, simplices, index)):
            assert _same_bits(got, want)
    z = fundamental_cycle(m)
    want = np.zeros(len(simplices[m.dim]))
    for f, s in zip(m.facets, m.signs):
        want[index[m.dim][f]] = s
    assert _same_bits(z, want)


@pytest.mark.parametrize("name", ["disk1", "disk2", "disk3", "disk4", "disk5", "sd-disk3"])
def test_bordism_duality_is_the_phased_loop_cap_bit_for_bit(name):
    k = int(name[-1])
    m = barycentric_subdivide(simplex_disk(k))[0] if name.startswith("sd") else simplex_disk(k)
    simplices, index, _ = _reference_enumerate(m)
    n = m.dim
    # each loop cap block times its phase i^{e(p)}, then the average with
    # the adjoint of its partner, zero signs included
    phased = [r * x for r, x in zip(simplicial._roots(n), _reference_cap(m, simplices, index))]
    want = [(phased[p] + phased[n - p].conj().T) / 2.0 for p in range(n + 1)]
    got = bordism_to_cwb(m).duality.blocks
    assert len(got) == n + 1
    for block, expected in zip(got, want):
        assert _same_bits(block, expected)


@pytest.mark.parametrize("name", sorted(n for n in FIXTURES if FIXTURES[n]()[1] is not None))
def test_chain_action_matches_the_loops(name):
    m, action = FIXTURES[name]()
    simplices, index, _ = _reference_enumerate(m)
    rho = chain_action(m, action)
    assert rho.is_signed_permutation
    for g, fam in enumerate(_reference_action_blocks(m, action, simplices, index)):
        for k, want in enumerate(fam):
            assert _same_bits(rho.degree(g, k), want)
    assert geometry_stats(m, action).max_isotropy_order == _reference_isotropy(
        m, action, simplices
    )


@pytest.mark.parametrize("k, subdivided", [(1, False), (2, False), (3, False), (4, False),
                                           (1, True), (2, True), (3, True)])
def test_boundary_split_matches_the_loops(k, subdivided):
    m = simplex_disk(k)
    if subdivided:
        m = barycentric_subdivide(m)[0]
    _, index, _ = _reference_enumerate(m)
    assert bordism_to_cwb(m).split == _reference_boundary_split(m, index)


_STAR_SIZES = {"octahedron": 17, "cp2": 193, "point": 1, "sd-disk4": 1081}


@pytest.mark.parametrize("name", sorted([*FIXTURES, "sd-disk4"]))
def test_closed_star_matches_the_loops(name):
    if name == "sd-disk4":
        m = barycentric_subdivide(simplex_disk(4))[0]
    else:
        m = FIXTURES[name]()[0]
    star = geometry_stats(m).max_closed_star
    assert star == _reference_closed_star(m) == _STAR_SIZES.get(name, star)


def test_isotropy_reads_irregular_and_non_permuting_maps():
    m = simplex_sphere(2)
    simplices = _reference_enumerate(m)[0]
    collapse = SimplicialAction(
        FiniteGroup.cyclic(2), ({v: v for v in range(4)}, {v: 0 for v in range(4)})
    )
    for action in (_transposition(), collapse):
        assert geometry_stats(m, action).max_isotropy_order == _reference_isotropy(
            m, action, simplices
        )
    assert geometry_stats(m, _transposition()).max_isotropy_order == 2


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_subdivision_matches_the_loops(name):
    m, action = FIXTURES[name]()
    facets, signs, maps = _reference_subdivide(m, action)
    m2, action2 = barycentric_subdivide(m, action)
    assert m2.facets == tuple(facets)
    assert m2.signs == tuple(signs)
    if action is None:
        assert action2 is None
    else:
        assert [list(vm.items()) for vm in action2.vertex_maps] == [
            list(vm.items()) for vm in maps
        ]


def test_subdivision_of_an_irregular_action_matches_the_loops():
    m, action = simplex_sphere(2), _transposition()
    facets, signs, maps = _reference_subdivide(m, action)
    m2, action2 = barycentric_subdivide(m, action)
    assert (m2.facets, m2.signs) == (tuple(facets), tuple(signs))
    assert [dict(vm) for vm in action2.vertex_maps] == maps
    # one subdivision makes the action regular; the swap is a reflection
    with pytest.raises(OrientationReversing):
        chain_action(m2, action2)


def test_subdivision_rejects_a_map_to_a_non_simplex():
    m = octahedron()
    swap = {0: 0, 1: 2, 2: 1, 3: 3, 4: 4, 5: 5}
    action = SimplicialAction(FiniteGroup.cyclic(2), ({v: v for v in range(6)}, swap))
    with pytest.raises(NotSimplicial, match="which is not a simplex"):
        barycentric_subdivide(m, action)


def test_incoherent_orientation_names_the_first_face():
    m = OrientedSimplicialManifold(simplex_sphere(2).facets, (1, 1, 1, 1))
    simplices, index, bnds = _reference_enumerate(m)
    z = np.zeros(len(simplices[2]))
    for f, s in zip(m.facets, m.signs):
        z[index[2][f]] = s
    first = next(row for row, val in enumerate(bnds[-1] @ z) if abs(val) > 0.5)
    with pytest.raises(IncoherentOrientation) as exc_info:
        fundamental_cycle(m)
    assert str(exc_info.value) == (
        f"facet signs are not coherent around face {simplices[1][first]}"
    )


def test_subdivided_cp2_triple_forms_no_dense_block():
    m, action = barycentric_subdivide(*cp2_triple_s3())
    tracemalloc.start()
    try:
        chains = m.chains
        rho = chain_action(m, action)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chains.dims == (765, 8748, 27432, 32400, 12960)
    assert rho.dims == chains.dims and rho.is_signed_permutation
    # neither the boundary blocks nor the action's dense blocks were laid out:
    # one 27432 x 32400 boundary block alone would take 6.6 GiB
    assert "chain" not in vars(chains)
    assert rho._blocks is None
    assert peak < 200 * 2**20


def test_subdivided_cp2_triple_decides_its_duality_gates_with_no_dense_block():
    m, action = barycentric_subdivide(*cp2_triple_s3())
    chains = m.chains
    rho = chain_action(m, action)
    tracemalloc.start()
    try:
        failed = simplicial._exact_identities(chains, rho, simplicial._cap_entries(chains, rho)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # b b = 0, the chain condition of the averaged phased cap and of its
    # symmetrization, self-adjointness and the action gate, all exact
    assert failed is None
    # on the face arrays, the cap triples and the signed permutations alone:
    # one dense 27432 x 32400 boundary block would take 6.6 GiB
    assert "chain" not in vars(chains)
    assert rho._blocks is None
    assert peak < 200 * 2**20


def test_subdivided_cp2_triple_has_its_signature_class():
    m, action = barycentric_subdivide(*cp2_triple_s3())
    tracemalloc.start()
    try:
        rep = manifold_signature(m, action)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # S_3 acts on H^2 by permuting three lines: (3, 1, 0) on the identity,
    # the transpositions and the 3-cycles, through all three constructions,
    # read off the Morse complex of an invariant coreduction; the 82,305
    # simplices would need 54 GB for one dense N x N array
    assert rep.passed
    assert [r.k0.values for r in rep.results] == [(3, 1, 0)] * 3
    assert peak < 300 * 2**20
