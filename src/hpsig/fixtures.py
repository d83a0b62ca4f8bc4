"""Small reference complexes and triangulations used by the tests and docs."""

from __future__ import annotations

import itertools

import numpy as np

from .complexes import ChainComplex, DualityOperator, HilbertPoincareComplex
from .groups import FiniteGroup
from .simplicial import OrientedSimplicialManifold, SimplicialAction

__all__ = [
    "cp2_automorphisms",
    "cp2_nine_vertex",
    "cp2_triple_s3",
    "circle_polygon",
    "disjoint_sphere_pair",
    "model_even_sphere",
    "model_projective_plane",
    "octahedron",
    "octahedron_rotation",
    "octahedron_rotation_group",
    "simplex_disk",
    "simplex_sphere",
    "sphere_swap_action",
]


def simplex_disk(k: int) -> OrientedSimplicialManifold:
    """The standard k-simplex as a single positively oriented facet."""
    if k < 1:
        raise ValueError("need k >= 1")
    return OrientedSimplicialManifold((tuple(range(k + 1)),), (1,))


def simplex_sphere(k: int) -> OrientedSimplicialManifold:
    """Boundary of the (k+1)-simplex: the minimal triangulated k-sphere."""
    facets = list(itertools.combinations(range(k + 2), k + 1))
    return OrientedSimplicialManifold.from_facets(facets)


def circle_polygon(sides: int = 3) -> OrientedSimplicialManifold:
    """A polygon circle, the smallest odd-dimensional closed test case."""
    if sides < 3:
        raise ValueError("need at least 3 sides")
    facets = [tuple(sorted((i, (i + 1) % sides))) for i in range(sides)]
    return OrientedSimplicialManifold.from_facets(facets)


def octahedron() -> OrientedSimplicialManifold:
    """The octahedral 2-sphere: equator cycle 0-1-2-3, poles 4 and 5."""
    facets = []
    for i in range(4):
        j = (i + 1) % 4
        facets.append(tuple(sorted((i, j, 4))))
        facets.append(tuple(sorted((i, j, 5))))
    return OrientedSimplicialManifold.from_facets(facets)


def octahedron_rotation() -> SimplicialAction:
    """Quarter-turn rotation of the octahedron about the polar axis."""
    group = FiniteGroup.cyclic(4)
    maps = []
    for k in range(4):
        vm = {v: (v + k) % 4 for v in range(4)}
        vm[4] = 4
        vm[5] = 5
        maps.append(vm)
    return SimplicialAction(group, tuple(maps))


def octahedron_rotation_group() -> SimplicialAction:
    """The 24 rotations of the octahedron as vertex maps (a group isomorphic
    to S_4, with conjugacy classes of sizes 1, 3, 6, 6 and 8).

    Vertex ``v`` of :func:`octahedron` sits at ``_OCTAHEDRON_AXES[v]``, a
    signed coordinate axis.  A rotation is a signed permutation of the axes of
    determinant +1, and the multiplication table is computed by composing the
    vertex maps: ``g h`` maps ``v`` to ``g(h(v))``.  The action fixes faces
    setwise but not pointwise, so it acts regularly only on a subdivision.
    """
    where = {axis: v for v, axis in enumerate(_OCTAHEDRON_AXES)}
    maps = []
    for perm in itertools.permutations(range(3)):
        parity = np.linalg.det(np.eye(3)[list(perm)])
        for signs in itertools.product((1, -1), repeat=3):
            if parity * np.prod(signs) < 0:
                continue
            maps.append(tuple(
                where[(perm[a], s * signs[a])] for a, s in _OCTAHEDRON_AXES
            ))
    return SimplicialAction(_permutation_group(maps), tuple(dict(enumerate(vm)) for vm in maps))


def _permutation_group(maps: list[tuple[int, ...]]) -> FiniteGroup:
    """The group of the permutations ``maps`` of ``0, 1, ...``, closed under
    composition, each a tuple of images and named by it: ``g h`` maps ``v``
    to ``g(h(v))``."""
    index = {vm: i for i, vm in enumerate(maps)}
    table = tuple(tuple(index[tuple(g[v] for v in h)] for h in maps) for g in maps)
    return FiniteGroup(tuple("".join(map(str, vm)) for vm in maps), table)


# (axis, sign) of each octahedron vertex: the equator 0-1-2-3 is +x, +y, -x,
# -y and the poles 4, 5 are +z, -z.
_OCTAHEDRON_AXES = ((0, 1), (1, 1), (0, -1), (1, -1), (2, 1), (2, -1))


def disjoint_sphere_pair() -> OrientedSimplicialManifold:
    """Two copies of the boundary of the 3-simplex, on vertices 0-3 and 4-7."""
    facets = list(itertools.combinations(range(4), 3))
    facets += [tuple(v + 4 for v in f) for f in itertools.combinations(range(4), 3)]
    return OrientedSimplicialManifold.from_facets(facets)


def sphere_swap_action() -> SimplicialAction:
    """Order-two swap of the two components of :func:`disjoint_sphere_pair`."""
    group = FiniteGroup.cyclic(2)
    ident = {v: v for v in range(8)}
    swap = {v: (v + 4) % 8 for v in range(8)}
    return SimplicialAction(group, (ident, swap))


# 9-vertex triangulation of the complex projective plane: 36 facets on the
# vertex set {0..8}, four orbits under the free translations v -> v+3 (mod 9)
# and v -> 3*(v//3) + (v+1 mod 3) used in the search that produced it.
# Signature +1 with the orientation the coherence solver assigns when the
# first facet gets +1.
_CP2_FACETS = (
    (0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 4, 5), (0, 1, 3, 4, 6),
    (0, 1, 3, 5, 7), (0, 1, 3, 6, 7), (0, 1, 4, 5, 6), (0, 1, 5, 6, 8),
    (0, 1, 5, 7, 8), (0, 1, 6, 7, 8), (0, 2, 3, 4, 8), (0, 2, 3, 5, 8),
    (0, 2, 4, 5, 6), (0, 2, 4, 6, 7), (0, 2, 4, 7, 8), (0, 2, 5, 6, 8),
    (0, 2, 6, 7, 8), (0, 3, 4, 6, 7), (0, 3, 4, 7, 8), (0, 3, 5, 7, 8),
    (1, 2, 3, 4, 8), (1, 2, 3, 5, 7), (1, 2, 3, 6, 7), (1, 2, 3, 6, 8),
    (1, 2, 4, 5, 7), (1, 2, 4, 7, 8), (1, 2, 6, 7, 8), (1, 3, 4, 6, 8),
    (1, 4, 5, 6, 8), (1, 4, 5, 7, 8), (2, 3, 5, 6, 7), (2, 3, 5, 6, 8),
    (2, 4, 5, 6, 7), (3, 4, 5, 6, 7), (3, 4, 5, 6, 8), (3, 4, 5, 7, 8),
)


def cp2_nine_vertex() -> OrientedSimplicialManifold:
    """The 9-vertex triangulation of the complex projective plane.

    Euler characteristic 3, Betti numbers (1, 0, 1, 0, 1), signature +1 with
    the solver-assigned orientation.
    """
    return OrientedSimplicialManifold.from_facets(_CP2_FACETS)


def cp2_automorphisms() -> SimplicialAction:
    """The 54 automorphisms of :func:`cp2_nine_vertex`, all orientation
    preserving: the closure under composition of the vertex maps
    ``(0, 1, 8, 6, 7, 5, 3, 4, 2)`` and ``(1, 2, 0, 4, 5, 3, 7, 8, 6)`` (as in
    :func:`octahedron_rotation_group`, ``g h`` maps ``v`` to ``g(h(v))``).
    They fix faces setwise but not pointwise, so they act regularly only on a
    subdivision."""
    generators = ((0, 1, 8, 6, 7, 5, 3, 4, 2), (1, 2, 0, 4, 5, 3, 7, 8, 6))
    maps = [tuple(range(9))]
    for g in maps:  # the list grows while it is read
        for h in generators:
            if (gh := tuple(g[v] for v in h)) not in maps:
                maps.append(gh)
    return SimplicialAction(_permutation_group(maps), tuple(dict(enumerate(vm)) for vm in maps))


def cp2_triple_s3() -> tuple[OrientedSimplicialManifold, SimplicialAction]:
    """Three copies of :func:`cp2_nine_vertex`, copy ``c`` on the vertices
    ``9c .. 9c + 8`` with the same orientation, and the symmetric group S_3
    permuting the copies.

    The chain dims are three times those of CP^2_9 (765 wide in all).  S_3
    acts on H^2 by permuting three lines, the trivial plus the
    two-dimensional irreducible character, so the signature class is
    ``(3, 1, 0)`` on the identity, the transpositions and the 3-cycles.
    """
    cp2 = cp2_nine_vertex()
    facets = tuple(tuple(v + 9 * c for v in f) for c in range(3) for f in cp2.facets)
    manifold = OrientedSimplicialManifold(facets, cp2.signs * 3)
    perms = list(itertools.permutations(range(3)))
    maps = tuple({v: 9 * p[v // 9] + v % 9 for v in range(27)} for p in perms)
    return manifold, SimplicialAction(_permutation_group(perms), maps)


def model_even_sphere(n: int = 2) -> HilbertPoincareComplex:
    """Rank-one homology model of an even sphere: C in degrees 0 and n,
    zero boundary, duality swapping the two lines.  Signature 0."""
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
    dims = tuple(1 if k in (0, n) else 0 for k in range(n + 1))
    one = np.ones((1, 1))
    blocks = []
    for k in range(n + 1):
        if k in (0, n):
            blocks.append(one.copy())
        else:
            blocks.append(np.zeros((dims[k], dims[n - k])))
    bnds = tuple(
        np.zeros((dims[k - 1], dims[k])) for k in range(1, n + 1)
    )
    return HilbertPoincareComplex(ChainComplex(dims, bnds), DualityOperator(tuple(blocks)))


def model_projective_plane() -> HilbertPoincareComplex:
    """Rank-one homology model of the complex projective plane: lines in
    degrees 0, 2, 4, duality swapping the ends and fixing the middle.
    Signature +1."""
    dims = (1, 0, 1, 0, 1)
    one = np.ones((1, 1))
    blocks = []
    for k in range(5):
        if k in (0, 2, 4):
            blocks.append(one.copy())
        else:
            blocks.append(np.zeros((dims[k], dims[4 - k])))
    bnds = tuple(
        np.zeros((dims[k - 1], dims[k])) for k in range(1, 5)
    )
    return HilbertPoincareComplex(ChainComplex(dims, bnds), DualityOperator(tuple(blocks)))
