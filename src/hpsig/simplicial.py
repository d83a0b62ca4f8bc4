"""Oriented simplicial manifolds and their duality complexes.

The chain spaces are freely spanned by the simplices of each dimension, with
the standard alternating-sign boundary on sorted vertex tuples.  Duality comes
from capping with the fundamental cycle: for a facet ``v_0 < ... < v_N`` the
front face ``[v_0 .. v_{N-p}]`` pairs against the back face ``[v_{N-p} .. v_N]``.
The raw cap is an integer matrix family; multiplying degree ``p`` by the
fourth root of unity ``i^{e(p)}`` with

    e(p) = (e_0 + 2 p N - p (p + 1)) mod 4,
    e_0 = 0 for N = 0, 1 (mod 4) and 1 for N = 2, 3 (mod 4)

makes the family anticommute with the boundary exactly, in every dimension,
for this boundary convention (for odd ``N`` this phase reduces to
``i^{p(p-1)}``).  The phased cap is still only self-adjoint up to chain
homotopy, so the exported duality is its self-adjoint average; the
symmetrization residual is reported and nondegeneracy is re-checked
afterwards.

The combinatorial data stay integer arrays (:class:`SimplicialChainData`):
per degree the sorted simplices as rows of vertex numbers and their faces as
indices, and the facets' (back, front, sign) cap triples, all read off one
rank table per degree that numbers every subset of every facet.  They are the
manifold's own (:attr:`OrientedSimplicialManifold.chains`), enumerated and
validated by its constructor, and every public function here reads them
there, so no function takes chain data beside the manifold.  The duality
check's structural identities are integer theorems, decided on them
exactly (:func:`_exact_identities`); a triangulation on which one fails is
refused, as degenerate or, for its action, as not equivariant.
No float gate runs and the signature route lays out no degree block: it
diagonalises ``B + S`` and ``B - S`` of the Morse complex of an acyclic
matching on the simplices (:mod:`hpsig.reduce`; Forman 1998), chain
equivalent to the simplicial complex and much smaller, so the cone value and
the spectral gaps are that complex's.  The matching is a coreduction on
orbit labels, singleton orbits without an action, so that a group maps it to
itself (Freij 2009) and permutes its critical simplices with signs.  The
chain equivalence ``pi`` is solved for by substitution in the order in which
the coreduction pairs the simplices, the Morse boundary is read off ``pi
b``, and the raw cap is carried through ``pi`` and averaged over the group
on the critical simplices, so the group-averaged cap
entries (:func:`_cap_entries`) are read only by the action gate and by the
public functions that lay out dense blocks.  Dense
blocks are laid out only where a public function returns them: the boundary
on first use of ``chain``, and the cap's degree blocks, raw, phased or
averaged, all by :func:`_cap_blocks`.

Group actions are given by vertex permutations.  They must be simplicial
(simplices map to simplices), regular (a simplex fixed setwise is fixed
pointwise; one barycentric subdivision always repairs this), and orientation
preserving, and they must compose exactly like the group.  Every simplex is
mapped under every element at once through a vertex lookup table, a row
sort, an inversion count for the parity and a key lookup for the image
(:func:`_simplex_images`), which the chain action, the isotropy count of
:func:`geometry_stats` and :func:`barycentric_subdivide` share.  The chain
action is handed to :class:`~hpsig.groups.GroupAction` as two arrays on the
total space, each simplex's image under each element and its sign.  The
group average of the cap moves the cap's entries through them
(:func:`_cap_entries`), and the action's commutators with the boundary and
the duality are decided exactly on the group's generators by moving the
entries of each through them (:func:`_action_commutes`), with the other
identities by the duality check and alone by :func:`verify_equivariance`,
closed or with boundary.  For vertex maps that
scramble the global order the cap matrices do not commute with the
action on the nose (the split point of a facet moves with the sort), so
equivariant duality operators are built by averaging the phased cap over the
group; see :func:`_cap_blocks`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .bordism import ComplexWithBoundary, verify_with_boundary
from .complexes import (
    _DUALITY_FAILURES,
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    _diagonalise_halves,
    _Halves,
    _halves_invertibility,
)
from .errors import (
    BoundaryConditionViolated,
    DegenerateDuality,
    EquivarianceViolated,
    IncoherentOrientation,
    InvalidFacet,
    NotSimplicial,
    OrientationReversing,
    PreconditionViolated,
    ShapeMismatch,
)
from .groups import FiniteGroup, GroupAction
from .linalg import DEFAULT_TOL, adjoint, frobenius_norm
from .reduce import morse_complex, reduced_halves
from .signature import CoincidenceReport, _coincidence

__all__ = [
    "CapReport",
    "EquivarianceReport",
    "GeometryStats",
    "OrientedSimplicialManifold",
    "SimplicialAction",
    "SimplicialChainData",
    "barycentric_subdivide",
    "bordism_to_cwb",
    "cap_duality",
    "chain_action",
    "duality_operator",
    "enumerate_and_boundaries",
    "fundamental_cycle",
    "geometry_stats",
    "manifold_signature",
    "to_hp_complex",
    "verify_equivariance",
]


class OrientedSimplicialManifold:
    """Pure simplicial complex of facet dimension ``dim`` with facet signs.

    Facets are sorted sequences of integer vertex labels and signs are the
    integers +1 and -1; every codimension-one face must lie in one or two
    facets.  The constructor enumerates the simplices once, on one int64
    facet array and one int64 sign array, keeps them as ``chains``
    (:func:`enumerate_and_boundaries`) and validates the facets on them; the
    face counts also give ``with_boundary``.  ``facets``, ``signs`` and
    ``vertices`` (sorted) are read-only tuples of ints, built on first read.
    Coherence of the signs is certified by :func:`fundamental_cycle`.
    """

    def __init__(self, facets: Sequence[Sequence[int]], signs: Sequence[int]) -> None:
        if not len(facets):
            raise InvalidFacet("a manifold needs at least one facet")
        size = len(facets[0])
        if not size:
            raise InvalidFacet("facet () has no vertex")
        rows = _int_array(facets, (len(facets), size))
        if rows is None:  # the facets before the first of another size, label by label
            same = next((t for t, f in enumerate(facets) if len(f) != size), len(facets))
            rows = np.array([[_label(v) for v in f] for f in facets[:same]], dtype=np.int64)
        t = _first((rows[:, 1:] <= rows[:, :-1]).any(axis=1))
        if t is not None:
            raise InvalidFacet(
                f"facet {tuple(rows[t].tolist())} is not a sorted tuple of distinct vertices"
            )
        if len(rows) < len(facets):
            f = tuple(_label(v) for v in facets[len(rows)])
            raise InvalidFacet(f"facet {f} has {len(f)} vertices, expected {size}")
        # a sign that is not an integer reads as 0, which is refused below
        self._signs = _int_array(signs, (len(signs),))
        if self._signs is None:
            ints = (s if isinstance(s, (int, np.integer)) and s in (-1, 1) else 0 for s in signs)
            self._signs = np.fromiter(ints, np.int64)
        self.dim, self._facets, self._views = size - 1, rows, {}
        self.chains = chains = enumerate_and_boundaries(self)
        del self._facets  # from here on read off ``chains`` (``__getattr__``)
        n = self.dim
        if chains.dims[n] < len(rows):
            raise InvalidFacet("duplicate facets")
        if self._signs.shape != (len(rows),) or (np.abs(self._signs) != 1).any():
            raise InvalidFacet("signs must be +1 or -1, one per facet")
        # how many facets hold each codimension-one face (points have none)
        counts = np.bincount(chains.faces[n].ravel(), minlength=chains.dims[n - 1] if n else 0)
        if (counts > 2).any():
            faces = chains.faces[n][chains.cap_triples[n][0]].ravel()  # facet by facet
            face = faces[_first(counts[faces] > 2)]  # the first to appear
            raise InvalidFacet(
                f"face {chains.simplex(n - 1, face)} lies in {counts[face]} facets; "
                f"at most 2 allowed"
            )
        self._boundary = np.flatnonzero(counts == 1)  # the faces in one facet
        self.with_boundary = bool(self._boundary.size)

    facets = property(lambda self: self._view("facets"), doc="Vertex label tuples.")
    signs = property(lambda self: self._view("signs"), doc="The signs of the facets.")
    vertices = property(lambda self: self._view("vertices"), doc="Labels.")

    def __getattr__(self, name: str):
        if name != "_facets":  # the facets as rows of labels, which only ``chains`` keeps
            raise AttributeError(name)
        return self.chains.vertices[self.chains.facets]

    def _view(self, name: str) -> tuple:
        if name not in self._views:  # built on the first read and kept
            array = self._facets if name == "facets" else getattr(self.chains, name)
            rows = array.tolist()
            self._views[name] = tuple(map(tuple, rows) if array.ndim > 1 else rows)
        return self._views[name]

    @classmethod
    def from_facets(
        cls,
        facets: Sequence[Sequence[int]],
        signs: Sequence[int] | None = None,
    ) -> "OrientedSimplicialManifold":
        """Build from facet vertex sets, deriving coherent signs if not given.

        The sign solver walks the facet adjacency graph; two facets sharing a
        codimension-one face get opposite induced orientations on it.  The
        first facet of each connected component gets sign +1, which pins the
        assignment uniquely.  The constructor validates the facets first, and
        the solved signs are written into the manifold's one sign array.
        IncoherentOrientation is raised when no coherent assignment exists.
        """
        try:
            facets = [sorted(f) for f in facets]
        except TypeError:  # labels that do not compare; the constructor names the first
            pass
        if signs is not None:
            return cls(facets, signs)
        out = cls(facets, np.ones(len(facets), dtype=np.int64))
        sorted_facets, m = out.facets, len(out.facets)
        by_face: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for t, f in enumerate(sorted_facets):
            for i in range(len(f)):
                face = f[:i] + f[i + 1 :]
                by_face.setdefault(face, []).append((t, i))
        solved = [0] * m
        for start in range(m):
            if solved[start]:
                continue
            solved[start] = 1
            queue = [start]
            while queue:
                t = queue.pop()
                f = sorted_facets[t]
                for i in range(len(f)):
                    face = f[:i] + f[i + 1 :]
                    for u, j in by_face.get(face, ()):  # pragma: no branch
                        if u == t:
                            continue
                        want = -solved[t] * (-1) ** (i + j)
                        if solved[u] == 0:
                            solved[u] = want
                            queue.append(u)
                        elif solved[u] != want:
                            raise IncoherentOrientation(
                                f"facets {sorted_facets[t]} and {sorted_facets[u]} "
                                f"cannot be oriented coherently"
                            )
        out.chains.signs[:] = solved
        return out

    def boundary_faces(self) -> tuple[tuple[int, ...], ...]:
        """Codimension-one faces lying in exactly one facet, sorted."""
        rows = self.chains.rows[self.dim - 1][self._boundary]
        return tuple(map(tuple, self.chains.vertices[rows].tolist()))


def _int_array(values, shape: tuple[int, ...]) -> np.ndarray | None:
    """``values`` as an int64 array of ``shape``, or None unless they are
    integers that fit in 64 bits, laid out in that shape."""
    try:
        out = np.array(values)
    except ValueError:  # ragged, or an entry that is itself a sequence
        return None
    return out.astype(np.int64, copy=False) if out.dtype.kind == "i" and out.shape == shape else None


def _label(v) -> int:
    """The vertex label ``v`` as an int, or InvalidFacet."""
    if not isinstance(v, (int, np.integer)):
        raise InvalidFacet(f"vertex label {v!r} is not an integer")
    if not np.iinfo(np.int64).min <= v <= np.iinfo(np.int64).max:
        raise InvalidFacet(f"vertex label {v} is outside the 64-bit integer range")
    return int(v)


class SimplicialChainData:
    """The simplices of a triangulation as integer arrays, with their faces.

    Vertices are numbered ``0 .. V-1`` in increasing label order
    (``vertices[r]`` is the label of vertex ``r``).  ``rows[p]`` lists the
    ``p``-simplices in lexicographic order as sorted rows of vertex numbers,
    shape ``(dim_p, p + 1)``.  ``faces[p]`` has the same shape for ``p >= 1``:
    column ``i`` holds the index in degree ``p - 1`` of the face without the
    ``i``-th vertex, which the boundary gives the sign ``(-1)^i``; degree 0 has
    no faces.  ``facets`` holds the manifold's facets in its own order, as
    rows of vertex numbers, and ``signs`` their signs (the manifold's array).

    A simplex is found by its key: its vertex number in degree 0 and, above,
    ``index of the face without the last vertex * V + last vertex``, which
    orders the keys like the rows (see :meth:`_locate`).  The facets' back
    and front faces of each degree (``_ends``, read by ``cap_triples``) are
    taken from the enumeration's rank tables.

    Built once per manifold, by its constructor
    (:func:`enumerate_and_boundaries`), and kept with it as its ``chains``.
    ``simplices`` (vertex label tuples), ``index`` (dicts from those tuples
    to positions) and ``chain`` (the complex with its dense boundary blocks)
    are built once, on first use, and kept too.
    """

    def __init__(self, vertices: np.ndarray, facets: np.ndarray, signs: np.ndarray) -> None:
        self.vertices = vertices
        self.facets = facets
        self.signs = signs
        self.rows: list[np.ndarray] = [np.arange(vertices.size)[:, None]]
        self.faces: list[np.ndarray] = [np.zeros((vertices.size, 0), dtype=np.intp)]
        self._keys: list[np.ndarray] = [np.arange(vertices.size)]
        # per degree, the facets' last and first faces of that degree
        self._ends: list[tuple[np.ndarray, np.ndarray]] = [(facets[:, -1], facets[:, 0])]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.shape[0] for r in self.rows)

    def _locate(self, p: int, rows: np.ndarray) -> np.ndarray:
        """The index in degree ``p`` of each sorted row of ``p + 1`` vertex
        numbers (last axis), and -1 for a row that is not a simplex; a vertex
        number -1 stands for a point that is not a vertex."""
        index = rows[..., 0]
        found = index >= 0
        for j in range(1, p + 1):
            last = rows[..., j]
            key = index * self.vertices.size + last
            keys = self._keys[j]
            index = np.minimum(np.searchsorted(keys, key), keys.size - 1)
            found &= (last >= 0) & (keys[index] == key)
        return np.where(found, index, -1)

    def simplex(self, p: int, i: int) -> tuple[int, ...]:
        """The vertex labels of the ``i``-th ``p``-simplex."""
        return tuple(self.vertices[self.rows[p][i]].tolist())

    @cached_property
    def simplices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(tuple(map(tuple, self.vertices[r].tolist())) for r in self.rows)

    @cached_property
    def index(self) -> tuple[dict, ...]:
        return tuple({s: i for i, s in enumerate(degree)} for degree in self.simplices)

    @cached_property
    def chain(self) -> ChainComplex:
        """The simplicial chain complex, its boundaries laid out densely."""
        dims = self.dims
        bnds = []
        for p in range(1, len(dims)):
            mat = np.zeros((dims[p - 1], dims[p]))
            cols = np.arange(dims[p])
            for i, face in enumerate(self.faces[p].T):
                mat[face, cols] = (-1.0) ** i
            bnds.append(mat)
        return ChainComplex(dims, tuple(bnds))

    @cached_property
    def cap_triples(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per degree ``p``, the indices of the back faces
        ``[v_{N-p} .. v_N]`` (degree ``p``) and the front faces
        ``[v_0 .. v_{N-p}]`` (degree ``N - p``) of the facets, in the order of
        ``facets``; with ``signs`` they are the cap's (back, front, sign)
        triples, read off the ends that :func:`enumerate_and_boundaries`
        ranked facet by facet."""
        n = len(self.rows) - 1
        return tuple((self._ends[p][0], self._ends[n - p][1]) for p in range(n + 1))


@cache
def _subset_tables(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(p + 1)``-subsets of ``0 .. n`` in lexicographic order as rows,
    and for each the position among the ``p``-subsets of its front (without
    its last element) and of each subset without its ``i``-th element, in
    column ``i``; built once per ``(n, p)`` and only read."""
    lower = {s: i for i, s in enumerate(itertools.combinations(range(n + 1), p))}
    subsets = list(itertools.combinations(range(n + 1), p + 1))
    drops = [[lower[s[:i] + s[i + 1 :]] for i in range(p + 1)] for s in subsets]
    return np.array(subsets), np.array([lower[s[:-1]] for s in subsets]), np.array(drops)


def enumerate_and_boundaries(m: OrientedSimplicialManifold) -> SimplicialChainData:
    """List all simplices (sorted lexicographically per degree) and their
    faces, as integer arrays; the dense boundary matrices are laid out on
    first use of ``chain``.

    Degree ``p`` ranks every ``(p + 1)``-subset of every facet at once: each
    is keyed by the rank in degree ``p - 1`` of its front ``p``-subset, read
    off the previous degree's per-facet rank table, times ``V`` plus its
    last vertex, and one ``np.unique`` sorts the keys, keeps one row per
    distinct key (its first occurrence) and gives every subset its rank.
    The faces of the kept rows are one gather of the previous table at the
    subsets without one vertex, and the facets' back and front faces, for
    ``cap_triples``, are the last and first column of each table.  Only the
    previous degree's table is kept.
    """
    vertices, numbers = np.unique(m._facets, return_inverse=True)
    data = SimplicialChainData(vertices, numbers.reshape(-1, m.dim + 1), m._signs)
    rank = data.facets  # the rank of each p-subset of each facet, p = 0
    for p in range(1, m.dim + 1):
        subsets, front, drops = _subset_tables(m.dim, p)
        keys, first, inverse = np.unique(
            (rank[:, front] * vertices.size + data.facets[:, subsets[:, -1]]).ravel(),
            return_index=True,
            return_inverse=True,
        )
        facet, subset = np.divmod(first, subsets.shape[0])
        data._keys.append(keys)
        data.rows.append(data.facets[facet[:, None], subsets[subset]])
        data.faces.append(rank[facet[:, None], drops[subset]])
        rank = inverse.reshape(rank.shape[0], subsets.shape[0])
        data._ends.append((rank[:, -1], rank[:, 0]))
    return data


def fundamental_cycle(m: OrientedSimplicialManifold) -> np.ndarray:
    """Signed indicator vector of the facets; certifies orientation coherence.

    For a closed manifold the boundary of the cycle must vanish identically;
    with boundary it may only hit the boundary faces, those that lie in one
    facet.  Violations raise IncoherentOrientation (the arithmetic is exact on
    small integers).
    """
    chains = m.chains
    n = m.dim
    facet, _ = chains.cap_triples[n]  # in degree N the back face is the facet
    z = np.zeros(chains.dims[n])
    z[facet] = chains.signs
    if n >= 1:
        faces = chains.faces[n]
        weights = z[:, None] * (-1.0) ** np.arange(n + 1)
        bz = np.bincount(faces.ravel(), weights.ravel(), minlength=chains.dims[n - 1])
        bz[m._boundary] = 0.0
        row = _first(np.abs(bz) > 0.5)
        if row is not None:
            raise IncoherentOrientation(
                f"facet signs are not coherent around face {chains.simplex(n - 1, row)}"
            )
    return z


def cap_duality(m: OrientedSimplicialManifold) -> tuple[np.ndarray, ...]:
    """Raw integer cap with the fundamental cycle, one matrix per degree.

    Entry ``p`` maps cochains on ``(N-p)``-simplices (identified with chains
    through the simplex basis) to ``p``-chains: each facet contributes its
    facet sign at (back face, front face).  A facet is the union of its two
    faces, so no two facets share an entry.
    """
    fundamental_cycle(m)
    return tuple(_cap_blocks(m.chains, _cap_entries(m.chains, None)[0], 1, [1.0] * (m.dim + 1)))


# Real phases stay real, so a 4k-dimensional cap stays real.
_FOURTH_ROOTS = (1.0, 1.0j, -1.0, -1.0j)


def _phase_exponent(n: int, p: int) -> int:
    base = 0 if n % 4 in (0, 1) else 1
    return (base + 2 * p * n - p * (p + 1)) % 4


def _roots(n: int) -> list:
    """The phase ``i^{e(p)}`` of each degree ``p`` of an ``n``-dimensional cap."""
    return [_FOURTH_ROOTS[_phase_exponent(n, p)] for p in range(n + 1)]


def _symmetrize(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    n = len(blocks) - 1
    return tuple(
        (blocks[k] + adjoint(blocks[n - k])) / 2.0 for k in range(n + 1)
    )


@dataclass(frozen=True)
class CapReport:
    """Residuals of the cap-product duality construction.

    The structural identities hold exactly and the cone is invertible, or
    the construction raises (:func:`_duality_from_cap`), so no chain
    residual is reported and a returned report always passes.
    ``symmetrization_residual`` is diagnostic only (a Frobenius bound).  The
    cone operator's smallest |eigenvalue| is ``cone_min_singular_value``,
    the cone value of the chain equivalent Morse complex, read off the
    isotypic blocks of its action when there is one.
    """

    tol: float
    phases: tuple[complex, ...]
    symmetrization_residual: float
    cone_min_singular_value: float
    passed: bool


def duality_operator(
    m: OrientedSimplicialManifold, *, tol: float = DEFAULT_TOL, rho: GroupAction | None = None
) -> tuple[DualityOperator, CapReport]:
    """Symmetrized phased cap of a closed manifold, with its residual report.

    When a chain-level group action by signed permutations is supplied (as
    :func:`chain_action` builds it; another raises PreconditionViolated) the
    phased family is averaged over the group before symmetrization, so the
    result commutes with the action (see :func:`_cap_blocks`).  Raises
    DegenerateDuality if an identity of the duality fails exactly or the
    symmetrized family fails invertibility on the cone, EquivarianceViolated
    if the action fails to commute exactly, and PreconditionViolated for
    manifolds with boundary (those go through :func:`bordism_to_cwb`).
    """
    cap = _closed_duality(m, tol, rho)
    return cap.dual, cap.report


class _CapDuality:
    """The duality check of a closed manifold's symmetrized phased cap, as
    :func:`_duality_from_cap` decides it: the verdict, the cone value, and
    ``B + S`` and ``B - S`` diagonalised over the group of the action.  The
    phased cap's degree blocks, and with them the duality (:attr:`dual`) and
    the report's symmetrization residual, are laid out from the cap entries
    on first read."""

    halves: _Halves
    cone_min_singular_value: float
    passed: bool

    def __init__(self, chains: SimplicialChainData, tol: float, rho: GroupAction | None) -> None:
        self.chains, self.tol = chains, tol
        self.roots = _roots(len(chains.rows) - 1)
        self.cap, self.count = _cap_entries(chains, rho)

    @cached_property
    def phased(self) -> list[np.ndarray]:
        return _cap_blocks(self.chains, self.cap, self.count, self.roots)

    @cached_property
    def dual(self) -> DualityOperator:
        return DualityOperator(_symmetrize(self.phased))

    @property
    def report(self) -> CapReport:
        diff = [(p - s).ravel() for p, s in zip(self.phased, self.dual.blocks)]
        return CapReport(
            tol=self.tol,
            phases=tuple(complex(r) for r in self.roots),
            symmetrization_residual=frobenius_norm(np.concatenate(diff)),
            cone_min_singular_value=self.cone_min_singular_value,
            passed=self.passed,
        )


def _closed_duality(
    m: OrientedSimplicialManifold, tol: float, rho: GroupAction | None
) -> _CapDuality:
    """:func:`duality_operator` with everything its duality check computed."""
    if m.with_boundary:
        raise PreconditionViolated(
            "duality_operator needs a closed manifold; "
            "manifolds with boundary use bordism_to_cwb"
        )
    fundamental_cycle(m)
    return _duality_from_cap(m.chains, tol, rho)


def _duality_from_cap(
    chains: SimplicialChainData, tol: float, rho: GroupAction | None
) -> _CapDuality:
    """:func:`duality_operator` of a closed manifold with a coherent
    fundamental cycle, from its cap entries (:func:`_cap_entries`).

    Every identity, the action gate's included, is decided exactly
    (:func:`_exact_identities`); the first that fails is refused, an action
    that does not commute with EquivarianceViolated and any other with
    DegenerateDuality.  No float gate runs and no degree block is laid out:
    ``B + S`` and, in odd degree, ``B - S`` of the Morse complex, chain
    equivalent and much smaller (:func:`~hpsig.reduce.morse_complex`, with
    or without ``rho``, which carries the raw cap over and averages it
    there), are diagonalised over the group of its action
    (:func:`~hpsig.complexes._diagonalise_halves`), and the cone value is
    their smallest |eigenvalue|.
    """
    out = _CapDuality(chains, tol, rho)
    failed = _exact_identities(chains, rho, out.cap)
    if failed is not None:
        error = EquivarianceViolated if failed == "action_residual" else DegenerateDuality
        raise error(f"{_DUALITY_FAILURES[failed]} on the integer arrays")
    morse = morse_complex(chains, out.roots, rho)
    n = len(chains.rows) - 1
    out.halves = _diagonalise_halves(*reduced_halves(morse), n, tol, morse.action)
    out.passed, out.cone_min_singular_value = _halves_invertibility(*out.halves, tol)
    if not out.passed:
        raise DegenerateDuality(
            f"symmetrized cap duality is degenerate (smallest cone singular "
            f"value {out.cone_min_singular_value:.3e})"
        )
    return out


def _exact_identities(
    chains: SimplicialChainData, rho: GroupAction | None, cap: Sequence[tuple]
) -> str | None:
    """The first identity of the duality check of the symmetrized phased
    cap (averaged over ``rho``) that fails exactly, as the
    :class:`~hpsig.complexes.DualityReport` field that gates it, or None
    when every one holds.

    ``b_k`` has the entry ``(-1)^i`` at ``(faces[k][j, i], j)`` and ``P_k``
    is ``i^{e(k)}`` times the integer entries ``cap`` of
    :func:`_cap_entries` divided by their count.  ``b b = 0``
    (``boundary_residual``), the only check of the face arrays on this
    route, is decided one simplex at a time (:func:`_squares_to_zero`); the
    other identities are lists of (row, column, integer) entries whose sums
    by position must vanish (:func:`_vanishes`): the action's
    (``action_residual``, :func:`_action_commutes`) and ``b P + P b^* = 0``
    (``chain_residual``), which carries over to ``P^*`` (take adjoints), to
    ``S = (P + P^*) / 2`` and to the cone's chain-map gate.  The chain
    condition is decided on the raw cap, ``|G|`` times fewer entries than
    the group average: once every ``rho(g)`` commutes with ``b``, each
    conjugate ``rho(g)^* P rho(g)`` anticommutes with ``b`` when ``P``
    does.  ``S`` is self-adjoint by construction, in floating point too.
    """
    n, dims, faces = len(chains.rows) - 1, chains.dims, chains.faces
    if not all(_squares_to_zero(faces, k) for k in range(1, n)):
        return "boundary_residual"
    if rho is not None and not _action_commutes(chains, rho, cap, _boundary_entries(chains)):
        return "action_residual"

    def anticommutes(x: Sequence[tuple], k: int) -> bool:  # b_k P_k + P_{k-1} b^*_{n-k+1} = 0
        one = _times_boundary(faces, k, *x[k])
        rows, cols, vals = x[k - 1]
        cols, rows, vals = _times_boundary(faces, n - k + 1, cols, rows, vals)  # x b^* = (b x^T)^T
        u = (_phase_exponent(n, k - 1) - _phase_exponent(n, k)) % 4  # P_{k-1} : P_k
        if u % 2:  # a real and an imaginary integer matrix
            return _vanishes(*one, dims[n - k]) and _vanishes(rows, cols, vals, dims[n - k])
        return _vanishes(*one, dims[n - k], (rows, cols, vals * (1 - u)))

    raw = cap if rho is None else _cap_entries(chains, None)[0]
    if not all(anticommutes(raw, k) for k in range(1, n + 1)):
        return "chain_residual"
    return None


def _squares_to_zero(faces: Sequence[np.ndarray], k: int) -> bool:
    """Whether ``b_k b_{k+1} = 0``, decided one ``(k + 1)``-simplex at a
    time: its faces' faces ``ff[j, i, l]``, the face without vertex ``l`` of
    its face without vertex ``i``, enter column ``j`` with the sign
    ``(-1)^(i + l)``, so the column vanishes exactly when the sorted entries
    at even ``i + l`` equal those at odd ``i + l`` (as many of each)."""
    ff = faces[k][faces[k + 1]]
    odd = np.add.outer(np.arange(k + 2), np.arange(k + 1)) % 2 == 1
    even, odd = ff[:, ~odd], ff[:, odd]  # copies, sorted in place to hold the peak
    even.sort(axis=1)
    odd.sort(axis=1)
    return np.array_equal(even, odd)


def _boundary_entries(chains: SimplicialChainData) -> dict[int, tuple]:
    """``b_k`` for every degree ``k >= 1`` as (rows, columns, integers): ``b_k``
    times the identity."""
    return {
        k: _times_boundary(chains.faces, k, np.arange(d), np.arange(d), np.ones(d, np.int64))
        for k, d in enumerate(chains.dims)
        if k
    }


def _times_boundary(faces: Sequence[np.ndarray], k: int, rows, cols, vals) -> tuple:
    """``b_k x`` for the integer entries ``(rows, cols, vals)`` of ``x``: one
    entry per face of each row's ``k``-simplex, times its sign ``(-1)^i``."""
    signs = 1 - 2 * (np.arange(k + 1) % 2)
    return faces[k][rows].ravel(), np.repeat(cols, k + 1), (vals[:, None] * signs).ravel()


def _action_commutes(
    chains: SimplicialChainData, rho: GroupAction, cap: Sequence[tuple], bnd: dict[int, tuple]
) -> bool:
    """Whether every ``rho(g)`` commutes exactly with ``b`` (its entries
    ``bnd``, :func:`_boundary_entries`) and with the cap entries ``cap``
    (:func:`_cap_entries`), hence with ``P``, ``P^*`` and ``S``
    (``rho(g)^* = rho(g)^{-1}``): whether ``rho(g) x rho(g)^{-1} = x``, block
    by block on the total space, where ``rho(g)`` moves the entry ``(r, c,
    v)`` of ``x`` to ``(dst[r], dst[c], v sign[r] sign[c])``.  It is decided
    on the group's generators: if ``rho(g)`` and ``rho(h)`` commute with
    ``x``, so does ``rho(gh) = rho(g) rho(h)``, which holds exactly for every
    action :func:`chain_action` returns."""
    n, width = len(chains.rows) - 1, sum(chains.dims)
    offsets = np.cumsum((0, *chains.dims))
    dst, sign = rho._images
    # (row degree, column degree, entries); for odd n a boundary block and a
    # cap block share their position, so each block is decided alone
    blocks = [(k - 1, k, x) for k, x in bnd.items()] + [(k, n - k, x) for k, x in enumerate(cap)]

    def fixed(g: int, r: int, c: int, x: tuple) -> bool:
        rows, cols, vals = x
        rows, cols = rows + offsets[r], cols + offsets[c]
        moved = vals * (sign[g, rows] * sign[g, cols]).astype(np.int64)
        return _vanishes(dst[g, rows], dst[g, cols], moved, width, (rows, cols, -vals))

    return all(fixed(g, r, c, x) for g in rho.group.generators for r, c, x in blocks)


def _cap_entries(
    chains: SimplicialChainData, rho: GroupAction | None
) -> tuple[list[tuple], int]:
    """Per degree, the raw cap summed over its conjugates by ``rho`` (the raw
    cap itself without ``rho``) as (rows, columns, integers), and the number
    of terms summed, ``|G|`` or 1, which divides the sums into the group
    average: conjugating by the signed permutation ``rho(g)`` moves each
    facet's (back, front) entry to the images of back and front under
    ``rho(g)``, times their signs, and ``rho(g)`` runs over the group as
    ``rho(g)^{-1}`` does.  Raises PreconditionViolated for an action that is
    not by signed permutations, as :func:`chain_action`'s are."""
    n = len(chains.rows) - 1
    if rho is None:
        return [(back, front, chains.signs) for back, front in chains.cap_triples], 1
    if not rho.is_signed_permutation:
        raise PreconditionViolated(
            "the cap is averaged over an action by signed permutations of the simplices"
        )
    offsets = np.cumsum((0, *chains.dims))
    dst, sign = rho._images
    sign = sign.astype(np.int64)
    cap = []
    for k, (back, front) in enumerate(chains.cap_triples):
        back, front = offsets[k] + back, offsets[n - k] + front  # on the total space
        cap.append((
            (dst[:, back] - offsets[k]).ravel(),
            (dst[:, front] - offsets[n - k]).ravel(),
            (chains.signs * sign[:, back] * sign[:, front]).ravel(),
        ))
    return cap, rho.group.order


def _cap_blocks(
    chains: SimplicialChainData, cap: Sequence[tuple], count: int, roots: Sequence[complex]
) -> list[np.ndarray]:
    """The phased cap's degree blocks from the cap entries and their count
    (:func:`_cap_entries`): the sums by position times the phase ``roots[k]``,
    divided by the count; with phases 1.0 and no group, the raw cap, bit for
    bit its scatter into zeros.  With a group this is the group average of the
    phased cap under conjugation by the action, equal to the dense average
    up to the sign of zero: each of its entries is a sum of ``|G|`` terms
    ``0`` or ``±i^{e(k)}``, an exact integer multiple of the phase.

    The cap matrices are written in the basis of sorted vertex tuples, and a
    vertex permutation that scrambles that order moves the front/back split
    point, so the matrices themselves only commute with the action when every
    vertex map is order preserving.  Averaging over the group repairs this:
    the average commutes with the action by construction, still anticommutes
    with the boundary because the action does, and induces the same map on
    homology as every conjugate (the action fixes the fundamental class), so
    nondegeneracy survives.
    """
    n, dims = len(chains.rows) - 1, chains.dims
    blocks = []
    for k, (rows, cols, vals) in enumerate(cap):
        shape = (dims[k], dims[n - k])
        sums = np.bincount(rows * shape[1] + cols, vals, shape[0] * shape[1]).reshape(shape)
        blocks.append(roots[k] * sums / count)
    return blocks


def _vanishes(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, width: int, more=()) -> bool:
    """Whether the integer entries ``vals`` at ``(rows, cols)``, and those in
    ``more``, of a matrix ``width`` columns wide sum to zero at every position:
    whether the positions of the positive entries, each repeated ``v``
    times, sorted, equal those of the negative entries, each repeated
    ``|v|`` times, which is exact for any integers."""
    if more:
        rows, cols, vals = (np.concatenate(x) for x in zip((rows, cols, vals), more))
    keys = rows * width + cols
    up, down = vals > 0, vals < 0
    return np.array_equal(
        np.sort(np.repeat(keys[up], vals[up])), np.sort(np.repeat(keys[down], -vals[down]))
    )


@dataclass(eq=False)
class SimplicialAction:
    """A finite group acting by vertex permutations, one map per element."""

    group: FiniteGroup
    vertex_maps: tuple[dict, ...]

    def __post_init__(self) -> None:
        if len(self.vertex_maps) != self.group.order:
            raise ShapeMismatch(
                f"need one vertex map per element ({self.group.order}), "
                f"got {len(self.vertex_maps)}"
            )
        self.vertex_maps = tuple(
            {int(k): int(v) for k, v in dict(vm).items()} for vm in self.vertex_maps
        )


def _first(mask: np.ndarray) -> int | None:
    """The position of the first true entry of a vector, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _parities(rows: np.ndarray) -> np.ndarray:
    """The sign ``(-1)^inversions`` of the sort of each row (last axis) of
    distinct integers."""
    inversions = np.zeros(rows.shape[:-1], dtype=np.intp)
    for i, j in itertools.combinations(range(rows.shape[-1]), 2):
        inversions += rows[..., i] > rows[..., j]
    return 1 - 2 * (inversions % 2)


def _vertex_table(chains: SimplicialChainData, action: SimplicialAction, count: int) -> np.ndarray:
    """Per element of the first ``count`` (rows) and vertex number
    (columns), the number of the vertex's image, or -1 where the image is not
    a vertex.  A map that leaves out a vertex does not permute the vertex set
    and raises NotSimplicial."""
    labels = chains.vertices.tolist()
    number = {v: r for r, v in enumerate(labels)}
    try:
        table = [[number.get(vm[v], -1) for v in labels] for vm in action.vertex_maps[:count]]
    except KeyError:
        g = next(g for g, vm in enumerate(action.vertex_maps) if not vm.keys() >= set(labels))
        raise NotSimplicial(
            f"element {action.group.elements[g]} does not permute the vertex set"
        ) from None
    return np.array(table, np.intp).reshape(count, len(labels))


def _simplex_images(
    chains: SimplicialChainData, table: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``p``-simplices under each row of a vertex table, as
    ``(elements, dim_p)`` arrays: whether the map fixes the simplex vertex by
    vertex, the index of its image (-1 where that is not a ``p``-simplex) and
    the parity of the sort that orders the image's vertices, counted as
    inversions."""
    rows = chains.rows[p]
    mapped = table[:, rows]
    index = chains._locate(p, np.sort(mapped, axis=-1))
    return (mapped == rows).all(axis=-1), index, _parities(mapped).astype(float)


def chain_action(
    m: OrientedSimplicialManifold, action: SimplicialAction, *, tol: float = DEFAULT_TOL
) -> GroupAction:
    """Signed permutation representation on the chain spaces.

    Validates, element by element and in this order, that every vertex map
    permutes the vertex set and the facet set (NotSimplicial), acts regularly
    (a simplex mapped to itself must be fixed vertexwise; NotSimplicial with a
    hint to subdivide), and preserves the fundamental class
    (OrientationReversing).  Every simplex of every degree is mapped under all
    elements at once (:func:`_simplex_images`), and element ``g`` sends the
    ``j``-th ``p``-simplex to its image with the parity of the sort as sign.
    Those images and parities, laid side by side at the degree offsets, are
    the action's two ``(|G|, N)`` arrays on the total space
    (:meth:`~hpsig.groups.GroupAction._from_images`), which lays out dense
    blocks only when they are read.  The identity and the homomorphism
    property are checked on the vertex maps (``|G|^2 V`` comparisons); when
    those fail, the arrays name the first failure
    (:meth:`~hpsig.groups.GroupAction._check_images`), and the action is
    refused with NotRepresentation at every ``tol``.
    """
    chains = m.chains
    n = m.dim
    group = action.group
    vset = set(m.vertices)
    # the elements before the first that does not permute the vertex set
    valid = next(
        (
            g
            for g, vm in enumerate(action.vertex_maps)
            if set(vm.keys()) != vset or set(vm.values()) != vset
        ),
        group.order,
    )
    table = _vertex_table(chains, action, valid)
    images = [_simplex_images(chains, table, p) for p in range(n + 1)]
    irregular = [
        (index == np.arange(index.shape[1])) & ~fixed for fixed, index, _ in images
    ]
    facet, _ = chains.cap_triples[n]  # in degree N the back face is the facet
    facet_image, facet_parity = images[n][1][:, facet], images[n][2][:, facet]
    sign_at = np.zeros(chains.dims[n])
    sign_at[facet] = chains.signs
    for g in range(valid):
        name = group.elements[g]
        t = _first(facet_image[g] < 0)
        if t is not None:
            f = m.facets[t]
            image = tuple(sorted(action.vertex_maps[g][v] for v in f))
            raise NotSimplicial(
                f"element {name} maps facet {f} to {image}, which is not a facet"
            )
        for p in range(n + 1):
            i = _first(irregular[p][g])
            if i is not None:
                raise NotSimplicial(
                    f"element {name} fixes simplex {chains.simplex(p, i)} setwise but "
                    f"not pointwise; subdivide barycentrically once to make the "
                    f"action regular"
                )
        t = _first(sign_at[facet_image[g]] != chains.signs * facet_parity[g])
        if t is not None:
            raise OrientationReversing(
                f"element {name} reverses the orientation on facet {m.facets[t]}"
            )
    if valid < group.order:
        raise NotSimplicial(
            f"element {group.elements[valid]} does not permute the vertex set"
        )
    offsets = np.cumsum((0, *chains.dims))
    dst = np.concatenate([off + index for off, (_, index, _) in zip(offsets, images)], axis=1)
    sign = np.concatenate([parity for *_, parity in images], axis=1)
    rho = GroupAction._from_images(group, chains.dims, dst, sign, tol)
    # the chain action is a homomorphism when the vertex maps are one, since
    # the parity of a sort is multiplicative
    products = table[np.arange(group.order)[:, None, None], table]
    if not (
        np.array_equal(table[group.identity], np.arange(table.shape[1]))
        and np.array_equal(table[np.asarray(group.table)], products)
    ):
        rho._check_images()
    return rho


@dataclass(frozen=True)
class EquivarianceReport:
    """Commutation residuals of a chain action with the structure maps.

    ``duality_residual`` measures the duality operator the pipeline actually
    uses (group averaged when the action scrambles the vertex order).  Both
    commutators are decided exactly on the integer arrays, and a failure
    raises, so a returned report always has residuals 0.0 and passes.
    """

    tol: float
    boundary_residual: float
    duality_residual: float
    passed: bool


def verify_equivariance(
    m: OrientedSimplicialManifold, action: SimplicialAction, *, tol: float = DEFAULT_TOL
) -> EquivarianceReport:
    """Commutators of the action with the boundary and with the group
    averaged cap, closed or with boundary.

    Both are decided exactly on the integer arrays
    (:func:`_action_commutes`): no eigensolve runs and no block is laid out.
    Raises EquivarianceViolated when one fails, and the errors of
    :func:`chain_action` and :func:`fundamental_cycle`.
    """
    chains = m.chains
    rho = chain_action(m, action, tol=tol)
    fundamental_cycle(m)
    if not _action_commutes(chains, rho, _cap_entries(chains, rho)[0], _boundary_entries(chains)):
        raise EquivarianceViolated(f"{_DUALITY_FAILURES['action_residual']} on the integer arrays")
    return EquivarianceReport(tol=tol, boundary_residual=0.0, duality_residual=0.0, passed=True)


def to_hp_complex(
    m: OrientedSimplicialManifold,
    action: SimplicialAction | None = None,
    *,
    tol: float = DEFAULT_TOL,
) -> HilbertPoincareComplex:
    """Duality complex of a closed oriented triangulated manifold."""
    rho = chain_action(m, action, tol=tol) if action is not None else None
    return HilbertPoincareComplex(m.chains.chain, _closed_duality(m, tol, rho).dual, rho)


def manifold_signature(
    m: OrientedSimplicialManifold,
    action: SimplicialAction | None = None,
    *,
    tol: float = DEFAULT_TOL,
) -> CoincidenceReport:
    """Signature classes of a closed manifold through all three constructions.

    The classes of ``check_coincidence(to_hp_complex(m, action, tol=tol),
    tol)``, with ``B + S`` and ``B - S`` diagonalised once, in the
    duality check, and read again by the constructions.  They are those of
    the Morse complex, with or without an action, whose spectral gaps are
    reported, and no degree block of ``b`` or ``S`` is laid out; an identity
    that fails exactly is refused (see :func:`_duality_from_cap`).
    """
    rho = chain_action(m, action, tol=tol) if action is not None else None
    cap = _closed_duality(m, tol, rho)
    return _coincidence(m.dim, None if rho is None else rho.group, cap.halves, tol)


def bordism_to_cwb(
    m: OrientedSimplicialManifold, *, tol: float = DEFAULT_TOL
) -> ComplexWithBoundary:
    """Complex-with-boundary of a triangulated manifold with boundary.

    The distinguished subcomplex is spanned by the simplices of the boundary:
    the codimension-one faces that lie in a single facet, and all their faces.
    The duality family is the symmetrized phased cap of the relative
    fundamental cycle.
    """
    if not m.with_boundary:
        raise PreconditionViolated("manifold is closed; use to_hp_complex")
    fundamental_cycle(m)
    chains, n = m.chains, m.dim
    sym = _symmetrize(_cap_blocks(chains, _cap_entries(chains, None)[0], 1, _roots(n)))
    split = [np.zeros(0, dtype=np.intp)] * (n + 1)
    split[n - 1] = m._boundary
    for p in range(n - 1, 0, -1):
        split[p - 1] = np.unique(chains.faces[p][split[p]])
    cwb = ComplexWithBoundary(chains.chain, DualityOperator(sym), tuple(split))
    rep = verify_with_boundary(cwb, tol=tol)
    if not rep.passed:
        exc = BoundaryConditionViolated(
            "triangulation does not satisfy the boundary structure: "
            + "; ".join(rep.failures)
        )
        exc.report = rep
        raise exc
    return cwb


@dataclass(frozen=True)
class GeometryStats:
    """Combinatorial size data of a triangulation (and action, if any)."""

    simplex_counts: tuple[int, ...]
    max_closed_star: int
    max_isotropy_order: int


def geometry_stats(
    m: OrientedSimplicialManifold, action: SimplicialAction | None = None
) -> GeometryStats:
    """Simplex counts, the largest closed vertex star (counting simplices of
    every dimension), and the largest simplex stabilizer order.

    The closed star of ``v`` is its star ``St(v)``, the simplices that
    contain ``v``, and its link, which ``tau -> tau + {v}`` maps one to one
    onto ``St(v)`` without ``{v}``: it holds ``2 |St(v)| - 1`` simplices.
    A simplex's stabilizer is counted from the images of
    :func:`_simplex_images`, which no regularity or simpliciality check
    precedes, so any vertex maps defined on every vertex are read; a map
    that leaves out a vertex raises NotSimplicial.
    """
    chains = m.chains
    star = sum(np.bincount(r.ravel(), minlength=chains.vertices.size) for r in chains.rows)
    max_star = 2 * int(star.max()) - 1
    max_iso = 1
    if action is not None:
        table = _vertex_table(chains, action, action.group.order)
        for p in range(m.dim + 1):
            index = _simplex_images(chains, table, p)[1]
            stab = np.count_nonzero(index == np.arange(index.shape[1]), axis=0)
            max_iso = max(max_iso, int(stab.max(initial=0)))
    return GeometryStats(
        simplex_counts=chains.dims,
        max_closed_star=max_star,
        max_isotropy_order=max_iso,
    )


def barycentric_subdivide(
    m: OrientedSimplicialManifold,
    action: SimplicialAction | None = None,
) -> tuple[OrientedSimplicialManifold, SimplicialAction | None]:
    """First barycentric subdivision, with the action transported to it.

    New vertices are the simplices of the old complex, numbered in order of
    (dimension, vertex tuple); each maximal flag of faces of a facet becomes a
    facet, signed by the facet sign times the permutation parity.  Any
    simplicial action becomes regular after one subdivision because the
    vertices of a flag have pairwise distinct dimensions.  Raises
    NotSimplicial when a vertex map leaves out a vertex or sends a simplex to
    a non-simplex.
    """
    chains = m.chains
    n = m.dim
    offsets = np.cumsum((0, *chains.dims))
    perms = np.array(list(itertools.permutations(range(n + 1))), dtype=np.intp)
    # facet t, permutation q: flag vertex k is the face on the first k + 1
    # vertices that q visits
    flags = np.stack(
        [
            offsets[k] + chains._locate(k, np.sort(chains.facets[:, perms[:, : k + 1]], axis=-1))
            for k in range(n + 1)
        ],
        axis=-1,
    )
    signs = chains.signs[:, None] * _parities(perms)
    m2 = OrientedSimplicialManifold(flags.reshape(-1, n + 1), signs.ravel())
    if action is None:
        return m2, None
    table = _vertex_table(chains, action, action.group.order)
    images = [_simplex_images(chains, table, p)[1] for p in range(n + 1)]
    for g in range(action.group.order):
        for p, index in enumerate(images):
            i = _first(index[g] < 0)
            if i is not None:
                s = chains.simplex(p, i)
                image = tuple(sorted(action.vertex_maps[g][v] for v in s))
                raise NotSimplicial(
                    f"element {action.group.elements[g]} maps simplex {s} to "
                    f"{image}, which is not a simplex"
                )
    # old simplex i of degree p is new vertex offsets[p] + i
    new_images = np.concatenate([off + index for off, index in zip(offsets, images)], axis=1)
    new_ids = range(offsets[-1])
    new_maps = tuple(dict(zip(new_ids, row)) for row in new_images.tolist())
    return m2, SimplicialAction(action.group, new_maps)
