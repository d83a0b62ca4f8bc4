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
indices, and the facets' (back, front, sign) cap triples.  The duality
check's structural identities are decided on them exactly
(:func:`_exact_identities`).  Dense blocks are laid out only where a dense
construction reads them: the boundary on first use of ``chain``, and the cap
in :func:`cap_duality`.

Group actions are given by vertex permutations.  They must be simplicial
(simplices map to simplices), regular (a simplex fixed setwise is fixed
pointwise; one barycentric subdivision always repairs this), and orientation
preserving.  Every simplex is mapped under every element at once through a
vertex lookup table, a row sort, an inversion count for the parity and a key
lookup for the image (:func:`_simplex_images`), which the chain action, the
isotropy count of :func:`geometry_stats` and :func:`barycentric_subdivide`
share.  The chain action is handed to :class:`~hpsig.groups.GroupAction` as
signed permutations, and its commutators with the boundary and the duality
are gated block by block by the duality check's action gate.  For vertex maps
that scramble the global order the cap matrices do not commute with the
action on the nose (the split point of a facet moves with the sort), so
equivariant duality operators are built by averaging the phased cap over the
group; see :func:`_average_over_group`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .bordism import ComplexWithBoundary, verify_with_boundary
from .complexes import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    _action_gates,
    _ActionGates,
    _anticommutator,
    _commutator_blocks,
    _duality_sides,
    _Halves,
    _verify_duality,
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
from .groups import FiniteGroup, GroupAction, _SignedPermutation
from .linalg import (
    DEFAULT_TOL,
    _block_frobenius_norm,
    adjoint,
    frobenius_norm,
    residual_within,
)
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


@dataclass(eq=False)
class OrientedSimplicialManifold:
    """Pure simplicial complex of facet dimension ``dim`` with facet signs.

    Facets are sorted vertex tuples; every codimension-one face must lie in
    one or two facets.  ``with_boundary`` is derived from the face counts.
    Coherence of the signs is not checked here; it is certified by
    :func:`fundamental_cycle`.
    """

    facets: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        facets = tuple(tuple(int(v) for v in f) for f in self.facets)
        if not facets:
            raise InvalidFacet("a manifold needs at least one facet")
        size = len(facets[0])
        for f in facets:
            if len(f) != size:
                raise InvalidFacet(f"facet {f} has {len(f)} vertices, expected {size}")
            if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
                raise InvalidFacet(f"facet {f} is not a sorted tuple of distinct vertices")
        if len(set(facets)) != len(facets):
            raise InvalidFacet("duplicate facets")
        signs = tuple(int(s) for s in self.signs)
        if len(signs) != len(facets) or any(s not in (-1, 1) for s in signs):
            raise InvalidFacet("signs must be +1 or -1, one per facet")
        counts: dict[tuple[int, ...], int] = {}
        if size >= 2:
            for f in facets:
                for i in range(size):
                    face = f[:i] + f[i + 1 :]
                    counts[face] = counts.get(face, 0) + 1
            bad = [face for face, c in counts.items() if c > 2]
            if bad:
                raise InvalidFacet(
                    f"face {bad[0]} lies in {counts[bad[0]]} facets; at most 2 allowed"
                )
        self.facets = facets
        self.signs = signs
        self._face_counts = counts
        self.vertices = tuple(sorted({v for f in facets for v in f}))
        self.dim = size - 1
        self.with_boundary = any(c == 1 for c in counts.values())

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
        assignment uniquely.  Raises IncoherentOrientation when no coherent
        assignment exists.
        """
        sorted_facets = tuple(tuple(sorted(int(v) for v in f)) for f in facets)
        if signs is not None:
            return cls(sorted_facets, tuple(signs))
        m = len(sorted_facets)
        if not m:
            raise InvalidFacet("a manifold needs at least one facet")
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
        return cls(sorted_facets, tuple(solved))

    def boundary_faces(self) -> tuple[tuple[int, ...], ...]:
        """Codimension-one faces lying in exactly one facet."""
        return tuple(sorted(f for f, c in self._face_counts.items() if c == 1))


class SimplicialChainData:
    """The simplices of a triangulation as integer arrays, with their faces.

    Vertices are numbered ``0 .. V-1`` in increasing label order
    (``vertices[r]`` is the label of vertex ``r``).  ``rows[p]`` lists the
    ``p``-simplices in lexicographic order as sorted rows of vertex numbers,
    shape ``(dim_p, p + 1)``.  ``faces[p]`` has the same shape for ``p >= 1``:
    column ``i`` holds the index in degree ``p - 1`` of the face without the
    ``i``-th vertex, which the boundary gives the sign ``(-1)^i``; degree 0 has
    no faces.  ``facets`` holds the manifold's facets in its own order, as
    rows of vertex numbers, and ``signs`` their signs.

    A simplex is found by its key: its vertex number in degree 0 and, above,
    ``index of the face without the last vertex * V + last vertex``, which
    orders the keys like the rows (see :meth:`_locate`).

    ``simplices`` (vertex label tuples), ``index`` (dicts from those tuples to
    positions) and ``chain`` (the complex with its dense boundary blocks) are
    built once, on first use.
    """

    def __init__(self, vertices: np.ndarray, facets: np.ndarray, signs: np.ndarray) -> None:
        self.vertices = vertices
        self.facets = facets
        self.signs = signs
        self.rows: list[np.ndarray] = [np.arange(vertices.size)[:, None]]
        self.faces: list[np.ndarray] = [np.zeros((vertices.size, 0), dtype=np.intp)]
        self._keys: list[np.ndarray] = [np.arange(vertices.size)]

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
        triples."""
        n = len(self.rows) - 1
        return tuple(
            (
                self._locate(p, self.facets[:, n - p :]),
                self._locate(n - p, self.facets[:, : n - p + 1]),
            )
            for p in range(n + 1)
        )


def enumerate_and_boundaries(m: OrientedSimplicialManifold) -> SimplicialChainData:
    """List all simplices (sorted lexicographically per degree) and their
    faces, as integer arrays; the dense boundary matrices are laid out on
    first use of ``chain``.

    Degree ``p`` takes every ``(p + 1)``-subset of every facet at once, keys
    each by the index of its front ``p``-subset in degree ``p - 1``
    (:meth:`SimplicialChainData._locate`), keeps one row per distinct key
    (``np.unique`` sorts them), and locates the faces of the kept rows.
    """
    facets = np.array(m.facets, dtype=np.int64)
    vertices = np.unique(facets)
    data = SimplicialChainData(
        vertices, np.searchsorted(vertices, facets), np.array(m.signs, dtype=float)
    )
    n = m.dim
    for p in range(1, n + 1):
        subsets = list(itertools.combinations(range(n + 1), p + 1))
        rows = data.facets[:, subsets].reshape(-1, p + 1)
        keys, first = np.unique(
            data._locate(p - 1, rows[:, :p]) * vertices.size + rows[:, p], return_index=True
        )
        rows = rows[first]
        data._keys.append(keys)
        data.rows.append(rows)
        faces = [data._locate(p - 1, np.delete(rows, i, axis=1)) for i in range(p + 1)]
        data.faces.append(np.stack(faces, axis=1))
    return data


def fundamental_cycle(
    m: OrientedSimplicialManifold, chains: SimplicialChainData | None = None
) -> np.ndarray:
    """Signed indicator vector of the facets; certifies orientation coherence.

    For a closed manifold the boundary of the cycle must vanish identically;
    with boundary it may only hit the boundary faces, those that lie in one
    facet.  Violations raise IncoherentOrientation (the arithmetic is exact on
    small integers).
    """
    chains = chains or enumerate_and_boundaries(m)
    n = m.dim
    facet, _ = chains.cap_triples[n]  # in degree N the back face is the facet
    z = np.zeros(chains.dims[n])
    z[facet] = chains.signs
    if n >= 1:
        faces = chains.faces[n]
        weights = z[:, None] * (-1.0) ** np.arange(n + 1)
        bz = np.bincount(faces.ravel(), weights.ravel(), minlength=chains.dims[n - 1])
        allowed = np.bincount(faces.ravel(), minlength=chains.dims[n - 1]) == 1
        row = _first((np.abs(bz) > 0.5) & ~allowed)
        if row is not None:
            raise IncoherentOrientation(
                f"facet signs are not coherent around face {chains.simplex(n - 1, row)}"
            )
    return z


def cap_duality(
    m: OrientedSimplicialManifold, chains: SimplicialChainData | None = None
) -> tuple[np.ndarray, ...]:
    """Raw integer cap with the fundamental cycle, one matrix per degree.

    Entry ``p`` maps cochains on ``(N-p)``-simplices (identified with chains
    through the simplex basis) to ``p``-chains: each facet contributes its
    facet sign at (back face, front face).  A facet is the union of its two
    faces, so no two facets share an entry.
    """
    chains = chains or enumerate_and_boundaries(m)
    fundamental_cycle(m, chains)
    n = m.dim
    out = []
    for p, (back, front) in enumerate(chains.cap_triples):
        mat = np.zeros((chains.dims[p], chains.dims[n - p]))
        mat[back, front] = chains.signs
        out.append(mat)
    return tuple(out)


# Real phases stay real, so a 4k-dimensional cap stays real.
_FOURTH_ROOTS = (1.0, 1.0j, -1.0, -1.0j)


def _phase_exponent(n: int, p: int) -> int:
    base = 0 if n % 4 in (0, 1) else 1
    return (base + 2 * p * n - p * (p + 1)) % 4


def _phased_cap(
    m: OrientedSimplicialManifold, chains: SimplicialChainData
) -> tuple[list[np.ndarray], tuple[complex, ...]]:
    raw = cap_duality(m, chains)
    roots = [_FOURTH_ROOTS[_phase_exponent(m.dim, p)] for p in range(m.dim + 1)]
    return [r * raw[p] for p, r in enumerate(roots)], tuple(complex(r) for r in roots)


def _symmetrize(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    n = len(blocks) - 1
    return tuple(
        (blocks[k] + adjoint(blocks[n - k])) / 2.0 for k in range(n + 1)
    )


def _average_over_group(
    blocks: Sequence[np.ndarray], rho: GroupAction
) -> list[np.ndarray]:
    """Group average of a duality family under conjugation by the action.

    The cap matrices are written in the basis of sorted vertex tuples, and a
    vertex permutation that scrambles that order moves the front/back split
    point, so the matrices themselves only commute with the action when every
    vertex map is order preserving.  Averaging over the group repairs this:
    the average commutes with the action by construction, still anticommutes
    with the boundary because the action does, and induces the same map on
    homology as every conjugate (the action fixes the fundamental class), so
    nondegeneracy survives.
    """
    n = len(blocks) - 1
    order = rho.group.order
    return [
        sum(
            rho.operator(g, k).conjugate(blocks[k], rho.operator(g, n - k))
            for g in range(order)
        )
        / order
        for k in range(n + 1)
    ]


@dataclass(frozen=True)
class CapReport:
    """Residuals of the cap-product duality construction.

    ``raw_chain_residual`` gates the phase normalization.
    ``symmetrization_residual`` and ``chain_residual`` are diagnostic only
    (Frobenius bounds); ``chain_residual`` is the Frobenius norm of the
    anticommutator ``b S + S b^*`` that the duality check forms for its own
    chain gate.  Both chain residuals are 0.0, that of the exact integer
    operator, when the chain condition holds on the integer arrays, which
    then decide it (:func:`_exact_identities`).  ``passed`` is the verdict of
    :func:`verify_duality` on the symmetrized family, with the action when
    one is given, and the cone operator's smallest |eigenvalue| is
    ``cone_min_singular_value``.
    """

    tol: float
    phases: tuple[complex, ...]
    raw_chain_residual: float
    symmetrization_residual: float
    chain_residual: float
    cone_min_singular_value: float
    passed: bool


def duality_operator(
    m: OrientedSimplicialManifold,
    chains: SimplicialChainData | None = None,
    tol: float = DEFAULT_TOL,
    rho: GroupAction | None = None,
) -> tuple[DualityOperator, CapReport]:
    """Symmetrized phased cap of a closed manifold, with its residual report.

    When a chain-level group action is supplied the phased family is averaged
    over the group before symmetrization, so the result commutes with the
    action (see :func:`_average_over_group`).  Raises DegenerateDuality if the
    symmetrized family fails invertibility on the cone, and
    PreconditionViolated for manifolds with boundary (those go through
    :func:`bordism_to_cwb`).
    """
    cap = _closed_duality(m, chains, tol, rho, for_signatures=False)
    return cap.dual, cap.report


@dataclass(frozen=True)
class _CapDuality:
    """One pass of :func:`_duality_from_cap`: the duality and its report, the
    action gate of the duality check, and, for the signature constructions,
    the halves ``B + S`` and ``B - S`` with their diagonalisations when the
    duality check returned them (see
    :func:`~hpsig.complexes._verify_duality`)."""

    dual: DualityOperator
    report: CapReport
    gates: _ActionGates
    halves: _Halves | None


def _closed_duality(
    m: OrientedSimplicialManifold,
    chains: SimplicialChainData | None,
    tol: float,
    rho: GroupAction | None,
    for_signatures: bool,
) -> _CapDuality:
    """:func:`duality_operator` with everything its duality check computed."""
    if m.with_boundary:
        raise PreconditionViolated(
            "duality_operator needs a closed manifold; "
            "manifolds with boundary use bordism_to_cwb"
        )
    chains = chains or enumerate_and_boundaries(m)
    return _duality_from_cap(chains, *_phased_cap(m, chains), tol, rho, for_signatures)


def _duality_from_cap(
    chains: SimplicialChainData,
    phased: Sequence[np.ndarray],
    phases: tuple[complex, ...],
    tol: float,
    rho: GroupAction | None,
    for_signatures: bool,
) -> _CapDuality:
    """:func:`duality_operator` of a closed manifold from its phased cap.

    Identities that hold exactly (:func:`_exact_identities`) report 0.0 and
    skip their float gates.  The duality check gates ``rho`` when it is
    given, so ``passed`` holds only for an action that commutes with ``b``
    and ``S``.  The halves are kept only ``for_signatures``, diagonalised
    for the classes over the group of ``rho`` (see
    :func:`~hpsig.complexes._diagonalise`), as
    :func:`~hpsig.signature._coincidence` reads them.  Otherwise the check
    computes spectra only and the halves are None.
    """
    holds = _exact_identities(chains, rho)
    if rho is not None:
        phased = _average_over_group(phased, rho)
    chain = chains.chain
    raw_ok, raw_res = True, 0.0
    if "raw_chain_residual" not in holds:
        pdual = DualityOperator(tuple(phased))
        btot, ptot = chain.total_boundary(), pdual.total(chain)
        raw_ok, raw_res = residual_within(
            _anticommutator(chain, _duality_sides(chain, pdual.blocks)),
            tol,
            lambda norm: norm(btot) * norm(ptot),
        )
    sym = _symmetrize(phased)
    dual = DualityOperator(sym)
    sym_res = frobenius_norm(np.concatenate([(p - s).ravel() for p, s in zip(phased, sym)]))
    rep, halves, anti, gates = _verify_duality(
        HilbertPoincareComplex(chain, dual, rho), tol, rho if for_signatures else None, holds
    )
    report = CapReport(
        tol=tol,
        phases=phases,
        raw_chain_residual=raw_res,
        symmetrization_residual=sym_res,
        chain_residual=0.0 if anti is None else frobenius_norm(anti),
        cone_min_singular_value=rep.cone_min_singular_value,
        passed=rep.passed,
    )
    if not rep.cone_invertible:
        raise DegenerateDuality(
            f"symmetrized cap duality is degenerate (smallest cone singular "
            f"value {rep.cone_min_singular_value:.3e})"
        )
    if not raw_ok:
        raise DegenerateDuality(
            f"phased cap does not anticommute with the boundary "
            f"(residual {raw_res:.3e}); the phase normalization does not fit "
            f"this complex"
        )
    return _CapDuality(dual, report, gates, halves if for_signatures else None)


def _exact_identities(chains: SimplicialChainData, rho: GroupAction | None) -> frozenset[str]:
    """The identities of the duality check of the symmetrized phased cap
    (averaged over ``rho``) that hold exactly, by the report field that gates
    each (``raw_chain_residual`` for the phased cap's chain condition).

    ``b_k`` has the entry ``(-1)^i`` at ``(faces[k][j, i], j)`` and ``P_k``
    is ``i^{e(k)} / |G|`` times the integer entries of :func:`_cap_entries`,
    so each identity is a list of (row, column, integer) entries whose sums
    by position must vanish: ``b b = 0``; ``b P + P b^* = 0``, which carries
    over to ``P^*`` (take adjoints), to ``S = (P + P^*) / 2`` and to the
    cone's chain-map gate; and ``rho(g)`` commutes with ``b`` and ``|G| P``,
    hence with ``P^*`` and ``S`` (``rho(g)^* = rho(g)^{-1}``).  ``S`` is
    self-adjoint by construction, in floating point too.  Without signed
    permutations only ``b b`` and self-adjointness are decided here.
    """
    n, dims, faces = len(chains.rows) - 1, chains.dims, chains.faces

    def signed(vals, k):  # once per face of a k-simplex, times the sign (-1)^i
        return (vals[:, None] * (1 - 2 * (np.arange(k + 1) % 2))).ravel()

    def left(k, rows, cols, vals):  # b_k x
        return faces[k][rows].ravel(), np.repeat(cols, k + 1), signed(vals, k)

    def right(k, rows, cols, vals):  # x b_k^*
        return np.repeat(rows, k + 1), faces[k][cols].ravel(), signed(vals, k)

    def commutes(x, one, other, width):  # one x = x other, by signed permutations
        rows, cols, vals = x
        return _vanishes(
            one.dst[rows], cols, vals * one.dsgn.real[rows].astype(np.int64), width,
            (rows, other.src[cols], -vals * other.sgn.real[cols].astype(np.int64)),
        )

    eye = {k: (np.arange(d), np.arange(d), np.ones(d, np.int64)) for k, d in enumerate(dims) if k}
    bnd = {k: left(k, *x) for k, x in eye.items()}  # b_k as entries
    holds = {"selfadjoint_residual"}
    if all(_vanishes(*left(k, *bnd[k + 1]), dims[k + 1]) for k in range(1, n)):
        holds.add("boundary_residual")
    if rho is not None and not rho.is_signed_permutation:
        return frozenset(holds)
    cap = _cap_entries(chains, rho)

    def anticommutes(k: int) -> bool:  # b_k P_k + P_{k-1} b^*_{n-k+1} = 0
        one, other = left(k, *cap[k]), right(n - k + 1, *cap[k - 1])
        u = (_phase_exponent(n, k - 1) - _phase_exponent(n, k)) % 4  # P_{k-1} : P_k
        if u % 2:  # a real and an imaginary integer matrix
            return _vanishes(*one, dims[n - k]) and _vanishes(*other, dims[n - k])
        return _vanishes(*one, dims[n - k], (*other[:2], other[2] * (1 - u)))

    if all(anticommutes(k) for k in range(1, n + 1)):
        holds |= {"raw_chain_residual", "chain_residual"}

    def equivariant(g: int) -> bool:  # rho(g) commutes with b and with |G| P
        op = [rho.operator(g, k) for k in range(n + 1)]
        return all(commutes(bnd[k], op[k - 1], op[k], dims[k]) for k in bnd) and all(
            commutes(x, op[k], op[n - k], dims[n - k]) for k, x in enumerate(cap)
        )

    if rho is not None and all(equivariant(g) for g in range(rho.group.order)):
        holds.add("action_residual")
    return frozenset(holds)


def _cap_entries(chains: SimplicialChainData, rho: GroupAction | None) -> list[tuple]:
    """Per degree, ``|G|`` times the raw cap averaged over ``rho`` (the raw
    cap itself without ``rho``) as (rows, columns, integers): conjugating by
    the signed permutation ``rho(g)`` moves each facet's (back, front) entry
    to the images of back and front under ``rho(g)^{-1}``, times the signs."""
    n = len(chains.rows) - 1
    cap = []
    for k, (back, front) in enumerate(chains.cap_triples):
        parts = [(back, front, chains.signs)]
        if rho is not None:
            parts = []
            for g in range(rho.group.order):
                one, other = rho.operator(g, k), rho.operator(g, n - k)
                signs = chains.signs * one.sgn[back].real * other.sgn[front].real
                parts.append((one.src[back], other.src[front], signs))
        rows, cols, vals = map(np.concatenate, zip(*parts))
        cap.append((rows, cols, vals.astype(np.int64)))
    return cap


def _vanishes(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, width: int, more=()) -> bool:
    """Whether the integer entries ``vals`` at ``(rows, cols)``, and those in
    ``more``, of a matrix ``width`` columns wide sum to zero at every position."""
    if more:
        rows, cols, vals = (np.concatenate(x) for x in zip((rows, cols, vals), more))
    if not rows.size:
        return True
    keys = rows * width + cols
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    return not np.add.reduceat(vals[order], np.concatenate(([0], starts))).any()


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


def _vertex_table(chains: SimplicialChainData, vertex_maps: Sequence[dict]) -> np.ndarray:
    """Per map (rows) and vertex number (columns), the number of the vertex's
    image, or -1 where the image is not a vertex.  A map that misses a vertex
    raises KeyError."""
    labels = chains.vertices.tolist()
    images = np.array([[vm[v] for v in labels] for vm in vertex_maps], dtype=np.int64)
    images = images.reshape(len(vertex_maps), len(labels))
    at = np.minimum(np.searchsorted(chains.vertices, images), len(labels) - 1)
    return np.where(chains.vertices[at] == images, at, -1)


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
    m: OrientedSimplicialManifold,
    action: SimplicialAction,
    chains: SimplicialChainData | None = None,
    tol: float = DEFAULT_TOL,
) -> GroupAction:
    """Signed permutation representation on the chain spaces.

    Validates, element by element and in this order, that every vertex map
    permutes the vertex set and the facet set (NotSimplicial), acts regularly
    (a simplex mapped to itself must be fixed vertexwise; NotSimplicial with a
    hint to subdivide), and preserves the fundamental class
    (OrientationReversing).  Every simplex of every degree is mapped under all
    elements at once (:func:`_simplex_images`), and element ``g`` sends the
    ``j``-th ``p``-simplex to its image with the parity of the sort as sign.
    Those signed permutations are handed to the action as they are
    (:meth:`~hpsig.groups.GroupAction._from_signed`), which lays out dense
    blocks only when they are read.  The identity and the homomorphism
    property are checked on the vertex maps (``|G|^2 V`` comparisons), and
    on the chain spaces only when the vertex maps fail them.
    """
    chains = chains or enumerate_and_boundaries(m)
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
    table = _vertex_table(chains, action.vertex_maps[:valid])
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
    signed = tuple(
        tuple(_SignedPermutation.from_images(index[g], parity[g]) for _, index, parity in images)
        for g in range(group.order)
    )
    # the chain action composes exactly like the group when the vertex maps
    # do, since the parity of a sort is multiplicative
    composes = np.array_equal(table[group.identity], np.arange(table.shape[1])) and np.array_equal(
        table[np.asarray(group.table)], table[np.arange(group.order)[:, None, None], table]
    )
    return GroupAction._from_signed(group, signed, tol=tol, composes=composes)


@dataclass(frozen=True)
class EquivarianceReport:
    """Commutation residuals of a chain action with the structure maps.

    ``duality_residual`` measures the duality operator the pipeline actually
    uses (group averaged when the action scrambles the vertex order);
    ``raw_cap_residual`` measures the unaveraged phased cap and is diagnostic
    only (a Frobenius bound), since that family is order sensitive.
    """

    tol: float
    boundary_residual: float
    duality_residual: float
    raw_cap_residual: float
    passed: bool


def verify_equivariance(
    m: OrientedSimplicialManifold,
    action: SimplicialAction,
    chains: SimplicialChainData | None = None,
    tol: float = DEFAULT_TOL,
) -> EquivarianceReport:
    """Largest commutator norms of the action against boundary and duality.

    Raises EquivarianceViolated when either residual exceeds the tolerance;
    the report is attached to the exception as ``report``.
    """
    chains = chains or enumerate_and_boundaries(m)
    report = _equivariant_structure(m, action, chains, tol)[2]
    if not report.passed:
        exc = EquivarianceViolated(
            f"action does not commute with the structure maps "
            f"(boundary residual {report.boundary_residual:.3e}, "
            f"duality residual {report.duality_residual:.3e})"
        )
        exc.report = report
        raise exc
    return report


def _equivariant_structure(
    m: OrientedSimplicialManifold,
    action: SimplicialAction,
    chains: SimplicialChainData,
    tol: float,
    for_signatures: bool = False,
) -> tuple[GroupAction, DualityOperator, EquivarianceReport, _Halves | None]:
    """Chain action, the duality operator the pipeline uses with it, their
    equivariance report, which is returned rather than raised, and, for the
    signature constructions, ``B + S`` and ``B - S`` as the duality check of
    a closed manifold diagonalised them (None with boundary
    or when not ``for_signatures``).

    For a closed manifold the duality is :func:`duality_operator` with the
    action, and the report reads the action gate of its duality check; with
    boundary it is the group averaged, symmetrized phased cap, gated here by
    the same rule (:func:`~hpsig.complexes._action_gates`).
    ``raw_cap_residual`` is the block-summed Frobenius norm of the raw cap's
    commutators.
    """
    rho = chain_action(m, action, chains, tol=tol)
    chain = chains.chain
    # one phased cap, for the raw residual and for the duality
    phased, phases = _phased_cap(m, chains)
    if m.with_boundary:
        dual = DualityOperator(_symmetrize(_average_over_group(phased, rho)))
        hp = HilbertPoincareComplex(chain, dual, rho)
        gates, halves = _action_gates(hp, chain.total_boundary(), dual.total(chain), tol), None
    else:
        cap = _duality_from_cap(chains, phased, phases, tol, rho, for_signatures)
        dual, gates, halves = cap.dual, cap.gates, cap.halves
    n = chain.n
    raw_blocks = [(k, n - k, phased[k]) for k in range(n + 1)]
    (b_ok, b_res), (s_ok, s_res) = gates
    report = EquivarianceReport(
        tol=tol,
        boundary_residual=b_res,
        duality_residual=s_res,
        raw_cap_residual=max(
            _block_frobenius_norm(_commutator_blocks(rho, g, raw_blocks))
            for g in range(rho.group.order)
        ),
        passed=b_ok and s_ok,
    )
    return rho, dual, report, halves


def to_hp_complex(
    m: OrientedSimplicialManifold,
    action: SimplicialAction | None = None,
    chains: SimplicialChainData | None = None,
    tol: float = DEFAULT_TOL,
) -> HilbertPoincareComplex:
    """Duality complex of a closed oriented triangulated manifold."""
    return _hp_with_halves(m, action, chains, tol, for_signatures=False)[0]


def _hp_with_halves(
    m: OrientedSimplicialManifold,
    action: SimplicialAction | None,
    chains: SimplicialChainData | None,
    tol: float,
    for_signatures: bool,
) -> tuple[HilbertPoincareComplex, _Halves | None]:
    """:func:`to_hp_complex` with the halves its duality check diagonalised
    (see :func:`_duality_from_cap`)."""
    chains = chains or enumerate_and_boundaries(m)
    rho = chain_action(m, action, chains, tol=tol) if action is not None else None
    cap = _closed_duality(m, chains, tol, rho, for_signatures)
    return HilbertPoincareComplex(chains.chain, cap.dual, rho), cap.halves


def manifold_signature(
    m: OrientedSimplicialManifold,
    action: SimplicialAction | None = None,
    chains: SimplicialChainData | None = None,
    tol: float = DEFAULT_TOL,
) -> CoincidenceReport:
    """Signature classes of a closed manifold through all three constructions.

    The same as ``check_coincidence(to_hp_complex(m, action, chains, tol),
    tol)``, with ``B + S`` and ``B - S`` diagonalised once, in the duality
    check, and read again by the constructions.
    """
    hp, halves = _hp_with_halves(m, action, chains, tol, for_signatures=True)
    return _coincidence(hp, halves, tol)


def bordism_to_cwb(
    m: OrientedSimplicialManifold,
    chains: SimplicialChainData | None = None,
    tol: float = DEFAULT_TOL,
) -> ComplexWithBoundary:
    """Complex-with-boundary of a triangulated manifold with boundary.

    The distinguished subcomplex is spanned by the simplices of the boundary:
    the codimension-one faces that lie in a single facet, and all their faces.
    The duality family is the symmetrized phased cap of the relative
    fundamental cycle.
    """
    if not m.with_boundary:
        raise PreconditionViolated("manifold is closed; use to_hp_complex")
    chains = chains or enumerate_and_boundaries(m)
    phased, _ = _phased_cap(m, chains)
    sym = _symmetrize(phased)
    n = m.dim
    split = [np.zeros(0, dtype=np.intp)] * (n + 1)
    counts = np.bincount(chains.faces[n].ravel(), minlength=chains.dims[n - 1])
    split[n - 1] = np.flatnonzero(counts == 1)
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
    m: OrientedSimplicialManifold,
    action: SimplicialAction | None = None,
    chains: SimplicialChainData | None = None,
) -> GeometryStats:
    """Simplex counts, the largest closed vertex star (counting simplices of
    every dimension), and the largest simplex stabilizer order.

    A simplex's stabilizer is counted from the images of
    :func:`_simplex_images`, which no regularity or simpliciality check
    precedes, so any vertex maps defined on every vertex are read.
    """
    chains = chains or enumerate_and_boundaries(m)
    star: dict[int, set] = {v: set() for v in m.vertices}
    for f in m.facets:
        faces = [
            sub
            for p in range(len(f))
            for sub in itertools.combinations(f, p + 1)
        ]
        for v in f:
            star[v].update(faces)
    max_star = max(len(s) for s in star.values())
    max_iso = 1
    if action is not None:
        table = _vertex_table(chains, action.vertex_maps)
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
    NotSimplicial when a vertex map sends a simplex to a non-simplex.
    """
    chains = enumerate_and_boundaries(m)
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
    signs = np.multiply.outer(np.array(m.signs), _parities(perms))
    m2 = OrientedSimplicialManifold(
        tuple(map(tuple, flags.reshape(-1, n + 1).tolist())), tuple(signs.ravel().tolist())
    )
    if action is None:
        return m2, None
    table = _vertex_table(chains, action.vertex_maps)
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
