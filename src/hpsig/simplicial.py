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

Group actions are given by vertex permutations.  They must be simplicial
(simplices map to simplices), regular (a simplex fixed setwise is fixed
pointwise; one barycentric subdivision always repairs this), and orientation
preserving.  For vertex maps that scramble the global order the cap matrices
do not commute with the action on the nose (the split point of a facet moves
with the sort), so equivariant duality operators are built by averaging the
phased cap over the group; see :func:`_average_over_group`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bordism import ComplexWithBoundary, verify_with_boundary
from .complexes import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    verify_duality,
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
from .linalg import DEFAULT_TOL, adjoint, frobenius_norm, residual_within
from .signature import CoincidenceReport, check_coincidence

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


def _sort_with_sign(seq: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort a tuple of distinct integers, returning the permutation parity."""
    items = list(seq)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return tuple(items), sign


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


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


@dataclass(eq=False)
class SimplicialChainData:
    """Simplices per degree, index maps, and the boundary complex."""

    simplices: tuple[tuple[tuple[int, ...], ...], ...]
    index: tuple[dict, ...]
    chain: ChainComplex


def enumerate_and_boundaries(m: OrientedSimplicialManifold) -> SimplicialChainData:
    """List all simplices (sorted lexicographically per degree) and build the
    alternating-sign boundary matrices."""
    n = m.dim
    per_degree: list[set[tuple[int, ...]]] = [set() for _ in range(n + 1)]
    for f in m.facets:
        for p in range(n + 1):
            for sub in itertools.combinations(f, p + 1):
                per_degree[p].add(sub)
    simplices = tuple(tuple(sorted(s)) for s in per_degree)
    index = tuple({s: i for i, s in enumerate(degree)} for degree in simplices)
    dims = tuple(len(degree) for degree in simplices)
    bnds = []
    for p in range(1, n + 1):
        mat = np.zeros((dims[p - 1], dims[p]))
        for col, s in enumerate(simplices[p]):
            for i in range(p + 1):
                face = s[:i] + s[i + 1 :]
                mat[index[p - 1][face], col] = (-1.0) ** i
        bnds.append(mat)
    return SimplicialChainData(
        simplices=simplices, index=index, chain=ChainComplex(dims, tuple(bnds))
    )


def fundamental_cycle(
    m: OrientedSimplicialManifold, chains: SimplicialChainData | None = None
) -> np.ndarray:
    """Signed indicator vector of the facets; certifies orientation coherence.

    For a closed manifold the boundary of the cycle must vanish identically;
    with boundary it may only hit the boundary faces.  Violations raise
    IncoherentOrientation (the arithmetic is exact on small integers).
    """
    chains = chains or enumerate_and_boundaries(m)
    n = m.dim
    z = np.zeros(chains.chain.dims[n])
    for f, s in zip(m.facets, m.signs):
        z[chains.index[n][f]] = s
    if n >= 1:
        bz = chains.chain.boundary(n) @ z
        allowed = {chains.index[n - 1][f] for f in m.boundary_faces()}
        for row, val in enumerate(bz):
            if abs(val) > 0.5 and row not in allowed:
                raise IncoherentOrientation(
                    f"facet signs are not coherent around face "
                    f"{chains.simplices[n - 1][row]}"
                )
    return z


def cap_duality(
    m: OrientedSimplicialManifold, chains: SimplicialChainData | None = None
) -> tuple[np.ndarray, ...]:
    """Raw integer cap with the fundamental cycle, one matrix per degree.

    Entry ``p`` maps cochains on ``(N-p)``-simplices (identified with chains
    through the simplex basis) to ``p``-chains: each facet contributes its
    facet sign at (back face, front face).
    """
    chains = chains or enumerate_and_boundaries(m)
    fundamental_cycle(m, chains)
    n = m.dim
    out = []
    for p in range(n + 1):
        mat = np.zeros((chains.chain.dims[p], chains.chain.dims[n - p]))
        for f, s in zip(m.facets, m.signs):
            front = f[: n - p + 1]
            back = f[n - p :]
            mat[chains.index[p][back], chains.index[n - p][front]] += s
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
        sum(adjoint(fam[k]) @ blocks[k] @ fam[n - k] for fam in rho.blocks) / order
        for k in range(n + 1)
    ]


@dataclass(frozen=True)
class CapReport:
    """Residuals of the cap-product duality construction.

    ``raw_chain_residual`` gates the phase normalization.
    ``symmetrization_residual`` and ``chain_residual`` are diagnostic only
    (Frobenius bounds); ``passed`` is the verdict of :func:`verify_duality` on
    the symmetrized family, whose cone operator's smallest |eigenvalue| is
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
    if m.with_boundary:
        raise PreconditionViolated(
            "duality_operator needs a closed manifold; "
            "manifolds with boundary use bordism_to_cwb"
        )
    chains = chains or enumerate_and_boundaries(m)
    phased, phases = _phased_cap(m, chains)
    if rho is not None:
        phased = _average_over_group(phased, rho)
    chain = chains.chain
    btot = chain.total_boundary()

    def family_total(blocks: Sequence[np.ndarray]) -> np.ndarray:
        dual = DualityOperator(tuple(blocks))
        return dual.total(chain)

    ptot = family_total(phased)
    raw_ok, raw_res = residual_within(
        btot @ ptot + ptot @ adjoint(btot), tol, lambda norm: norm(btot) * norm(ptot)
    )
    sym = _symmetrize(phased)
    dual = DualityOperator(sym)
    stot = dual.total(chain)
    sym_res = frobenius_norm(ptot - stot)
    chain_res = frobenius_norm(btot @ stot + stot @ adjoint(btot))
    hp = HilbertPoincareComplex(chain, dual)
    rep = verify_duality(hp, tol=tol)
    report = CapReport(
        tol=tol,
        phases=phases,
        raw_chain_residual=raw_res,
        symmetrization_residual=sym_res,
        chain_residual=chain_res,
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
    return dual, report


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


def chain_action(
    m: OrientedSimplicialManifold,
    action: SimplicialAction,
    chains: SimplicialChainData | None = None,
    tol: float = DEFAULT_TOL,
) -> GroupAction:
    """Signed permutation representation on the chain spaces.

    Validates that every vertex map permutes the vertex set and the facet set
    (NotSimplicial), acts regularly (a simplex mapped to itself must be fixed
    vertexwise; NotSimplicial with a hint to subdivide), and preserves the
    fundamental class (OrientationReversing).  The homomorphism property is
    checked by the GroupAction constructor.
    """
    chains = chains or enumerate_and_boundaries(m)
    n = m.dim
    vset = set(m.vertices)
    facet_set = set(m.facets)
    sign_of = {f: s for f, s in zip(m.facets, m.signs)}
    fams = []
    for g in range(action.group.order):
        vm = action.vertex_maps[g]
        if set(vm.keys()) != vset or set(vm.values()) != vset:
            raise NotSimplicial(
                f"element {action.group.elements[g]} does not permute the vertex set"
            )
        for f in m.facets:
            image = tuple(sorted(vm[v] for v in f))
            if image not in facet_set:
                raise NotSimplicial(
                    f"element {action.group.elements[g]} maps facet {f} to "
                    f"{image}, which is not a facet"
                )
        for p in range(n + 1):
            for s in chains.simplices[p]:
                image = tuple(sorted(vm[v] for v in s))
                if image == s and any(vm[v] != v for v in s):
                    raise NotSimplicial(
                        f"element {action.group.elements[g]} fixes simplex {s} "
                        f"setwise but not pointwise; subdivide barycentrically "
                        f"once to make the action regular"
                    )
        for f, s in zip(m.facets, m.signs):
            image, flip = _sort_with_sign([vm[v] for v in f])
            if sign_of[image] != s * flip:
                raise OrientationReversing(
                    f"element {action.group.elements[g]} reverses the "
                    f"orientation on facet {f}"
                )
        fam = []
        for p in range(n + 1):
            mat = np.zeros((chains.chain.dims[p], chains.chain.dims[p]))
            for col, s in enumerate(chains.simplices[p]):
                image, flip = _sort_with_sign([vm[v] for v in s])
                mat[chains.index[p][image], col] = flip
            fam.append(mat)
        fams.append(tuple(fam))
    return GroupAction(action.group, tuple(fams), tol=tol)


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
    rho = chain_action(m, action, chains, tol=tol)
    chain = chains.chain
    btot = chain.total_boundary()
    phased, _ = _phased_cap(m, chains)
    raw_tot = DualityOperator(tuple(phased)).total(chain)
    if m.with_boundary:
        stot = DualityOperator(
            _symmetrize(_average_over_group(phased, rho))
        ).total(chain)
    else:
        dual, _ = duality_operator(m, chains, tol=tol, rho=rho)
        stot = dual.total(chain)

    def scale(norm) -> float:
        return max(norm(btot), norm(stot))

    reps = [rho.total(g) for g in range(rho.group.order)]
    b_gates = [residual_within(r @ btot - btot @ r, tol, scale) for r in reps]
    s_gates = [residual_within(r @ stot - stot @ r, tol, scale) for r in reps]
    b_res = max(res for _, res in b_gates)
    s_res = max(res for _, res in s_gates)
    raw_res = max(frobenius_norm(r @ raw_tot - raw_tot @ r) for r in reps)
    passed = all(ok for ok, _ in b_gates + s_gates)
    report = EquivarianceReport(
        tol=tol,
        boundary_residual=b_res,
        duality_residual=s_res,
        raw_cap_residual=raw_res,
        passed=passed,
    )
    if not passed:
        exc = EquivarianceViolated(
            f"action does not commute with the structure maps "
            f"(boundary residual {b_res:.3e}, duality residual {s_res:.3e})"
        )
        exc.report = report
        raise exc
    return report


def to_hp_complex(
    m: OrientedSimplicialManifold,
    action: SimplicialAction | None = None,
    chains: SimplicialChainData | None = None,
    tol: float = DEFAULT_TOL,
) -> HilbertPoincareComplex:
    """Duality complex of a closed oriented triangulated manifold."""
    chains = chains or enumerate_and_boundaries(m)
    rho = chain_action(m, action, chains, tol=tol) if action is not None else None
    dual, _ = duality_operator(m, chains, tol=tol, rho=rho)
    return HilbertPoincareComplex(chains.chain, dual, rho)


def manifold_signature(
    m: OrientedSimplicialManifold,
    action: SimplicialAction | None = None,
    chains: SimplicialChainData | None = None,
    tol: float = DEFAULT_TOL,
) -> CoincidenceReport:
    """Signature classes of a closed manifold through all three constructions."""
    hp = to_hp_complex(m, action, chains, tol=tol)
    return check_coincidence(hp, tol=tol)


def bordism_to_cwb(
    m: OrientedSimplicialManifold,
    chains: SimplicialChainData | None = None,
    tol: float = DEFAULT_TOL,
) -> ComplexWithBoundary:
    """Complex-with-boundary of a triangulated manifold with boundary.

    The distinguished subcomplex is spanned by the simplices of the boundary
    (all faces of the codimension-one faces that lie in a single facet); the
    duality family is the symmetrized phased cap of the relative fundamental
    cycle.
    """
    if not m.with_boundary:
        raise PreconditionViolated("manifold is closed; use to_hp_complex")
    chains = chains or enumerate_and_boundaries(m)
    phased, _ = _phased_cap(m, chains)
    sym = _symmetrize(phased)
    n = m.dim
    boundary_simplices: list[set[tuple[int, ...]]] = [set() for _ in range(n + 1)]
    for face in m.boundary_faces():
        for p in range(len(face)):
            for sub in itertools.combinations(face, p + 1):
                boundary_simplices[p].add(sub)
    split = tuple(
        tuple(
            sorted(chains.index[p][s] for s in boundary_simplices[p])
        )
        for p in range(n + 1)
    )
    cwb = ComplexWithBoundary(chains.chain, DualityOperator(sym), split)
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
    every dimension), and the largest simplex stabilizer order."""
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
        for p in range(m.dim + 1):
            for s in chains.simplices[p]:
                stab = sum(
                    1
                    for vm in action.vertex_maps
                    if tuple(sorted(vm[v] for v in s)) == s
                )
                max_iso = max(max_iso, stab)
    return GeometryStats(
        simplex_counts=chains.chain.dims,
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
    vertices of a flag have pairwise distinct dimensions.
    """
    chains = enumerate_and_boundaries(m)
    all_simplices: list[tuple[int, ...]] = []
    for p in range(m.dim + 1):
        all_simplices.extend(chains.simplices[p])
    new_id = {s: i for i, s in enumerate(all_simplices)}
    new_facets = []
    new_signs = []
    for f, sgn in zip(m.facets, m.signs):
        for perm in itertools.permutations(range(m.dim + 1)):
            acc: list[int] = []
            flag = []
            for k in perm:
                acc.append(f[k])
                flag.append(new_id[tuple(sorted(acc))])
            new_facets.append(tuple(flag))
            new_signs.append(sgn * _permutation_sign(perm))
    m2 = OrientedSimplicialManifold(tuple(new_facets), tuple(new_signs))
    if action is None:
        return m2, None
    new_maps = []
    for g in range(action.group.order):
        vm = action.vertex_maps[g]
        nm = {
            new_id[s]: new_id[tuple(sorted(vm[v] for v in s))]
            for s in all_simplices
        }
        new_maps.append(nm)
    return m2, SimplicialAction(action.group, tuple(new_maps))
