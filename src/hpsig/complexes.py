"""Chain complexes with duality over the complex numbers.

A chain complex is a finite family of finite dimensional Hilbert spaces
``E_0, ..., E_n`` together with boundary maps ``b_k : E_k -> E_{k-1}``
satisfying ``b b = 0``. A duality structure of dimension ``n`` is a family
``S_k : E_{n-k} -> E_k`` whose total operator is self-adjoint
(``S_k^* = S_{n-k}``), which anticommutes with the boundary in the sense

    b_k S_k + S_{k-1} b^*_{n-k+1} = 0,

and which induces an isomorphism from the dual complex to the complex.  The
last condition is checked spectrally: ``S`` is a chain map from ``(E, -b^*)``
(regraded) to ``(E, b)``, and the condition holds iff ``D + D^*`` is
invertible, where ``D`` is the differential of the mapping cone of that chain
map.  No homology bases are ever chosen.

If a finite group acts, the action must be by degreewise unitaries commuting
with both ``b`` and ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    GroupMismatch,
    NotChainMap,
    NotSelfAdjoint,
    NotUnitary,
    ShapeMismatch,
)
from .groups import GroupAction
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    as_matrix,
    assemble_total,
    is_invertible,
    operator_dtype,
    residual_within,
)

__all__ = [
    "ChainComplex",
    "ComplexReport",
    "DualityOperator",
    "DualityReport",
    "HilbertPoincareComplex",
    "direct_sum",
    "dual_complex",
    "duality_cone",
    "homology_ranks",
    "mapping_cone",
    "opposite",
    "perturb_duality",
    "twist",
    "verify_complex",
    "verify_duality",
]


@dataclass(eq=False)
class ChainComplex:
    """Graded spaces ``dims[k] = dim E_k`` and boundaries ``b_k : E_k -> E_{k-1}``.

    ``boundaries[k-1]`` stores ``b_k`` (shape ``dims[k-1] x dims[k]``), so the
    list has one entry less than ``dims``. Construction validates shapes only;
    use :func:`verify_complex` for the chain property.
    """

    dims: tuple[int, ...]
    boundaries: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 0 for d in dims):
            raise ShapeMismatch(f"invalid graded dimensions {dims}")
        bnds = tuple(self.boundaries)
        if len(bnds) != len(dims) - 1:
            raise ShapeMismatch(
                f"{len(dims)} degrees need {len(dims) - 1} boundary maps, "
                f"got {len(bnds)}"
            )
        bnds = tuple(
            as_matrix(b, rows=dims[k], cols=dims[k + 1])
            for k, b in enumerate(bnds)
        )
        self.dims = dims
        self.boundaries = bnds

    @property
    def n(self) -> int:
        """Top degree."""
        return len(self.dims) - 1

    def boundary(self, k: int) -> np.ndarray:
        """``b_k`` for ``1 <= k <= n``; empty matrices outside that range."""
        if 1 <= k <= self.n:
            return self.boundaries[k - 1]
        rows = self.dims[k - 1] if 0 <= k - 1 <= self.n else 0
        cols = self.dims[k] if 0 <= k <= self.n else 0
        return np.zeros((rows, cols))

    def total_dim(self) -> int:
        return sum(self.dims)

    def total_boundary(self) -> np.ndarray:
        """Sum of all ``b_k`` as one operator on the total space."""
        entries = [(k - 1, k, self.boundaries[k - 1]) for k in range(1, self.n + 1)]
        return assemble_total(self.dims, self.dims, entries)


@dataclass(eq=False)
class DualityOperator:
    """Degree-reversing family ``S_k : E_{n-k} -> E_k`` for ``k = 0..n``."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        self.blocks = tuple(as_matrix(b) for b in self.blocks)

    @property
    def n(self) -> int:
        return len(self.blocks) - 1

    def block(self, k: int) -> np.ndarray:
        n = self.n
        if 0 <= k <= n:
            return self.blocks[k]
        return np.zeros((0, 0))

    def validate_against(self, chain: ChainComplex) -> None:
        if self.n != chain.n:
            raise DimensionMismatch(
                f"duality has {self.n + 1} blocks but the complex has "
                f"top degree {chain.n}"
            )
        n = chain.n
        for k, b in enumerate(self.blocks):
            want = (chain.dims[k], chain.dims[n - k])
            if b.shape != want:
                raise ShapeMismatch(
                    f"duality block {k} has shape {b.shape}, expected {want}"
                )

    def total(self, chain: ChainComplex) -> np.ndarray:
        n = chain.n
        entries = [(k, n - k, self.blocks[k]) for k in range(n + 1)]
        return assemble_total(chain.dims, chain.dims, entries)


@dataclass(eq=False)
class HilbertPoincareComplex:
    """A chain complex with an (algebraic) duality structure and optional action.

    Construction checks shapes and, when an action is present, that the action
    lives on the same graded dimensions.  The analytic conditions (chain
    property, self-adjointness, chain anticommutation, invertibility on the
    cone) are checked by :func:`verify_duality`, which returns a report rather
    than raising, so callers can distinguish failure modes.
    """

    chain: ChainComplex
    duality: DualityOperator
    action: GroupAction | None = None

    def __post_init__(self) -> None:
        self.duality.validate_against(self.chain)
        if self.action is not None and tuple(self.action.dims) != self.chain.dims:
            raise DimensionMismatch(
                f"action dimensions {self.action.dims} do not match "
                f"complex dimensions {self.chain.dims}"
            )

    @property
    def n(self) -> int:
        return self.chain.n

    @property
    def dims(self) -> tuple[int, ...]:
        return self.chain.dims

    def total_boundary(self) -> np.ndarray:
        return self.chain.total_boundary()

    def total_duality(self) -> np.ndarray:
        return self.duality.total(self.chain)

    def degree_sign_operator(self) -> np.ndarray:
        """Diagonal operator acting by ``(-1)^k`` on ``E_k``."""
        signs = np.concatenate(
            [np.full(d, (-1.0) ** k) for k, d in enumerate(self.dims)]
        )
        return np.diag(signs)

    def total_dim(self) -> int:
        return self.chain.total_dim()


@dataclass(frozen=True)
class ComplexReport:
    """Result of checking ``b b = 0`` degreewise."""

    tol: float
    residuals: tuple[float, ...]
    passed: bool


def verify_complex(chain: ChainComplex, tol: float = DEFAULT_TOL) -> ComplexReport:
    """Check ``b_k b_{k+1} = 0`` for every composable pair."""
    gates = []
    for k in range(1, chain.n):
        bk = chain.boundary(k)
        bk1 = chain.boundary(k + 1)
        gates.append(residual_within(bk @ bk1, tol, lambda norm: norm(bk) * norm(bk1)))
    return ComplexReport(
        tol=tol,
        residuals=tuple(res for _, res in gates),
        passed=all(ok for ok, _ in gates),
    )


def homology_ranks(chain: ChainComplex, tol: float = DEFAULT_TOL) -> tuple[int, ...]:
    """Numerical Betti numbers ``dim E_k - rank b_k - rank b_{k+1}``."""
    out = []
    for k in range(chain.n + 1):
        bk = chain.boundary(k)
        bk1 = chain.boundary(k + 1)
        rk = _rank(bk, tol)
        rk1 = _rank(bk1, tol)
        out.append(chain.dims[k] - rk - rk1)
    return tuple(out)


def _rank(m: np.ndarray, tol: float) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol * max(1.0, s[0])))


def dual_complex(chain: ChainComplex) -> ChainComplex:
    """Regraded adjoint complex: degree ``k`` space is ``E_{n-k}``, differential
    ``b^*_{n-k+1}``."""
    n = chain.n
    dims = tuple(reversed(chain.dims))
    bnds = tuple(adjoint(chain.boundary(n - k + 1)) for k in range(1, n + 1))
    return ChainComplex(dims, bnds)


def _negated(chain: ChainComplex) -> ChainComplex:
    return ChainComplex(chain.dims, tuple(-b for b in chain.boundaries))


def mapping_cone(
    blocks: Sequence[np.ndarray],
    source: ChainComplex,
    target: ChainComplex,
    tol: float = DEFAULT_TOL,
) -> ChainComplex:
    """Mapping cone of a degree-zero chain map given by degreewise blocks.

    Degree ``j`` of the cone is ``source_{j-1} (+) target_j`` and the
    differential is ``[[-b_src, 0], [A, b_tgt]]``.  Raises NotChainMap if the
    blocks fail to intertwine the differentials within tolerance.
    """
    if source.n != target.n:
        raise DimensionMismatch(
            f"cone needs equal top degrees, got {source.n} and {target.n}"
        )
    n = source.n
    if len(blocks) != n + 1:
        raise ShapeMismatch(f"expected {n + 1} chain map blocks, got {len(blocks)}")
    mats = [
        as_matrix(a, rows=target.dims[k], cols=source.dims[k])
        for k, a in enumerate(blocks)
    ]
    for k in range(1, n + 1):
        lhs = target.boundary(k) @ mats[k]
        rhs = mats[k - 1] @ source.boundary(k)
        ok, res = residual_within(
            lhs - rhs, tol, lambda norm: max(norm(lhs), norm(rhs))
        )
        if not ok:
            raise NotChainMap(
                f"blocks do not commute with the boundaries at degree {k}: "
                f"residual {res:.3e}"
            )
    dims = tuple(
        (source.dims[j - 1] if j >= 1 else 0) + (target.dims[j] if j <= n else 0)
        for j in range(n + 2)
    )
    dtype = operator_dtype(*mats, *source.boundaries, *target.boundaries)
    bnds = []
    for j in range(1, n + 2):
        rows = [source.dims[j - 2] if j >= 2 else 0, target.dims[j - 1] if j - 1 <= n else 0]
        cols = [source.dims[j - 1] if j - 1 <= n else 0, target.dims[j] if j <= n else 0]
        block = np.zeros((sum(rows), sum(cols)), dtype=dtype)
        if j >= 2:
            block[: rows[0], : cols[0]] = -source.boundary(j - 1)
        block[rows[0]:, : cols[0]] = mats[j - 1]
        if j <= n:
            block[rows[0]:, cols[0]:] = target.boundary(j)
        bnds.append(block)
    return ChainComplex(dims, tuple(bnds))


def duality_cone(hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL) -> ChainComplex:
    """Mapping cone of the duality viewed as a chain map ``(E, -b^*) -> (E, b)``."""
    source = _negated(dual_complex(hp.chain))
    return mapping_cone(hp.duality.blocks, source, hp.chain, tol=tol)


@dataclass(frozen=True)
class DualityReport:
    """Residuals of the duality axioms; ``passed`` applies the tolerance rule.

    ``cone_min_singular_value`` is the smallest |eigenvalue| of the
    self-adjoint cone operator ``D + D^*``, which is its smallest singular
    value.
    """

    tol: float
    boundary_residual: float
    selfadjoint_residual: float
    chain_residual: float
    cone_min_singular_value: float
    cone_invertible: bool
    action_residual: float
    passed: bool
    failures: tuple[str, ...]


def verify_duality(hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL) -> DualityReport:
    """Check all duality axioms and report residuals without raising."""
    b = hp.total_boundary()
    s = hp.total_duality()
    failures = []

    ok, bres = residual_within(b @ b, tol, lambda norm: norm(b) ** 2)
    if not ok:
        failures.append("boundary squares to a nonzero operator")

    ok, sares = residual_within(s - adjoint(s), tol, lambda norm: norm(s))
    if not ok:
        failures.append("duality is not self-adjoint")

    ok, cres = residual_within(
        b @ s + s @ adjoint(b), tol, lambda norm: norm(b) * norm(s)
    )
    if not ok:
        failures.append("duality does not anticommute with the boundary")

    try:
        cone = duality_cone(hp, tol=tol)
        d = cone.total_boundary()
        inv, minsv = is_invertible(d + adjoint(d), tol=tol)
    except NotChainMap:
        inv, minsv = False, 0.0
    if not inv:
        failures.append("duality cone operator is not invertible")

    ares = 0.0
    if hp.action is not None:
        gates = [
            residual_within(r, tol, lambda norm: max(norm(b), norm(s)))
            for rho in map(hp.action.total, range(hp.action.group.order))
            for r in (rho @ b - b @ rho, rho @ s - s @ rho)
        ]
        ares = max(res for _, res in gates)
        if not all(ok for ok, _ in gates):
            failures.append("action does not commute with the structure maps")

    return DualityReport(
        tol=tol,
        boundary_residual=bres,
        selfadjoint_residual=sares,
        chain_residual=cres,
        cone_min_singular_value=minsv,
        cone_invertible=inv,
        action_residual=ares,
        passed=not failures,
        failures=tuple(failures),
    )


def twist(
    hp: HilbertPoincareComplex,
    unitaries: Sequence[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> HilbertPoincareComplex:
    """Conjugate the whole structure by degreewise unitaries.

    ``b_k -> u_{k-1} b_k u_k^*``, ``S_k -> u_k S_k u_{n-k}^*``, and any action
    is conjugated degreewise, so every axiom (and the signature) is preserved
    exactly.
    """
    n = hp.n
    if len(unitaries) != n + 1:
        raise ShapeMismatch(f"expected {n + 1} unitaries, got {len(unitaries)}")
    us = [
        as_matrix(u, rows=hp.dims[k], cols=hp.dims[k])
        for k, u in enumerate(unitaries)
    ]
    for k, u in enumerate(us):
        ok, res = residual_within(u @ adjoint(u) - np.eye(u.shape[0]), tol)
        if not ok:
            raise NotUnitary(f"matrix at degree {k} is not unitary: residual {res:.3e}")
    chain = ChainComplex(
        hp.dims,
        tuple(us[k - 1] @ hp.chain.boundary(k) @ adjoint(us[k]) for k in range(1, n + 1)),
    )
    dual = DualityOperator(
        tuple(us[k] @ hp.duality.block(k) @ adjoint(us[n - k]) for k in range(n + 1))
    )
    action = None
    if hp.action is not None:
        action = hp.action.conjugated(us)
    return HilbertPoincareComplex(chain, dual, action)


def perturb_duality(
    hp: HilbertPoincareComplex,
    r_blocks: Sequence[np.ndarray | None],
    tol: float = DEFAULT_TOL,
) -> HilbertPoincareComplex:
    """Replace ``S`` by ``S + b R b^*`` for a self-adjoint degree-raising family.

    ``r_blocks[j]`` is ``R_j : E_{n+2-j} -> E_j`` (only ``2 <= j <= n`` can be
    nonzero; other entries must be None).  Self-adjointness here means
    ``R_j^* = R_{n+2-j}``, which makes the correction self-adjoint, exact with
    respect to the chain condition, and homotopic to zero, so the K-theoretic
    signature is unchanged.
    """
    n = hp.n
    if len(r_blocks) != n + 1:
        raise ShapeMismatch(f"expected {n + 1} entries (degree-indexed), got {len(r_blocks)}")
    mats: dict[int, np.ndarray] = {}
    for j, r in enumerate(r_blocks):
        if r is None:
            continue
        if not 2 <= j <= n:
            raise ShapeMismatch(f"R block at degree {j} lies outside 2..{n}")
        mats[j] = as_matrix(r, rows=hp.dims[j], cols=hp.dims[n + 2 - j])
    for j, r in mats.items():
        partner = mats.get(n + 2 - j)
        other = partner if partner is not None else np.zeros_like(adjoint(r))
        ok, _ = residual_within(adjoint(r) - other, tol, lambda norm: norm(r))
        if not ok:
            raise NotSelfAdjoint(
                f"R block at degree {j} is not adjoint to the block at {n + 2 - j}"
            )
    blocks = []
    for k in range(n + 1):
        s = hp.duality.block(k).copy()
        r = mats.get(k + 1)
        if r is not None and 1 <= k <= n - 1:
            s = s + hp.chain.boundary(k + 1) @ r @ adjoint(hp.chain.boundary(n - k + 1))
        blocks.append(s)
    return HilbertPoincareComplex(hp.chain, DualityOperator(tuple(blocks)), hp.action)


def direct_sum(
    a: HilbertPoincareComplex, b: HilbertPoincareComplex
) -> HilbertPoincareComplex:
    """Degreewise direct sum; requires equal top degree and consistent actions."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot sum complexes of top degree {a.n} and {b.n}")
    if (a.action is None) != (b.action is None):
        raise GroupMismatch("cannot sum a complex with an action and one without")
    n = a.n
    dims = tuple(da + db for da, db in zip(a.dims, b.dims))
    bnds = tuple(
        _blockdiag(a.chain.boundary(k), b.chain.boundary(k)) for k in range(1, n + 1)
    )
    sblocks = tuple(
        _blockdiag(a.duality.block(k), b.duality.block(k)) for k in range(n + 1)
    )
    action = None
    if a.action is not None and b.action is not None:
        action = a.action.direct_sum(b.action)
    return HilbertPoincareComplex(ChainComplex(dims, bnds), DualityOperator(sblocks), action)


def opposite(hp: HilbertPoincareComplex) -> HilbertPoincareComplex:
    """Same complex with the duality negated; the signature changes sign."""
    dual = DualityOperator(tuple(-b for b in hp.duality.blocks))
    return HilbertPoincareComplex(hp.chain, dual, hp.action)


def _blockdiag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros(
        (x.shape[0] + y.shape[0], x.shape[1] + y.shape[1]), dtype=operator_dtype(x, y)
    )
    out[: x.shape[0], : x.shape[1]] = x
    out[x.shape[0]:, x.shape[1]:] = y
    return out
