"""Complexes with boundary and the algebraic bordism machinery.

A complex with boundary of total dimension ``N`` is a chain complex ``E`` over
degrees ``0..N``, a degree-reversing self-adjoint family ``S_k : E_{N-k} -> E_k``,
and a degreewise coordinate split ``E = E_0 (+) E_1`` such that

* the differential preserves ``E_0`` (its lower-left block ``f`` vanishes),
* the defect ``R = b S + S b^*`` (a family of dimension ``n = N - 1``)
  vanishes on the quotient rows: ``j R = 0``, equivalently (by self-adjointness
  of ``R``) it kills ``E_1``; and
* the cone operator of the quotient family ``j S`` is invertible.

The induced boundary object is ``(E_0, i b_0, S_0)`` where ``S_0`` is the
restriction of ``R`` to ``E_0``; it has a closed-form expression in the blocks
of ``b`` and ``S`` which is verified rather than trusted.  The factor ``i``
turns the anticommutation defect into a commutator, which is exactly what the
restriction satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .complexes import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    _Halves,
    _negated,
    _verify_duality,
    dual_complex,
    mapping_cone,
)
from .errors import (
    DegenerateBoundaryDuality,
    FormulaMismatch,
    IdentityViolated,
    NotChainMap,
    PreconditionViolated,
    ShapeMismatch,
    SplitInconsistent,
)
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    as_matrix,
    assemble_total,
    is_invertible,
    residual_within,
    _shared_bounds,
)
from .signature import CoincidenceReport, _coincidence, check_coincidence

__all__ = [
    "BlockDecomposition",
    "BoundaryZeroReport",
    "ComplexWithBoundary",
    "ConeIdentitiesReport",
    "CwbReport",
    "boundary_complex",
    "boundary_signature_is_zero",
    "decompose",
    "hyperbolic",
    "verify_cone_identities",
    "verify_with_boundary",
]


@dataclass(eq=False)
class ComplexWithBoundary:
    """Chain complex with duality family and a degreewise coordinate split.

    ``split[m]`` lists the coordinates of degree ``m`` that belong to the
    distinguished subcomplex ``E_0``.  Construction validates shapes and the
    split indices; the structural conditions are checked by
    :func:`verify_with_boundary` and :func:`decompose`.

    The complex must not be changed after construction: its index sets, total
    operators, the eight sub/quotient corners of those totals (read-only), the
    block decomposition (views of the corners), the quotient chain complex,
    the structure gates and the quotient cone's value (per tolerance) and the
    restricted defect are computed on first use and shared by every check.
    """

    chain: ChainComplex
    duality: DualityOperator
    split: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        self.duality.validate_against(self.chain)
        if len(self.split) != self.chain.n + 1:
            raise ShapeMismatch(
                f"split needs one index tuple per degree "
                f"({self.chain.n + 1}), got {len(self.split)}"
            )
        cleaned = []
        for m, idx in enumerate(self.split):
            idx = tuple(int(i) for i in idx)
            if any(not 0 <= i < self.chain.dims[m] for i in idx):
                raise SplitInconsistent(f"split indices out of range at degree {m}")
            if len(set(idx)) != len(idx) or tuple(sorted(idx)) != idx:
                raise SplitInconsistent(
                    f"split indices at degree {m} must be sorted and distinct"
                )
            cleaned.append(idx)
        self.split = tuple(cleaned)

    @property
    def n_total(self) -> int:
        return self.chain.n

    def sub_indices(self, m: int) -> tuple[int, ...]:
        if 0 <= m <= self.chain.n:
            return self.split[m]
        return ()

    def quotient_indices(self, m: int) -> tuple[int, ...]:
        if 0 <= m <= self.chain.n:
            return tuple(self._index_sets[1][m].tolist())
        return ()

    @cached_property
    def _index_sets(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The sub and the quotient coordinates of each degree."""
        sub = tuple(np.array(idx, dtype=np.intp) for idx in self.split)
        return sub, tuple(np.setdiff1d(np.arange(d), idx) for d, idx in zip(self.chain.dims, sub))

    @cached_property
    def _totals(self) -> tuple[np.ndarray, np.ndarray]:
        """The total boundary ``b`` and the total duality ``S``."""
        return self.chain.total_boundary(), self.duality.total(self.chain)

    @cached_property
    def _corners(self) -> tuple[np.ndarray, ...]:
        """``b`` and ``S`` on (sub, sub), (sub, quotient), (quotient, sub) and
        (quotient, quotient), read-only: ``b0, h, f, b1, s2, f_upper, f_lower,
        s1``.  The total-space coordinates of each part are listed degree by
        degree, so every degree block is a contiguous slice of its corner."""
        offsets = np.cumsum((0, *self.chain.dims[:-1]))
        sub, quo = (
            np.concatenate([off + idx for off, idx in zip(offsets, part)])
            for part in self._index_sets
        )
        corners = tuple(
            total[np.ix_(rows, cols)]
            for total in self._totals
            for rows, cols in ((sub, sub), (sub, quo), (quo, sub), (quo, quo))
        )
        for corner in corners:
            corner.flags.writeable = False
        return corners

    _blocks = cached_property(lambda self: _split_blocks(self))
    _quotient = cached_property(
        lambda self: ChainComplex(self._blocks.quotient_dims, self._blocks.b1[1:])
    )
    _restricted = cached_property(lambda self: _restricted_defect(self))
    _by_tol = cached_property(lambda self: {})

    def _once(self, check, tol: float):
        """``check(self, tol)``, evaluated once per check and tolerance."""
        if (check, tol) not in self._by_tol:
            self._by_tol[check, tol] = check(self, tol)
        return self._by_tol[check, tol]


def _restricted_defect(cwb: ComplexWithBoundary) -> tuple[np.ndarray, ...]:
    """The defect ``R_k = b_{k+1} S_{k+1} + S_k b^*_{N-k}``, which maps
    ``E_{n-k} -> E_k``, restricted to ``(E_0)_{n-k} -> (E_0)_k`` before the
    products."""
    chain, s = cwb.chain, cwb.duality
    big_n = chain.n
    sub = cwb._index_sets[0]
    out = []
    for k in range(big_n):
        rows, cols = sub[k], sub[big_n - 1 - k]
        term1 = chain.boundary(k + 1)[rows] @ s.block(k + 1)[:, cols]
        term2 = s.block(k)[rows] @ adjoint(chain.boundary(big_n - k)[cols])
        out.append(term1 + term2)
    return tuple(out)


@dataclass(eq=False)
class BlockDecomposition:
    """Blocks of a complex with boundary in sub/quotient coordinates.

    Boundary families are degree-indexed lists with entry ``m`` holding the map
    out of degree ``m`` (entry 0 is empty); duality families hold
    ``(.)_k : (.)_{N-k} -> (.)_k``.  ``f`` is the forbidden lower-left block of
    the differential and ``f_upper``/``f_lower`` are the two off-diagonal
    duality blocks (adjoint to each other when the duality is self-adjoint).
    """

    sub_dims: tuple[int, ...]
    quotient_dims: tuple[int, ...]
    b0: tuple[np.ndarray, ...]
    b1: tuple[np.ndarray, ...]
    h: tuple[np.ndarray, ...]
    f: tuple[np.ndarray, ...]
    s2: tuple[np.ndarray, ...]
    s1: tuple[np.ndarray, ...]
    f_upper: tuple[np.ndarray, ...]
    f_lower: tuple[np.ndarray, ...]
    residuals: dict


def _split_blocks(cwb: ComplexWithBoundary) -> BlockDecomposition:
    """The degree blocks as views of ``cwb._corners``."""
    big_n = cwb.chain.n
    dims = tuple(tuple(ix.size for ix in part) for part in cwb._index_sets)
    offsets = [np.cumsum((0, *d)) for d in dims]
    parts = ((0, 0), (0, 1), (1, 0), (1, 1))

    def blocks(corner, part, degrees):
        rows, cols = (offsets[p] for p in part)
        return tuple(corner[rows[k] : rows[k + 1], cols[m] : cols[m + 1]] for k, m in degrees)

    # boundary entry m maps degree m to m - 1 (entry 0 is empty); duality
    # entry k maps degree N - k to k
    b0, h, f, b1 = (
        (corner[:0, :0], *blocks(corner, part, [(m - 1, m) for m in range(1, big_n + 1)]))
        for corner, part in zip(cwb._corners[:4], parts)
    )
    s2, f_upper, f_lower, s1 = (
        blocks(corner, part, [(k, big_n - k) for k in range(big_n + 1)])
        for corner, part in zip(cwb._corners[4:], parts)
    )
    return BlockDecomposition(
        sub_dims=dims[0], quotient_dims=dims[1], b0=b0, b1=b1, h=h, f=f,
        s2=s2, s1=s1, f_upper=f_upper, f_lower=f_lower, residuals={},
    )


def _structure_gates(
    cwb: ComplexWithBoundary, tol: float
) -> dict[str, tuple[bool, float]]:
    """Gate every structural identity at one common scale, by name, on the
    totals of the blocks (``cwb._corners``)."""
    btot, stot = cwb._totals
    b0, htot, ftot, b1, s2, fup, flo, s1 = cwb._corners

    @_shared_bounds()  # one column-norm bound of each total for the eight gates
    def scale(norm) -> float:
        nb, ns = norm(btot), norm(stot)
        return max(nb, ns, nb * ns)

    residuals = {
        "split-preserved": ftot,
        "duality-selfadjoint": stot - adjoint(stot),
        "boundary-squared": btot @ btot,
        "sub-boundary-coupling": b0 @ htot + htot @ b1,
        "cross-duality-row": b1 @ flo + flo @ adjoint(b0) + s1 @ adjoint(htot),
        "cross-duality-column": b0 @ fup + fup @ adjoint(b1) + htot @ s1,
        "quotient-duality": b1 @ s1 + s1 @ adjoint(b1),
        "off-diagonal-adjoint": flo - adjoint(fup),
    }
    return {name: residual_within(r, tol, scale) for name, r in residuals.items()}


def _quotient_cone_min_sv(cwb: ComplexWithBoundary, tol: float) -> tuple[bool, float]:
    """Invertibility of the cone operator of the quotient duality family.

    The chain map ``j S`` leaves the dual complex of ``E``, whose coordinates
    are ``E``'s own, not the sub/quotient order of ``cwb._corners``; so its
    blocks are the quotient rows of each ``duality.block(p)``."""
    chain = cwb.chain
    rows = cwb._index_sets[1]
    js = [cwb.duality.block(p)[rows[p], :] for p in range(chain.n + 1)]
    try:
        cone = mapping_cone(js, _negated(dual_complex(chain)), cwb._quotient, tol=tol)
    except NotChainMap:
        return False, 0.0
    d = cone.total_boundary()
    return is_invertible(d + adjoint(d), tol=tol)


@dataclass(frozen=True)
class CwbReport:
    """Residuals of the boundary-structure axioms."""

    tol: float
    residuals: dict
    cone_min_singular_value: float
    cone_invertible: bool
    sub_top_dim: int
    passed: bool
    failures: tuple[str, ...]


def verify_with_boundary(
    cwb: ComplexWithBoundary, tol: float = DEFAULT_TOL
) -> CwbReport:
    """Check every structural condition and report without raising."""
    gates = cwb._once(_structure_gates, tol)
    failures = [name for name, (ok, _) in gates.items() if not ok]
    inv, minsv = cwb._once(_quotient_cone_min_sv, tol)
    if not inv:
        failures.append("quotient cone operator is not invertible")
    return CwbReport(
        tol=tol,
        residuals={name: res for name, (_, res) in gates.items()},
        cone_min_singular_value=minsv,
        cone_invertible=inv,
        sub_top_dim=len(cwb.sub_indices(cwb.chain.n)),
        passed=not failures,
        failures=tuple(failures),
    )


def decompose(cwb: ComplexWithBoundary, tol: float = DEFAULT_TOL) -> BlockDecomposition:
    """Split into sub/quotient blocks, raising if the structure is violated.

    Raises SplitInconsistent when the differential does not preserve the
    subcomplex and IdentityViolated naming each failed chain identity.  The
    blocks are those every check of ``cwb`` shares, with the residuals at ``tol``.
    """
    gates = cwb._once(_structure_gates, tol)
    ok, res = gates["split-preserved"]
    if not ok:
        raise SplitInconsistent(
            f"differential maps the subcomplex outside itself: residual {res:.3e}"
        )
    bad = [name for name, (ok, _) in gates.items() if not ok]
    if bad:
        raise IdentityViolated(
            "chain identities failed: " + ", ".join(bad)
        )
    return replace(cwb._blocks, residuals={name: res for name, (_, res) in gates.items()})


def boundary_complex(
    cwb: ComplexWithBoundary, tol: float = DEFAULT_TOL
) -> HilbertPoincareComplex:
    """Boundary object ``(E_0, i b_0, S_0)`` with ``S_0`` the restricted defect.

    The restriction is compared against its closed-form expression in the
    decomposition blocks (FormulaMismatch on disagreement) and the resulting
    duality must have an invertible cone operator (DegenerateBoundaryDuality).
    """
    return _boundary_complex(cwb, tol)[0]


def _boundary_complex(
    cwb: ComplexWithBoundary, tol: float
) -> tuple[HilbertPoincareComplex, _Halves | None]:
    """:func:`boundary_complex` with the halves ``B + S`` and ``B - S`` that
    its duality check diagonalised (see
    :func:`~hpsig.complexes._verify_duality`)."""
    blocks = decompose(cwb, tol=tol)
    chain = cwb.chain
    big_n = chain.n
    n = big_n - 1
    if blocks.sub_dims[big_n]:
        raise SplitInconsistent(
            f"subcomplex has dimension {blocks.sub_dims[big_n]} in top degree "
            f"{big_n}; the boundary object must live in degrees 0..{n}"
        )
    restricted = cwb._restricted
    btot, stot = cwb._totals
    scale = _shared_bounds()(lambda norm: norm(btot) * norm(stot))

    gates = []
    for k in range(n + 1):
        closed = (
            blocks.b0[k + 1] @ blocks.s2[k + 1]
            + blocks.s2[k] @ adjoint(blocks.b0[big_n - k])
            + blocks.h[k + 1] @ adjoint(blocks.f_upper[n - k])
            + blocks.f_upper[k] @ adjoint(blocks.h[big_n - k])
        )
        gates.append(residual_within(restricted[k] - closed, tol, scale))
    if not all(ok for ok, _ in gates):
        raise FormulaMismatch(
            f"restricted boundary duality disagrees with its closed form: "
            f"residual {max(res for _, res in gates):.3e}"
        )
    dims0 = blocks.sub_dims[: n + 1]
    bnd = tuple(1j * blocks.b0[m] for m in range(1, n + 1))
    hp = HilbertPoincareComplex(
        ChainComplex(dims0, bnd), DualityOperator(restricted)
    )
    report, halves = _verify_duality(hp, tol)
    if not report.cone_invertible:
        raise DegenerateBoundaryDuality(
            f"boundary duality cone is singular "
            f"(smallest singular value {report.cone_min_singular_value:.3e})"
        )
    return hp, halves


def hyperbolic(
    chain: ChainComplex, s_blocks: Sequence[np.ndarray], tol: float = DEFAULT_TOL
) -> HilbertPoincareComplex:
    """Hyperbolic complex on ``E_m (+) E_{d+1-m}`` built from compatible data.

    Preconditions (PreconditionViolated): ``b b = 0``, the family
    ``S_k : E_{d-k} -> E_k`` is self-adjoint in the degree-reversing sense
    ``S_k^* = S_{d-k}``, and ``b S + S b^* = 0``.  The output has top degree
    ``d + 1``, differential ``i [[b, S], [0, b^*]]`` and the coordinate swap as
    duality; its signature class vanishes.

    This is the gate pass :func:`_hyperbolic_input`, which checks the
    preconditions, followed by the layout :func:`_hyperbolic_layout`, which
    checks nothing; a caller that needs only one half runs only that one.
    """
    return _hyperbolic_layout(chain, _hyperbolic_input(chain, s_blocks, tol))


def _hyperbolic_input(
    chain: ChainComplex, s_blocks: Sequence[np.ndarray], tol: float
) -> list[np.ndarray]:
    """The gate pass of :func:`hyperbolic`: the family as a list of matrices
    of the right shapes (ShapeMismatch), once its three preconditions hold
    (PreconditionViolated)."""
    d, b = chain.n, chain.boundary
    if len(s_blocks) != d + 1:
        raise ShapeMismatch(f"expected {d + 1} duality blocks, got {len(s_blocks)}")
    s = [as_matrix(x, rows=chain.dims[k], cols=chain.dims[d - k]) for k, x in enumerate(s_blocks)]
    btot = chain.total_boundary()

    def scale_s(norm) -> float:
        return max((norm(x) for x in s), default=0.0)

    gates = [
        (b(k) @ b(k + 1), lambda norm: norm(btot) ** 2, "input boundary does not square to zero")
        for k in range(1, d)
    ]
    gates += [
        (adjoint(s[k]) - s[d - k], scale_s, f"input family is not self-adjoint at degree {k}")
        for k in range(d + 1)
    ]
    gates += [
        (b(k) @ s[k] + s[k - 1] @ adjoint(b(d - k + 1)), lambda norm: norm(btot) * scale_s(norm),
         f"input family does not anticommute with the boundary at degree {k}")
        for k in range(1, d + 1)
    ]
    shared = _shared_bounds()
    for r, scale, why in gates:
        ok, res = residual_within(r, tol, shared(scale))
        if not ok:
            raise PreconditionViolated(f"{why} ({res:.3e})")
    return s


def _hyperbolic_layout(chain: ChainComplex, s: Sequence[np.ndarray]) -> HilbertPoincareComplex:
    """The layout of :func:`hyperbolic`, with no gate: ``s`` holds the blocks
    ``S_k`` as matrices of shape ``dims[k] x dims[d - k]``."""
    top = chain.n + 1
    # degree m is E_m (+) E_{top-m}; ext pads the one degree that falls outside
    ext = (*chain.dims, 0)
    bnds = [
        1j * assemble_total(
            (ext[m - 1], ext[top - m + 1]),
            (ext[m], ext[top - m]),
            [(0, 0, chain.boundary(m)), (0, 1, s[m - 1]),
             (1, 1, adjoint(chain.boundary(top - m + 1)))],
        )
        for m in range(1, top + 1)
    ]
    sdual = [
        assemble_total(
            (ext[m], ext[top - m]),
            (ext[top - m], ext[m]),
            [(0, 1, np.eye(ext[m])), (1, 0, np.eye(ext[top - m]))],
        )
        for m in range(top + 1)
    ]
    hdims = tuple(ext[m] + ext[top - m] for m in range(top + 1))
    return HilbertPoincareComplex(ChainComplex(hdims, tuple(bnds)), DualityOperator(tuple(sdual)))


@dataclass(frozen=True)
class ConeIdentitiesReport:
    """Residuals of the attaching construction around a complex with boundary.

    ``chain_map_residual`` and ``boundary_formula_residual`` are NaN when
    those checks did not run, because the quotient data is not hyperbolic
    input (``hyperbolic_valid`` false); the CLI shows them as not run.
    """

    tol: float
    cone_square_residual: float
    chain_map_residual: float
    boundary_formula_residual: float
    hyperbolic_valid: bool
    passed: bool
    failures: tuple[str, ...]


# The failure message of each check of the attaching construction, by the
# report field it checks; the CLI reads each check's verdict from these.
_CONE_IDENTITY_FAILURES = {
    "cone_square_residual": "attaching cone differential does not square to zero",
    "chain_map_residual": "coupling map is not a chain map to the boundary complex",
    "boundary_formula_residual": "boundary duality formula does not match the restriction",
}


def verify_cone_identities(
    cwb: ComplexWithBoundary, tol: float = DEFAULT_TOL
) -> ConeIdentitiesReport:
    """Verify the cone and boundary-formula identities.

    Each operator is laid out from ``cwb._corners``, whose parts list their
    coordinates degree by degree:

    (a) the attaching cone on (``E_0``, ``E_1``, the cone's ``E_1``) has the
        differential ``A = [[b0, h, f_upper], [f, b1, s1], [0, 0, b1*]]``,
        which must square to zero;
    (b) on two copies of ``E_1`` the hyperbolic complex of the quotient data
        has differential ``i [[b1, s1], [0, b1*]]`` and the swap ``T`` as
        duality, and the coupling map ``F = [h, f_upper]`` must be a chain map
        to the boundary complex ``(E_0, i b0)``; both are blocks of ``A``;
    (c) the restricted duality must equal ``F T F* + b0 s2 + s2 b0*``, where
        ``F T = [f_upper, h]``.

    They are the constructions built degree by degree, the cone on
    ``E_m (+) (E_1)_{N+1-m}`` and the hyperbolic complex on
    ``(E_1)_m (+) (E_1)_{N+1-m}``, with their coordinates permuted, so every
    residual is the same up to rounding.  (b) and (c) run when the quotient
    data passes the gate pass of :func:`hyperbolic` (``hyperbolic_valid``).
    The four-term sequence of coordinate inclusions and projections relating
    sub, total and quotient spaces is exact for every
    :class:`ComplexWithBoundary`, whose split and quotient indices partition
    each degree, so it is not checked.
    """
    b0, h, f, b1, s2, f_upper, _, s1 = cwb._corners
    d0, d1 = b0.shape[0], b1.shape[0]
    failures: list[str] = []

    # (a) attaching cone
    attach = assemble_total(
        (d0, d1, d1),
        (d0, d1, d1),
        [(0, 0, b0), (0, 1, h), (0, 2, f_upper), (1, 0, f), (1, 1, b1), (1, 2, s1),
         (2, 2, adjoint(b1))],
    )
    ok, sq = residual_within(attach @ attach, tol, lambda norm: norm(attach) ** 2)
    if not ok:
        failures.append(_CONE_IDENTITY_FAILURES["cone_square_residual"])

    # (b) hyperbolic complex of the quotient data and the coupling chain map
    hyp_valid = True
    chain_res = formula_res = float("nan")
    try:
        _hyperbolic_input(cwb._quotient, cwb._blocks.s1, tol)
    except (PreconditionViolated, ShapeMismatch) as exc:
        hyp_valid = False
        failures.append(f"quotient data is not hyperbolic input: {exc}")
    if hyp_valid:
        ftot, delta = attach[:d0, d0:], 1j * attach[d0:, d0:]
        ok, chain_res = residual_within(
            ftot @ delta + 1j * b0 @ ftot, tol, lambda norm: norm(ftot) * max(norm(delta), 1.0)
        )
        if not ok:
            failures.append(_CONE_IDENTITY_FAILURES["chain_map_residual"])

        # (c) restricted duality equals F T F* + b0 s2 + s2 b0*
        dims0 = cwb._blocks.sub_dims
        s0_tot = assemble_total(
            dims0, dims0, [(k, cwb.chain.n - 1 - k, r) for k, r in enumerate(cwb._restricted)]
        )
        formula = np.hstack((f_upper, h)) @ adjoint(ftot) + b0 @ s2 + s2 @ adjoint(b0)
        ok, formula_res = residual_within(
            s0_tot - formula, tol, lambda norm: max(norm(s0_tot), norm(formula))
        )
        if not ok:
            failures.append(_CONE_IDENTITY_FAILURES["boundary_formula_residual"])

    return ConeIdentitiesReport(
        tol=tol,
        cone_square_residual=sq,
        chain_map_residual=chain_res,
        boundary_formula_residual=formula_res,
        hyperbolic_valid=hyp_valid,
        passed=not failures,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class BoundaryZeroReport:
    """Outcome of checking that a boundary signature class vanishes."""

    coincidence: CoincidenceReport
    is_zero: bool
    passed: bool


def boundary_signature_is_zero(
    cwb: ComplexWithBoundary, tol: float = DEFAULT_TOL
) -> BoundaryZeroReport:
    """Compute the boundary complex and check its class is zero in K-theory,
    exactly: every integer multiplicity of the class is 0.

    The signature constructions reuse ``B + S`` and ``B - S`` as the boundary
    complex's duality check diagonalised them.
    """
    hp, halves = _boundary_complex(cwb, tol)
    rep = check_coincidence(hp, tol) if halves is None else _coincidence(hp.n, None, halves, tol)
    zero = not any(rep.k0.multiplicities)
    return BoundaryZeroReport(
        coincidence=rep, is_zero=zero, passed=zero and rep.passed
    )
