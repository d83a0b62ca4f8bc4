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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complexes import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    mapping_cone,
    verify_duality,
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
from .groups import k0_equal, k0_zero
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    as_matrix,
    assemble_total,
    is_invertible,
    operator_dtype,
    residual_within,
)
from .signature import CoincidenceReport, check_coincidence

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
            keep = set(self.split[m])
            return tuple(i for i in range(self.chain.dims[m]) if i not in keep)
        return ()


def _take(m: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    rows = np.asarray(list(rows), dtype=int)
    cols = np.asarray(list(cols), dtype=int)
    if m.size == 0 or rows.size == 0 or cols.size == 0:
        return np.zeros((rows.size, cols.size), dtype=m.dtype)
    return m[np.ix_(rows, cols)]


def _defect_family(cwb: ComplexWithBoundary) -> list[np.ndarray]:
    """``R_k = b_{k+1} S_{k+1} + S_k b^*_{N-k}`` mapping ``E_{n-k} -> E_k``."""
    chain, s = cwb.chain, cwb.duality
    big_n = chain.n
    out = []
    for k in range(big_n):
        term1 = chain.boundary(k + 1) @ s.block(k + 1)
        term2 = s.block(k) @ adjoint(chain.boundary(big_n - k))
        out.append(term1 + term2)
    return out


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
    chain, s = cwb.chain, cwb.duality
    big_n = chain.n
    idx0 = [cwb.sub_indices(m) for m in range(big_n + 1)]
    idx1 = [cwb.quotient_indices(m) for m in range(big_n + 1)]
    dims0 = tuple(len(ix) for ix in idx0)
    dims1 = tuple(len(ix) for ix in idx1)
    b0 = [np.zeros((0, 0))]
    b1 = [np.zeros((0, 0))]
    h = [np.zeros((0, 0))]
    f = [np.zeros((0, 0))]
    for m in range(1, big_n + 1):
        b = chain.boundary(m)
        b0.append(_take(b, idx0[m - 1], idx0[m]))
        b1.append(_take(b, idx1[m - 1], idx1[m]))
        h.append(_take(b, idx0[m - 1], idx1[m]))
        f.append(_take(b, idx1[m - 1], idx0[m]))
    s2, s1, fu, fl = [], [], [], []
    for k in range(big_n + 1):
        blk = s.block(k)
        s2.append(_take(blk, idx0[k], idx0[big_n - k]))
        s1.append(_take(blk, idx1[k], idx1[big_n - k]))
        fu.append(_take(blk, idx0[k], idx1[big_n - k]))
        fl.append(_take(blk, idx1[k], idx0[big_n - k]))
    return BlockDecomposition(
        sub_dims=dims0,
        quotient_dims=dims1,
        b0=tuple(b0),
        b1=tuple(b1),
        h=tuple(h),
        f=tuple(f),
        s2=tuple(s2),
        s1=tuple(s1),
        f_upper=tuple(fu),
        f_lower=tuple(fl),
        residuals={},
    )


def _boundary_total(dims: Sequence[int], family: Sequence[np.ndarray]) -> np.ndarray:
    entries = [(m - 1, m, family[m]) for m in range(1, len(dims))]
    return assemble_total(dims, dims, entries)


def _duality_total(
    row_dims: Sequence[int], col_dims: Sequence[int], family: Sequence[np.ndarray]
) -> np.ndarray:
    big_n = len(family) - 1
    entries = [(k, big_n - k, family[k]) for k in range(big_n + 1)]
    return assemble_total(row_dims, col_dims, entries)


def _structure_gates(
    cwb: ComplexWithBoundary, blocks: BlockDecomposition, tol: float
) -> dict[str, tuple[bool, float]]:
    """Gate every structural identity at one common scale, by name."""
    chain, s = cwb.chain, cwb.duality
    big_n = chain.n
    dims0, dims1 = blocks.sub_dims, blocks.quotient_dims
    b0 = _boundary_total(dims0, blocks.b0)
    b1 = _boundary_total(dims1, blocks.b1)
    htot = assemble_total(
        dims0, dims1, [(m - 1, m, blocks.h[m]) for m in range(1, big_n + 1)]
    )
    ftot = assemble_total(
        dims1, dims0, [(m - 1, m, blocks.f[m]) for m in range(1, big_n + 1)]
    )
    s1 = _duality_total(dims1, dims1, blocks.s1)
    s2 = _duality_total(dims0, dims0, blocks.s2)
    fup = _duality_total(dims0, dims1, blocks.f_upper)
    flo = _duality_total(dims1, dims0, blocks.f_lower)

    stot = s.total(chain)
    btot = chain.total_boundary()

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
    """Invertibility of the cone operator of the quotient duality family."""
    chain = cwb.chain
    big_n = chain.n
    blocks = _split_blocks(cwb)
    quotient = ChainComplex(blocks.quotient_dims, tuple(blocks.b1[1:]))
    dual_dims = tuple(reversed(chain.dims))
    dual_bnds = tuple(
        -adjoint(chain.boundary(big_n - k + 1)) for k in range(1, big_n + 1)
    )
    source = ChainComplex(dual_dims, dual_bnds)
    js = [
        _take(cwb.duality.block(p), cwb.quotient_indices(p), range(chain.dims[big_n - p]))
        for p in range(big_n + 1)
    ]
    try:
        cone = mapping_cone(js, source, quotient, tol=tol)
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
    gates = _structure_gates(cwb, _split_blocks(cwb), tol)
    failures = [name for name, (ok, _) in gates.items() if not ok]
    inv, minsv = _quotient_cone_min_sv(cwb, tol)
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
    subcomplex and IdentityViolated naming each failed chain identity.
    """
    blocks = _split_blocks(cwb)
    gates = _structure_gates(cwb, blocks, tol)
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
    blocks.residuals.update({name: res for name, (_, res) in gates.items()})
    return blocks


def boundary_complex(
    cwb: ComplexWithBoundary, tol: float = DEFAULT_TOL
) -> HilbertPoincareComplex:
    """Boundary object ``(E_0, i b_0, S_0)`` with ``S_0`` the restricted defect.

    The restriction is compared against its closed-form expression in the
    decomposition blocks (FormulaMismatch on disagreement) and the resulting
    duality must have an invertible cone operator (DegenerateBoundaryDuality).
    """
    blocks = decompose(cwb, tol=tol)
    chain = cwb.chain
    big_n = chain.n
    n = big_n - 1
    if blocks.sub_dims[big_n]:
        raise SplitInconsistent(
            f"subcomplex has dimension {blocks.sub_dims[big_n]} in top degree "
            f"{big_n}; the boundary object must live in degrees 0..{n}"
        )
    defect = _defect_family(cwb)
    idx0 = [cwb.sub_indices(m) for m in range(big_n + 1)]
    restricted = [
        _take(defect[k], idx0[k], idx0[n - k]) for k in range(n + 1)
    ]
    btot = chain.total_boundary()
    stot = cwb.duality.total(chain)

    def scale(norm) -> float:
        return norm(btot) * norm(stot)

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
        ChainComplex(dims0, bnd), DualityOperator(tuple(restricted))
    )
    report = verify_duality(hp, tol=tol)
    if not report.cone_invertible:
        raise DegenerateBoundaryDuality(
            f"boundary duality cone is singular "
            f"(smallest singular value {report.cone_min_singular_value:.3e})"
        )
    return hp


def hyperbolic(
    chain: ChainComplex,
    s_blocks: Sequence[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> HilbertPoincareComplex:
    """Hyperbolic complex on ``E_m (+) E_{d+1-m}`` built from compatible data.

    Preconditions (PreconditionViolated): ``b b = 0``, the family
    ``S_k : E_{d-k} -> E_k`` is self-adjoint in the degree-reversing sense
    ``S_k^* = S_{d-k}``, and ``b S + S b^* = 0``.  The output has top degree
    ``d + 1``, differential ``i [[b, S], [0, b^*]]`` and the coordinate swap as
    duality; its signature class vanishes.
    """
    d = chain.n
    if len(s_blocks) != d + 1:
        raise ShapeMismatch(f"expected {d + 1} duality blocks, got {len(s_blocks)}")
    s = [
        as_matrix(blk, rows=chain.dims[k], cols=chain.dims[d - k])
        for k, blk in enumerate(s_blocks)
    ]
    btot = chain.total_boundary()

    def scale_s(norm) -> float:
        return max((norm(x) for x in s), default=0.0)

    for k in range(1, d):
        ok, res = residual_within(
            chain.boundary(k) @ chain.boundary(k + 1),
            tol,
            lambda norm: norm(btot) ** 2,
        )
        if not ok:
            raise PreconditionViolated(f"input boundary does not square to zero ({res:.3e})")
    for k in range(d + 1):
        ok, res = residual_within(adjoint(s[k]) - s[d - k], tol, scale_s)
        if not ok:
            raise PreconditionViolated(
                f"input family is not self-adjoint at degree {k} ({res:.3e})"
            )
    for k in range(1, d + 1):
        ok, res = residual_within(
            chain.boundary(k) @ s[k] + s[k - 1] @ adjoint(chain.boundary(d - k + 1)),
            tol,
            lambda norm: norm(btot) * scale_s(norm),
        )
        if not ok:
            raise PreconditionViolated(
                f"input family does not anticommute with the boundary at degree {k} "
                f"({res:.3e})"
            )
    top = d + 1
    hdims = tuple(
        (chain.dims[m] if m <= d else 0) + (chain.dims[top - m] if top - m <= d else 0)
        for m in range(top + 1)
    )
    dtype = operator_dtype(*s, *chain.boundaries)
    bnds = []
    for m in range(1, top + 1):
        r1 = chain.dims[m - 1] if m - 1 <= d else 0
        r2 = chain.dims[top - m + 1] if top - m + 1 <= d else 0
        c1 = chain.dims[m] if m <= d else 0
        c2 = chain.dims[top - m] if top - m <= d else 0
        blk = np.zeros((r1 + r2, c1 + c2), dtype=dtype)
        if m <= d:
            blk[:r1, :c1] = chain.boundary(m)
        blk[:r1, c1:] = s[m - 1]
        if top - m + 1 <= d:
            blk[r1:, c1:] = adjoint(chain.boundary(top - m + 1))
        bnds.append(1j * blk)
    sdual = []
    for m in range(top + 1):
        r1 = chain.dims[m] if m <= d else 0
        r2 = chain.dims[top - m] if top - m <= d else 0
        blk = np.zeros((r1 + r2, r2 + r1))
        blk[:r1, r2:] = np.eye(r1)
        blk[r1:, :r2] = np.eye(r2)
        sdual.append(blk)
    return HilbertPoincareComplex(
        ChainComplex(hdims, tuple(bnds)), DualityOperator(tuple(sdual))
    )


@dataclass(frozen=True)
class ConeIdentitiesReport:
    """Residuals of the attaching construction around a complex with boundary."""

    tol: float
    cone_square_residual: float
    chain_map_residual: float
    boundary_formula_residual: float
    sequence_composes: bool
    sequence_exact: bool
    hyperbolic_valid: bool
    passed: bool
    failures: tuple[str, ...]


def verify_cone_identities(
    cwb: ComplexWithBoundary, tol: float = DEFAULT_TOL
) -> ConeIdentitiesReport:
    """Verify the cone, exact sequence, and boundary-formula identities.

    Builds (a) the attaching cone on ``E_m (+) (E_1)_{N+1-m}`` and checks that
    its differential squares to zero, (b) the coordinate four-term sequence
    relating sub, total and quotient spaces, checked for exactness by rank,
    (c) the coupling chain map from the hyperbolic complex of the quotient data
    to the boundary complex, and (d) the closed formula expressing the
    restricted duality through that chain map.
    """
    blocks = _split_blocks(cwb)
    chain = cwb.chain
    big_n = chain.n
    dims0, dims1 = blocks.sub_dims, blocks.quotient_dims
    idx1 = [cwb.quotient_indices(m) for m in range(big_n + 1)]
    failures: list[str] = []

    # (a) attaching cone: degree m is E_m (+) (E_1)_{N+1-m}
    adims = tuple(
        (chain.dims[m] if m <= big_n else 0)
        + (dims1[big_n + 1 - m] if 0 <= big_n + 1 - m <= big_n else 0)
        for m in range(big_n + 2)
    )
    aoff = np.concatenate(([0], np.cumsum(adims))).astype(int)
    htot = np.zeros(
        (int(aoff[-1]), int(aoff[-1])),
        dtype=operator_dtype(*chain.boundaries, *cwb.duality.blocks),
    )

    def a_slice(m: int, part: int) -> slice:
        base = int(aoff[m])
        e_dim = chain.dims[m] if 0 <= m <= big_n else 0
        if part == 0:
            return slice(base, base + e_dim)
        q = big_n + 1 - m
        q_dim = dims1[q] if 0 <= q <= big_n else 0
        return slice(base + e_dim, base + e_dim + q_dim)

    for m in range(1, big_n + 2):
        if 1 <= m <= big_n:
            htot[a_slice(m - 1, 0), a_slice(m, 0)] = chain.boundary(m)
        q = big_n + 1 - m
        if 0 <= q <= big_n and m - 1 <= big_n:
            incl = np.zeros((chain.dims[q], dims1[q]))
            for col, row in enumerate(idx1[q]):
                incl[row, col] = 1.0
            htot[a_slice(m - 1, 0), a_slice(m, 1)] = (
                cwb.duality.block(m - 1) @ incl
            )
        if 0 <= q <= big_n and 0 <= q + 1 <= big_n:
            htot[a_slice(m - 1, 1), a_slice(m, 1)] = adjoint(blocks.b1[q + 1])
    ok, sq = residual_within(htot @ htot, tol, lambda norm: norm(htot) ** 2)
    if not ok:
        failures.append("attaching cone differential does not square to zero")

    # (b) four-term sequence on total spaces
    d_e = sum(chain.dims)
    d_0 = sum(dims0)
    d_1 = sum(dims1)
    imap = np.zeros((d_e, d_0))
    jmap = np.zeros((d_1, d_e))
    off_e = np.concatenate(([0], np.cumsum(chain.dims))).astype(int)
    off_0 = np.concatenate(([0], np.cumsum(dims0))).astype(int)
    off_1 = np.concatenate(([0], np.cumsum(dims1))).astype(int)
    for m in range(big_n + 1):
        for col, row in enumerate(cwb.sub_indices(m)):
            imap[off_e[m] + row, off_0[m] + col] = 1.0
        for row, col in enumerate(idx1[m]):
            jmap[off_1[m] + row, off_e[m] + col] = 1.0
    first = np.vstack([imap, np.zeros((d_1, d_0))])
    second = np.zeros((d_1 + d_e, d_e + d_1))
    second[:d_1, :d_e] = jmap
    second[d_1:, d_e:] = adjoint(jmap)
    third = np.hstack([np.zeros((d_0, d_1)), adjoint(imap)])
    composes = all(
        residual_within(r, tol)[0] for r in (second @ first, third @ second)
    )
    if not composes:
        failures.append("four-term sequence does not compose to zero")
    rank_first = int(np.linalg.matrix_rank(first)) if first.size else 0
    rank_second = int(np.linalg.matrix_rank(second)) if second.size else 0
    rank_third = int(np.linalg.matrix_rank(third)) if third.size else 0
    exact = (
        rank_first == d_0
        and (d_e + d_1) - rank_second == d_0
        and rank_second == 2 * d_1
        and (d_1 + d_e) - rank_third == rank_second
        and rank_third == d_0
    )
    if not exact:
        failures.append("four-term sequence is not exact")

    # (c) hyperbolic complex of the quotient data and the coupling chain map
    quotient = ChainComplex(dims1, tuple(blocks.b1[1:]))
    hyp_valid = True
    chain_res = float("nan")
    formula_res = float("nan")
    try:
        hyp = hyperbolic(quotient, blocks.s1, tol=tol)
    except (PreconditionViolated, ShapeMismatch) as exc:
        hyp_valid = False
        failures.append(f"quotient data is not hyperbolic input: {exc}")
    if hyp_valid:
        top = big_n + 1
        dtype = operator_dtype(*blocks.h, *blocks.f_upper)
        fam_entries = []
        for m in range(1, top + 1):
            rows = dims0[m - 1]
            c1 = dims1[m] if m <= big_n else 0
            c2 = dims1[top - m] if top - m <= big_n else 0
            blk = np.zeros((rows, c1 + c2), dtype=dtype)
            if c1:
                blk[:, :c1] = blocks.h[m]
            if c2:
                blk[:, c1:] = blocks.f_upper[m - 1]
            fam_entries.append((m - 1, m, blk))
        ftot = assemble_total(dims0, hyp.dims, fam_entries)
        delta = hyp.total_boundary()
        b_bdry = assemble_total(
            dims0, dims0, [(m - 1, m, 1j * blocks.b0[m]) for m in range(1, big_n + 1)]
        )
        ok, chain_res = residual_within(
            ftot @ delta + b_bdry @ ftot,
            tol,
            lambda norm: norm(ftot) * max(norm(delta), 1.0),
        )
        if not ok:
            failures.append("coupling map is not a chain map to the boundary complex")

        # (d) restricted duality equals f T f* + b0 S2 + S2 b0*
        defect = _defect_family(cwb)
        idx0 = [cwb.sub_indices(m) for m in range(big_n + 1)]
        n = big_n - 1
        restricted = [
            _take(defect[k], idx0[k], idx0[n - k]) for k in range(n + 1)
        ]
        s0_tot = assemble_total(
            dims0,
            dims0,
            [(k, n - k, restricted[k]) for k in range(n + 1)],
        )
        ttot = hyp.total_duality()
        b0_raw = assemble_total(
            dims0, dims0, [(m - 1, m, blocks.b0[m]) for m in range(1, big_n + 1)]
        )
        s2_tot = assemble_total(
            dims0,
            dims0,
            [(k, big_n - k, blocks.s2[k]) for k in range(big_n + 1)],
        )
        formula = ftot @ ttot @ adjoint(ftot) + b0_raw @ s2_tot + s2_tot @ adjoint(b0_raw)
        ok, formula_res = residual_within(
            s0_tot - formula, tol, lambda norm: max(norm(s0_tot), norm(formula))
        )
        if not ok:
            failures.append("boundary duality formula does not match the restriction")

    return ConeIdentitiesReport(
        tol=tol,
        cone_square_residual=sq,
        chain_map_residual=chain_res,
        boundary_formula_residual=formula_res,
        sequence_composes=composes,
        sequence_exact=exact,
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
    """Compute the boundary complex and check its class is zero in K-theory."""
    hp = boundary_complex(cwb, tol=tol)
    rep = check_coincidence(hp, tol=tol)
    group = rep.k0.group
    zero = k0_equal(rep.k0, k0_zero(group))
    return BoundaryZeroReport(
        coincidence=rep, is_zero=zero, passed=zero and rep.passed
    )
