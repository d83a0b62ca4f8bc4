"""Dense spectral primitives.

All operators in this package are finite dimensional numpy arrays, stored as
float64 when their data is real and as complex128 otherwise: :func:`as_matrix`
coerces one operator and :func:`operator_dtype` gives the dtype of a matrix
assembled from several blocks (float64 unless some block is complex).  numpy's
dtype dispatch then picks the real or complex LAPACK and BLAS routine, so the
spectral projections of a real operator are real.  The cap-product duality of
a triangulation of dimension 4k is real and runs in real arithmetic; in
dimension 4k + 2 it is imaginary and runs in complex arithmetic.

Residual gates.  An identity is accepted when the spectral norm of its
residual ``r`` satisfies ``|r| <= tol * max(1, scale)`` (:func:`within`), where
``scale`` is built from the spectral norms of the data entering the identity,
so that tolerances behave uniformly across magnitudes.  :func:`residual_within`
decides that rule without a singular value decomposition in the common case:
the Frobenius norm of ``r`` bounds its spectral norm from above and the largest
column norm of each operand bounds the operand's spectral norm from below, so
when the bound passes against the lowered scale the exact rule passes too.
Only otherwise are the exact norms computed, and they decide.  A residual
stored in a report is therefore the number its gate used: an upper bound on
the spectral norm when the gate passed, and the exact spectral norm when it
failed.  Residuals that gate nothing are diagnostic and store the Frobenius
bound (:func:`frobenius_norm`); these are ``CapReport.symmetrization_residual``,
``CapReport.chain_residual`` and ``EquivarianceReport.raw_cap_residual``, and
they do not enter ``passed``.

Invertibility and spectral splitting read eigenvalues of self-adjoint
operators.  For those the smallest ``|eigenvalue|`` equals the smallest
singular value and the largest ``|eigenvalue|`` equals the spectral norm, so
neither needs a singular value decomposition.  A report's
``cone_min_singular_value`` is the smallest ``|eigenvalue|`` of the
self-adjoint cone operator ``D + D^*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NotSelfAdjoint, ShapeMismatch

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "SpectralSplit",
    "Spectrum",
    "adjoint",
    "as_matrix",
    "assemble_total",
    "frobenius_norm",
    "is_invertible",
    "min_singular_value",
    "operator_dtype",
    "operator_norm",
    "residual_within",
    "spectral_split",
    "spectrum",
    "within",
]


_REAL = np.dtype(np.float64)
_COMPLEX = np.dtype(np.complex128)


def operator_dtype(*blocks: np.ndarray) -> np.dtype:
    """Dtype of operator data built from ``blocks``: complex128 when some block
    is complex, float64 otherwise."""
    return _COMPLEX if any(b.dtype.kind == "c" for b in blocks) else _REAL


def as_matrix(m, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``m`` to a 2d array, float64 when its dtype is real (ints and
    bools included) and complex128 otherwise, optionally enforcing its shape."""
    a = np.asarray(m)
    if a.dtype != _REAL and a.dtype != _COMPLEX:
        a = a.astype(_REAL if a.dtype.kind in "biuf" else _COMPLEX)
    if a.ndim == 0 and (rows == 0 or cols == 0):
        a = np.zeros((rows or 0, cols or 0), dtype=a.dtype)
    if a.ndim == 1:
        # A length-0 vector is accepted for empty blocks only.
        if a.size == 0 and (rows in (0, None) or cols in (0, None)):
            a = a.reshape((rows or 0, cols or 0))
        else:
            raise ShapeMismatch(f"expected a matrix, got array of shape {a.shape}")
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got array of shape {a.shape}")
    if rows is not None and a.shape[0] != rows:
        raise ShapeMismatch(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ShapeMismatch(f"expected {cols} columns, got {a.shape[1]}")
    if a.size and not np.all(np.isfinite(a)):
        raise ShapeMismatch("matrix contains non-finite entries")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value; 0 for empty matrices."""
    a = np.asarray(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def min_singular_value(m: np.ndarray) -> float:
    """Smallest singular value; +inf for 0x0, 0 for non-square empty shapes."""
    a = np.asarray(m)
    if a.shape[0] != a.shape[1]:
        if a.shape[0] == 0 or a.shape[1] == 0:
            return 0.0
        s = np.linalg.svd(a, compute_uv=False)
        return float(s[-1]) if min(a.shape) else 0.0
    if a.shape[0] == 0:
        return float("inf")
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[-1])


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm, an upper bound on the spectral norm; 0 for empty matrices."""
    return float(np.linalg.norm(np.asarray(m)))


def _column_norm_bound(m: np.ndarray) -> float:
    """Largest column norm, a lower bound on the spectral norm; 0 for empty matrices."""
    a = np.asarray(m)
    return float(np.linalg.norm(a, axis=0).max()) if a.size else 0.0


# The bound test runs at this fraction of the tolerance, so that rounding in
# the computed Frobenius and column norms (relative error about n * 1e-16)
# cannot pass a residual that the exact rule would fail.
_BOUND_MARGIN = 1.0 - 1e-10


def within(residual: float, tol: float, scale: float = 1.0) -> bool:
    """Residual acceptance rule used across the package."""
    return residual <= tol * max(1.0, scale)


def residual_within(
    r: np.ndarray,
    tol: float,
    scale: Callable[[Callable[[np.ndarray], float]], float] | None = None,
) -> tuple[bool, float]:
    """Decide ``within(operator_norm(r), tol, scale(operator_norm))``.

    ``scale`` gives the scale of the identity in terms of a norm function,
    e.g. ``lambda norm: norm(b) * norm(s)``, and must be nondecreasing in
    every norm it takes; None stands for a scale of 1.  Returns
    ``(passed, residual)``: the Frobenius bound of ``r`` when it passes
    against the scale evaluated on column-norm lower bounds, and otherwise the
    exact spectral norm, judged against the exact scale.
    """
    bound = frobenius_norm(r)
    lower = 1.0 if scale is None else scale(_column_norm_bound)
    if within(bound, tol * _BOUND_MARGIN, lower):
        return True, bound
    exact = operator_norm(r)
    return within(exact, tol, 1.0 if scale is None else scale(operator_norm)), exact


def _hermitian_part(h: np.ndarray, tol: float) -> np.ndarray:
    """``(h + h*) / 2`` after checking that ``h`` is square and self-adjoint."""
    a = as_matrix(h)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {a.shape}")
    ok, herm = residual_within(a - adjoint(a), tol, lambda norm: norm(a))
    if not ok:
        raise NotSelfAdjoint(
            f"operator is not self-adjoint: |h - h*| = {herm:.3e} exceeds tol"
        )
    return (a + adjoint(a)) / 2.0


def is_invertible(h: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Return (flag, smallest |eigenvalue|) of a self-adjoint operator; the
    flag is true iff that value exceeds ``tol``.

    The smallest |eigenvalue| of a self-adjoint operator is its smallest
    singular value.  Empty operators are invertible (identity of the zero
    space).  Raises NotSelfAdjoint if ``h`` is not self-adjoint within ``tol``.
    """
    w = np.linalg.eigvalsh(_hermitian_part(h, tol))
    least = float(np.abs(w).min()) if w.size else float("inf")
    return least > tol, least


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a self-adjoint operator, classified by sign.

    Eigenvalues with ``|lam| <= tol * max(1, max |lam|)`` land in the zero
    class; ``max |lam|`` is the spectral norm of the operator.
    """

    eigenvalues: np.ndarray
    rank_plus: int
    rank_minus: int
    rank_zero: int
    min_abs_nonzero_eigenvalue: float


@dataclass(frozen=True)
class SpectralSplit(Spectrum):
    """Signed spectral decomposition of a self-adjoint operator.

    ``p_plus``/``p_minus``/``p_zero`` are orthogonal projections onto the
    strictly positive, strictly negative and (numerically) zero eigenspaces.
    """

    p_plus: np.ndarray
    p_minus: np.ndarray
    p_zero: np.ndarray


def _sign_classes(w: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """Masks of the positive and negative eigenvalues and the Spectrum fields."""
    thresh = tol * max(1.0, float(np.abs(w).max(initial=0.0)))
    plus = w > thresh
    minus = w < -thresh
    nonzero = np.abs(w[plus | minus])
    fields = dict(
        eigenvalues=w,
        rank_plus=int(np.count_nonzero(plus)),
        rank_minus=int(np.count_nonzero(minus)),
        rank_zero=int(w.size - np.count_nonzero(plus | minus)),
        min_abs_nonzero_eigenvalue=float(nonzero.min()) if nonzero.size else float("inf"),
    )
    return plus, minus, fields


def spectrum(h: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """Sign classes of the eigenvalues of a self-adjoint matrix, without
    eigenvectors."""
    w = np.linalg.eigvalsh(_hermitian_part(h, tol))
    return Spectrum(**_sign_classes(w, tol)[2])


def spectral_split(h: np.ndarray, tol: float = DEFAULT_TOL) -> SpectralSplit:
    """Split a self-adjoint matrix into positive/negative/zero spectral parts."""
    w, v = np.linalg.eigh(_hermitian_part(h, tol))
    plus, minus, fields = _sign_classes(w, tol)

    def proj(mask: np.ndarray) -> np.ndarray:
        vecs = v[:, mask]
        return vecs @ adjoint(vecs)

    return SpectralSplit(
        **fields, p_plus=proj(plus), p_minus=proj(minus), p_zero=proj(~(plus | minus))
    )


def assemble_total(
    row_dims: Sequence[int],
    col_dims: Sequence[int],
    entries: Iterable[tuple[int, int, np.ndarray]],
) -> np.ndarray:
    """Assemble a block matrix from (row-degree, col-degree, block) entries.

    Blocks at the same position accumulate additively; the dtype follows
    :func:`operator_dtype`.
    """
    row_off = np.concatenate(([0], np.cumsum(row_dims))).astype(int)
    col_off = np.concatenate(([0], np.cumsum(col_dims))).astype(int)
    blocks = [(r, c, np.asarray(block)) for r, c, block in entries]
    total = np.zeros(
        (int(row_off[-1]), int(col_off[-1])),
        dtype=operator_dtype(*(b for _, _, b in blocks)),
    )
    for r, c, b in blocks:
        if b.shape != (row_dims[r], col_dims[c]):
            raise ShapeMismatch(
                f"block at ({r}, {c}) has shape {b.shape}, "
                f"expected {(row_dims[r], col_dims[c])}"
            )
        total[row_off[r]:row_off[r + 1], col_off[c]:col_off[c + 1]] += b
    return total
