"""Three constructions of the K-theoretic signature and their comparison.

For an even top degree ``n`` the three constructions are:

* ``higson_roe_signature``: difference of the positive spectral projections of
  ``B + S`` and ``B - S`` on the total space, where ``B = b + b^*``.
* ``mishchenko_signature``: build the mapping cone of the duality, form the
  self-adjoint cone operator ``D + D^*``, compress it back to the total space
  by the isometry ``x -> (x, x)/sqrt(2)`` (one copy in the source summands of
  the cone, one in the target summands), and take positive minus negative
  spectral projections of the compression.
* ``reduced_signature``: positive minus negative spectral projections of
  ``B + S`` directly.

All three land in K_0 of the group algebra (of the trivial group when no
action is present) and agree; ``check_coincidence`` verifies that numerically
together with the exact grading symmetry that conjugates ``B - S`` into
``-(B + S)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .complexes import HilbertPoincareComplex, duality_cone
from .errors import DegenerateOperator, OddDimension
from .groups import CHAR_TOL, K0Class, k0_equal, k0_from_projections
from .linalg import (
    DEFAULT_TOL,
    Spectrum,
    adjoint,
    residual_within,
    spectral_split,
    spectrum,
)

__all__ = [
    "CoincidenceReport",
    "SignatureResult",
    "check_coincidence",
    "higson_roe_signature",
    "mishchenko_signature",
    "reduced_signature",
]


@dataclass(frozen=True)
class SignatureResult:
    """A K-theory class computed by one named construction.

    ``spectral_gap`` is the smallest absolute eigenvalue met along the way;
    a small gap warns that the verdict is tolerance-sensitive.
    """

    method: str
    k0: K0Class
    spectral_gap: float

    @property
    def rank(self) -> int:
        return self.k0.rank


def _require_even(hp: HilbertPoincareComplex) -> None:
    if hp.n % 2 != 0:
        raise OddDimension(
            f"signature constructions need even top degree, got {hp.n}"
        )


_S = TypeVar("_S", bound=Spectrum)


def _nondegenerate(spec: _S, what: str) -> _S:
    if spec.rank_zero:
        raise DegenerateOperator(
            f"{what} has a {spec.rank_zero}-dimensional numerical kernel"
        )
    return spec


def higson_roe_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Difference class of the positive parts of ``B + S`` and ``B - S``."""
    _require_even(hp)
    b = hp.total_boundary()
    big_b = b + adjoint(b)
    s = hp.total_duality()
    plus = _nondegenerate(spectral_split(big_b + s, tol), "B + S")
    minus = _nondegenerate(spectral_split(big_b - s, tol), "B - S")
    k0 = k0_from_projections(plus.p_plus, minus.p_plus, hp.action, tol=tol)
    gap = min(plus.min_abs_nonzero_eigenvalue, minus.min_abs_nonzero_eigenvalue)
    return SignatureResult(method="higson-roe", k0=k0, spectral_gap=gap)


def _doubling_isometry(hp: HilbertPoincareComplex) -> np.ndarray:
    """Isometry of the total space into the duality cone, ``x -> (x, x)/sqrt(2)``.

    Cone degree ``j`` is ``E_{n-j+1} (+) E_j``; degree ``k`` of the total space
    is sent to the target summand at cone degree ``k`` and to the source
    summand at cone degree ``n - k + 1``.
    """
    n = hp.n
    dims = hp.dims
    cone_dims = [
        (dims[n - j + 1] if 0 <= n - j + 1 <= n else 0) + (dims[j] if j <= n else 0)
        for j in range(n + 2)
    ]
    cone_off = np.concatenate(([0], np.cumsum(cone_dims))).astype(int)
    off = np.concatenate(([0], np.cumsum(dims))).astype(int)
    v = np.zeros((int(cone_off[-1]), int(off[-1])), dtype=np.complex128)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(n + 1):
        d = dims[k]
        if d == 0:
            continue
        cols = slice(off[k], off[k + 1])
        # target summand of cone degree k sits after the source summand there
        src_width = dims[n - k + 1] if 0 <= n - k + 1 <= n else 0
        rows_target = slice(cone_off[k] + src_width, cone_off[k] + src_width + d)
        v[rows_target, cols] = inv_sqrt2 * np.eye(d)
        # source summand of cone degree n - k + 1 is E_k
        j = n - k + 1
        rows_source = slice(cone_off[j], cone_off[j] + d)
        v[rows_source, cols] = inv_sqrt2 * np.eye(d)
    return v


def mishchenko_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Signature through the duality cone and the diagonal compression.

    The cone operator only has to be invertible, so its eigenvalues are
    computed without eigenvectors.
    """
    _require_even(hp)
    cone = duality_cone(hp, tol=tol)
    d = cone.total_boundary()
    cone_op = d + adjoint(d)
    cone_spec = _nondegenerate(spectrum(cone_op, tol), "cone operator")
    v = _doubling_isometry(hp)
    compressed = adjoint(v) @ cone_op @ v
    split = _nondegenerate(spectral_split(compressed, tol), "compressed cone operator")
    k0 = k0_from_projections(split.p_plus, split.p_minus, hp.action, tol=tol)
    gap = min(cone_spec.min_abs_nonzero_eigenvalue, split.min_abs_nonzero_eigenvalue)
    return SignatureResult(method="mishchenko", k0=k0, spectral_gap=gap)


def reduced_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Signature of ``b + b^* + S`` on the total space."""
    _require_even(hp)
    b = hp.total_boundary()
    op = b + adjoint(b) + hp.total_duality()
    split = _nondegenerate(spectral_split(op, tol), "b + b* + S")
    k0 = k0_from_projections(split.p_plus, split.p_minus, hp.action, tol=tol)
    return SignatureResult(
        method="reduced", k0=k0, spectral_gap=split.min_abs_nonzero_eigenvalue
    )


@dataclass(frozen=True)
class CoincidenceReport:
    """Joint result of the three constructions on one complex.

    ``passed`` requires equal classes and a grading conjugation residual
    within tolerance.
    """

    results: tuple[SignatureResult, ...]
    max_character_difference: float
    grading_conjugation_residual: float
    passed: bool

    @property
    def k0(self) -> K0Class:
        return self.results[0].k0


def check_coincidence(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL, char_tol: float = CHAR_TOL
) -> CoincidenceReport:
    """Run all three constructions and compare the resulting classes.

    Also gates the residual of the exact symmetry ``phi (B - S) phi = -(B + S)``
    with ``phi = (-1)^degree``, which is the algebraic reason the classes agree
    for even ``n``, at the scale of ``B + S`` and ``B - S``.
    """
    hr = higson_roe_signature(hp, tol=tol)
    mi = mishchenko_signature(hp, tol=tol)
    re = reduced_signature(hp, tol=tol)
    results = (hr, mi, re)
    diffs = [0.0]
    for i in range(3):
        for j in range(i + 1, 3):
            diffs.extend(
                abs(x - y)
                for x, y in zip(results[i].k0.values, results[j].k0.values)
            )
    max_diff = max(diffs)
    phi_op = hp.degree_sign_operator()
    b = hp.total_boundary()
    big_b = b + adjoint(b)
    s = hp.total_duality()
    plus, minus = big_b + s, big_b - s
    graded, residual = residual_within(
        phi_op @ minus @ phi_op + plus, tol, lambda norm: max(norm(plus), norm(minus))
    )
    all_equal = all(
        k0_equal(results[i].k0, results[j].k0, tol=char_tol)
        for i in range(3)
        for j in range(i + 1, 3)
    )
    return CoincidenceReport(
        results=results,
        max_character_difference=max_diff,
        grading_conjugation_residual=residual,
        passed=all_equal and graded,
    )
