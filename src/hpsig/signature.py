"""Three constructions of the K-theoretic signature and their comparison.

For an even top degree ``n`` the three constructions are:

* ``higson_roe_signature``: difference of the positive spectral projections of
  ``B + S`` and ``B - S`` on the total space, where ``B = b + b^*``.
* ``mishchenko_signature``: build the mapping cone of the duality, form the
  self-adjoint cone operator ``D + D^*``, check that it is invertible,
  compress it back to the total space by the isometry ``x -> (x, x)/sqrt(2)``
  (one copy in the source summands of the cone, one in the target summands),
  and take positive minus negative spectral projections of the compression.
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

from .complexes import HilbertPoincareComplex, doubled_duality_cone
from .errors import DegenerateOperator, OddDimension
from .groups import CHAR_TOL, K0Class, k0_equal, k0_from_projections
from .linalg import (
    DEFAULT_TOL,
    SpectralSplit,
    Spectrum,
    adjoint,
    classify_eigenvalues,
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


def _total_operators(hp: HilbertPoincareComplex) -> tuple[np.ndarray, np.ndarray]:
    """``B = b + b^*`` and ``S`` on the total space."""
    b = hp.total_boundary()
    return b + adjoint(b), hp.total_duality()


def _higson_roe(
    hp: HilbertPoincareComplex, plus: SpectralSplit, minus_op: np.ndarray, tol: float
) -> SignatureResult:
    """Higson-Roe class from the split of ``B + S`` and the operator ``B - S``."""
    _nondegenerate(plus, "B + S")
    minus = _nondegenerate(spectral_split(minus_op, tol), "B - S")
    k0 = k0_from_projections(plus.p_plus, minus.p_plus, hp.action, tol=tol)
    gap = min(plus.min_abs_nonzero_eigenvalue, minus.min_abs_nonzero_eigenvalue)
    return SignatureResult(method="higson-roe", k0=k0, spectral_gap=gap)


def _reduced(
    hp: HilbertPoincareComplex, split: SpectralSplit, tol: float
) -> SignatureResult:
    """Reduced class from the split of ``b + b^* + S``."""
    _nondegenerate(split, "b + b* + S")
    k0 = k0_from_projections(split.p_plus, split.p_minus, hp.action, tol=tol)
    return SignatureResult(
        method="reduced", k0=k0, spectral_gap=split.min_abs_nonzero_eigenvalue
    )


def higson_roe_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Difference class of the positive parts of ``B + S`` and ``B - S``."""
    _require_even(hp)
    big_b, s = _total_operators(hp)
    return _higson_roe(hp, spectral_split(big_b + s, tol), big_b - s, tol)


def mishchenko_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Signature through the duality cone and the diagonal compression.

    The cone operator only has to be invertible, so its eigenvalues are
    computed without eigenvectors.  When the cone is decoupled (see
    :class:`~hpsig.complexes.DoubledCone`) they are the eigenvalues of the
    compression, which its split computes anyway, together with those of the
    complementary compression.
    """
    _require_even(hp)
    doubled = doubled_duality_cone(hp, tol=tol)
    split = spectral_split(doubled.plus, tol)
    if doubled.decoupled:
        cone_eigenvalues = np.concatenate(
            [split.eigenvalues, spectrum(doubled.minus, tol).eigenvalues]
        )
        cone_spec = classify_eigenvalues(cone_eigenvalues, tol)
    else:
        cone_spec = spectrum(doubled.operator, tol)
    _nondegenerate(cone_spec, "cone operator")
    _nondegenerate(split, "compressed cone operator")
    k0 = k0_from_projections(split.p_plus, split.p_minus, hp.action, tol=tol)
    gap = min(cone_spec.min_abs_nonzero_eigenvalue, split.min_abs_nonzero_eigenvalue)
    return SignatureResult(method="mishchenko", k0=k0, spectral_gap=gap)


def reduced_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Signature of ``b + b^* + S`` on the total space."""
    _require_even(hp)
    big_b, s = _total_operators(hp)
    return _reduced(hp, spectral_split(big_b + s, tol), tol)


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
    _require_even(hp)
    # B + S is diagonalised once and shared by the Higson-Roe and the reduced
    # construction, which both need its spectral split.
    big_b, s = _total_operators(hp)
    plus, minus = big_b + s, big_b - s
    plus_split = spectral_split(plus, tol)
    hr = _higson_roe(hp, plus_split, minus, tol)
    mi = mishchenko_signature(hp, tol=tol)
    re = _reduced(hp, plus_split, tol)
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
