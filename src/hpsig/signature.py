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

Each operation diagonalises ``B + S`` once.  For even ``n`` the grading
``phi = (-1)^degree`` conjugates ``B - S`` into ``-(B + S)`` entry for entry,
and ``B - S`` is read off ``B + S`` as its mirror (see
:func:`~hpsig.complexes._diagonalise_halves`); all three constructions read
those results.  ``check_coincidence`` diagonalises itself.
``manifold_signature``, the ``manifold`` command and
``boundary_signature_is_zero`` have already diagonalised in the duality check
of the same operation, and hand the results to ``_coincidence``, which skips
the cone's chain-map gate that the check has just passed on the same data at
the same tolerance.  Mishchenko's cone is not assembled: its compression is
``B + S_h``, whose spectrum and split (and hence the reduced class) it shares,
and its cone spectrum is that of ``B + S_h`` and ``B - S_h`` (see
:mod:`hpsig.complexes`).  Over the trivial group (no action) only
eigenvalues are computed and every class is an inertia count: Higson-Roe is
``#pos(B + S) - #pos(B - S)``, reduced and Mishchenko are
``#pos(B + S) - #neg(B + S)``.  With an action that is by signed
permutations and commutes with the operator entry for entry, as on every
triangulation, the same counts are taken in each isotypic block, one small
eigensolve per irreducible character ``chi``, and every class is
``sum_chi m_chi chi`` with the integer ``m_chi = count_chi / dim chi``; a
count that ``dim chi`` does not divide raises NonEquivariantProjection.  With
any other action (dense, or commuting only up to rounding) the classes are
characters of spectral projections (:func:`~hpsig.groups.k0_from_projections`).
Higson-Roe's ``p_+(B - S)`` is ``phi p_-(B + S) phi``, whose counts and
characters are those of ``p_-(B + S)`` exactly, so Higson-Roe and reduced
agree to the last bit.  The comparison therefore checks the constructions'
algebra and the gated grading identity, not the eigensolver; the independent
check is an exact one, the intersection form on middle homology (ROADMAP
Direction 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from .complexes import (
    HilbertPoincareComplex,
    _diagonalise,
    _diagonalise_halves,
    _Halves,
    _hermitian_halves,
    _require_duality_chain_map,
)
from .errors import DegenerateOperator, NonEquivariantProjection, OddDimension
from .groups import (
    CHAR_TOL,
    FiniteGroup,
    K0Class,
    k0_equal,
    k0_from_multiplicities,
    k0_from_projections,
)
from .linalg import (
    DEFAULT_TOL,
    BlockSpectrum,
    Spectrum,
    _require_self_adjoint,
    adjoint,
    classify_eigenvalues,
    residual_within,
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


def _halves(
    hp: HilbertPoincareComplex, plus_op: np.ndarray, minus_op: np.ndarray, tol: float
) -> tuple[Spectrum, Spectrum]:
    """``B + S`` and ``B - S`` diagonalised for the classes over ``hp``'s
    group, with ``B - S`` read off ``B + S`` through the grading in even
    degree (see :func:`~hpsig.complexes._diagonalise_halves`)."""
    return _diagonalise_halves(plus_op, minus_op, hp.degree_signs(), hp.n, tol, hp.action)


def _nondegenerate_halves(
    hp: HilbertPoincareComplex, plus_op: np.ndarray, minus_op: np.ndarray, tol: float
) -> tuple[Spectrum, Spectrum]:
    """``B + S`` and ``B - S``, diagonalised and checked in turn."""
    plus, minus = _halves(hp, plus_op, minus_op, tol)
    return _nondegenerate(plus, "B + S"), _nondegenerate(minus, "B - S")


def _inertia_class(rank: int) -> K0Class:
    """A class over the trivial group, whose K_0 is the integers."""
    return K0Class(FiniteGroup.trivial(), (complex(rank),))


def _isotypic_class(group: FiniteGroup, first: Sequence[int], second: Sequence[int]) -> K0Class:
    """``[p_1] - [p_2]`` for spectral projections ``p_1`` and ``p_2`` whose
    images meet the isotypic block of the ``c``-th irreducible character
    ``chi`` in ``first[c]`` and ``second[c]`` dimensions.

    Each such image is a sum of copies of ``chi``, so each count is a
    multiple of ``dim chi``, and the class is ``sum_chi m_chi chi`` with the
    integer ``m_chi = (first[c] - second[c]) / dim chi``.  A count that
    ``dim chi`` does not divide raises NonEquivariantProjection.
    """
    multiplicities = []
    for d, one, two in zip(group.character_degrees, first, second):
        if one % d or two % d:
            raise NonEquivariantProjection(
                f"spectral projections have ranks ({one}, {two}) in the isotypic "
                f"block of a character of degree {d}"
            )
        multiplicities.append((one - two) // d)
    return k0_from_multiplicities(group, multiplicities)


def _signed_class(hp: HilbertPoincareComplex, split: Spectrum, tol: float) -> K0Class:
    """Positive minus negative part of a nondegenerate self-adjoint operator."""
    if hp.action is None:
        return _inertia_class(split.rank_plus - split.rank_minus)
    if isinstance(split, BlockSpectrum):
        plus, minus = zip(*split.block_ranks)
        return _isotypic_class(hp.action.group, plus, minus)
    return k0_from_projections(split.p_plus, split.p_minus, hp.action, tol=tol)


def _higson_roe(
    hp: HilbertPoincareComplex, plus: Spectrum, minus: Spectrum, tol: float
) -> SignatureResult:
    """Higson-Roe class from the nondegenerate ``B + S`` and ``B - S``."""
    if hp.action is None:
        k0 = _inertia_class(plus.rank_plus - minus.rank_plus)
    elif isinstance(plus, BlockSpectrum):
        first = [p for p, _ in plus.block_ranks]
        second = [p for p, _ in minus.block_ranks]
        k0 = _isotypic_class(hp.action.group, first, second)
    else:
        k0 = k0_from_projections(plus.p_plus, minus.p_plus, hp.action, tol=tol)
    gap = min(plus.min_abs_nonzero_eigenvalue, minus.min_abs_nonzero_eigenvalue)
    return SignatureResult(method="higson-roe", k0=k0, spectral_gap=gap)


def _reduced(hp: HilbertPoincareComplex, split: Spectrum, tol: float) -> SignatureResult:
    """Reduced class from ``b + b^* + S``."""
    _nondegenerate(split, "b + b* + S")
    return SignatureResult(
        method="reduced",
        k0=_signed_class(hp, split, tol),
        spectral_gap=split.min_abs_nonzero_eigenvalue,
    )


def _mishchenko(
    hp: HilbertPoincareComplex, plus: Spectrum, minus: Spectrum, tol: float, k0: K0Class | None
) -> SignatureResult:
    """Mishchenko's class from its compression ``B + S_h`` and ``B - S_h``,
    whose spectra together are the cone's; ``k0`` is the compression's class
    when the caller has it, and None otherwise."""
    cone = classify_eigenvalues(np.concatenate([plus.eigenvalues, minus.eigenvalues]), tol)
    _nondegenerate(cone, "cone operator")
    _nondegenerate(plus, "compressed cone operator")
    gap = min(cone.min_abs_nonzero_eigenvalue, plus.min_abs_nonzero_eigenvalue)
    k0 = _signed_class(hp, plus, tol) if k0 is None else k0
    return SignatureResult(method="mishchenko", k0=k0, spectral_gap=gap)


def higson_roe_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Difference class of the positive parts of ``B + S`` and ``B - S``."""
    _require_even(hp)
    big_b, s = _total_operators(hp)
    return _higson_roe(hp, *_nondegenerate_halves(hp, big_b + s, big_b - s, tol), tol)


def mishchenko_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Signature through the duality cone and the diagonal compression, both
    read off ``B + S_h`` and ``B - S_h`` (see :mod:`hpsig.complexes`).

    ``B + S`` passes the self-adjointness gate that the other constructions
    run on it before ``S_h`` is formed; its skew residual is that of ``S``,
    since ``B`` is self-adjoint entry for entry and shares no entry with
    ``S``."""
    _require_even(hp)
    b, s = hp.total_boundary(), hp.total_duality()
    skew = s - adjoint(s)
    _require_self_adjoint(b + adjoint(b) + s, skew, tol)
    _require_duality_chain_map(hp, tol)
    plus_op, minus_op = _hermitian_halves(b, s, skew)
    return _mishchenko(hp, *_halves(hp, plus_op, minus_op, tol), tol, None)


def reduced_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Signature of ``b + b^* + S`` on the total space."""
    _require_even(hp)
    big_b, s = _total_operators(hp)
    return _reduced(hp, _diagonalise((big_b + s,), tol, hp.action)[0], tol)


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
    return _coincidence(hp, None, tol, char_tol)


def _coincidence(
    hp: HilbertPoincareComplex,
    halves: _Halves | None,
    tol: float,
    char_tol: float = CHAR_TOL,
) -> CoincidenceReport:
    """:func:`check_coincidence`, reusing ``halves`` when given.

    ``halves`` must come from the duality check of ``hp``'s duality at the
    same ``tol`` (:func:`~hpsig.complexes._verify_duality`), diagonalised for
    the classes over ``hp``'s group.  Such halves exist only for a duality
    that passed the self-adjointness gate and the cone's chain-map gate,
    which is therefore not run again.  Otherwise ``B + S`` and ``B - S`` are
    diagonalised here, and :func:`~hpsig.linalg.spectrum` reads them as
    ``B + S_h`` and ``B - S_h`` bit for bit (``B`` and ``S`` share no entry).
    """
    _require_even(hp)
    # B + S_h and B - S_h are diagonalised once, together, and shared by all
    # three constructions.
    if halves is None:
        big_b, s = _total_operators(hp)
        plus_op, minus_op = big_b + s, big_b - s
        plus, minus = _nondegenerate_halves(hp, plus_op, minus_op, tol)
    else:
        plus_op, minus_op = halves.plus_op, halves.minus_op
        plus = _nondegenerate(halves.plus, "B + S")
        minus = _nondegenerate(halves.minus, "B - S")
    hr = _higson_roe(hp, plus, minus, tol)
    if halves is None:
        _require_duality_chain_map(hp, tol)
    # Mishchenko's compression is B + S_h, so its class is the reduced one
    re = _reduced(hp, plus, tol)
    results = (hr, _mishchenko(hp, plus, minus, tol, re.k0), re)
    diffs = [0.0]
    for i in range(3):
        for j in range(i + 1, 3):
            diffs.extend(
                abs(x - y)
                for x, y in zip(results[i].k0.values, results[j].k0.values)
            )
    max_diff = max(diffs)
    signs = hp.degree_signs()
    graded, residual = residual_within(
        signs[:, None] * minus_op * signs + plus_op,
        tol,
        lambda norm: max(norm(plus_op), norm(minus_op)),
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
