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
action is present) and agree; ``check_coincidence`` compares them.  The
algebraic reason is the grading symmetry that conjugates ``B - S`` into
``-(B + S)``, which holds entry for entry in even degree, so its reported
residual is exactly 0.

Each operation diagonalises ``B + S`` once.  For even ``n`` the grading
``phi = (-1)^degree`` conjugates ``B - S`` into ``-(B + S)`` entry for entry,
and ``B - S`` is read off ``B + S`` as its mirror (see
:func:`~hpsig.complexes._diagonalise_halves`); all three constructions read
those results.  ``check_coincidence`` diagonalises itself.
``manifold_signature``, the ``manifold`` command and
``boundary_signature_is_zero`` have already diagonalised in the duality check
of the same operation, and hand the results to ``_coincidence``, which
reads only them, the top degree and the group: the check has just passed the
cone's chain-map gate on the same data at the same tolerance.  Mishchenko's
cone is not assembled: its compression is ``B + S_h``, whose spectrum (and
hence the reduced class) it shares, and its cone spectrum is that of
``B + S_h`` and ``B - S_h`` (see :mod:`hpsig.complexes`).

Every class is read off eigenvalue counts: those of each sign in each
isotypic block of the action, one small eigensolve per irreducible character
``chi``, give ``sum_chi m_chi chi`` with the integer
``m_chi = count_chi / dim chi``; a count that ``dim chi`` does not divide
raises NonEquivariantProjection.  Without an action the space is one block
and a class is an inertia count, e.g. ``#pos(B + S) - #pos(B - S)``.  The
blocks are read only for an action that passes the duality check's action
gate (:func:`~hpsig.complexes._action_gates`), which every construction runs
after its self-adjointness and nondegeneracy gates, and ``check_coincidence``
after the chain-map gate too; failing it raises EquivarianceViolated, so the
constructions accept exactly the actions that ``verify_duality`` accepts.

Higson-Roe's ``p_+(B - S)`` is ``phi p_-(B + S) phi``, whose block counts
are those of ``p_-(B + S)`` exactly, so Higson-Roe and reduced agree to the
last bit.  ``check_coincidence`` compares the classes on their integer
multiplicities, exactly.  The comparison therefore checks the constructions' algebra, not
the eigensolver; the independent check is an exact one, the intersection
form on middle homology (ROADMAP Direction 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .complexes import (
    HilbertPoincareComplex,
    _action_gates,
    _ActionGates,
    _diagonalise_halves,
    _Halves,
    _hermitian_halves,
    _require_duality_chain_map,
    _require_equivariant,
)
from .errors import DegenerateOperator, NonEquivariantProjection, OddDimension
from .groups import FiniteGroup, K0Class, k0_from_multiplicities
from .linalg import (
    DEFAULT_TOL,
    BlockSpectrum,
    Spectrum,
    _require_self_adjoint,
    adjoint,
    classify_eigenvalues,
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
    a small gap warns that the verdict is tolerance-sensitive.  For a
    triangulation without an action whose identities hold exactly it is that
    of its Morse complex (:mod:`hpsig.reduce`), which has the same classes.
    """

    method: str
    k0: K0Class
    spectral_gap: float

    @property
    def rank(self) -> int:
        return self.k0.rank


def _require_even(n: int) -> None:
    if n % 2 != 0:
        raise OddDimension(f"signature constructions need even top degree, got {n}")


def _nondegenerate(spec: Spectrum, what: str) -> None:
    if spec.rank_zero:
        raise DegenerateOperator(f"{what} has a {spec.rank_zero}-dimensional numerical kernel")


def _group(hp: HilbertPoincareComplex) -> FiniteGroup:
    """The group whose K_0 holds ``hp``'s classes."""
    return FiniteGroup.trivial() if hp.action is None else hp.action.group


def _operators(hp: HilbertPoincareComplex, tol: float) -> tuple[np.ndarray, ...]:
    """``b``, ``S``, ``B + S_h`` and ``B - S_h`` on the total space, once
    ``B + S`` passes the self-adjointness gate, whose skew residual is that
    of ``S``: ``B`` is self-adjoint entry for entry and shares no entry with
    ``S`` in even degree."""
    b, s = hp.total_boundary(), hp.total_duality()
    skew = s - adjoint(s)
    _require_self_adjoint(b + adjoint(b) + s, skew, tol)
    return (b, s, *_hermitian_halves(b, s, skew))


def _gated_halves(
    hp: HilbertPoincareComplex,
    b: np.ndarray,
    s: np.ndarray,
    plus_op: np.ndarray,
    minus_op: np.ndarray,
    tol: float,
) -> tuple[BlockSpectrum, BlockSpectrum, _ActionGates]:
    """``B + S`` and ``B - S`` diagonalised for the classes over ``hp``'s
    group, and the action gate on ``b`` and ``S``; over the trivial group,
    for the gates that precede the action's, when that gate fails."""
    gates = _action_gates(hp, b, s, tol)
    action = hp.action if all(ok for ok, _ in gates) else None
    return (*_diagonalise_halves(plus_op, minus_op, hp.n, tol, action), gates)


def _isotypic_class(group: FiniteGroup, counts: Iterable[tuple[int, int]]) -> K0Class:
    """``[p_1] - [p_2]`` for spectral projections ``p_1`` and ``p_2`` whose
    images meet the isotypic block of the ``c``-th irreducible character
    ``chi`` in ``counts[c] = (first, second)`` dimensions.

    Each such image is a sum of copies of ``chi``, so each count is a
    multiple of ``dim chi``, and the class is ``sum_chi m_chi chi`` with the
    integer ``m_chi = (first - second) / dim chi``.  A count that ``dim chi``
    does not divide raises NonEquivariantProjection.
    """
    multiplicities = []
    for d, (one, two) in zip(group.character_degrees, counts):
        if one % d or two % d:
            raise NonEquivariantProjection(
                f"spectral projections have ranks ({one}, {two}) in the isotypic "
                f"block of a character of degree {d}"
            )
        multiplicities.append((one - two) // d)
    return k0_from_multiplicities(group, multiplicities)


def _higson_roe(group: FiniteGroup, plus: BlockSpectrum, minus: BlockSpectrum) -> SignatureResult:
    """Higson-Roe class from the nondegenerate ``B + S`` and ``B - S``."""
    counts = [(p, q) for (p, _), (q, _) in zip(plus.block_ranks, minus.block_ranks)]
    gap = min(plus.min_abs_nonzero_eigenvalue, minus.min_abs_nonzero_eigenvalue)
    return SignatureResult(method="higson-roe", k0=_isotypic_class(group, counts), spectral_gap=gap)


def _reduced(group: FiniteGroup, split: BlockSpectrum) -> SignatureResult:
    """Reduced class from the nondegenerate ``b + b^* + S``."""
    k0 = _isotypic_class(group, split.block_ranks)
    return SignatureResult(method="reduced", k0=k0, spectral_gap=split.min_abs_nonzero_eigenvalue)


def _cone(plus: Spectrum, minus: Spectrum, tol: float) -> Spectrum:
    """The spectrum of Mishchenko's cone operator, that of its compressions
    ``B + S_h`` and ``B - S_h`` together."""
    return classify_eigenvalues(np.concatenate([plus.eigenvalues, minus.eigenvalues]), tol)


def _mishchenko(group: FiniteGroup, plus: BlockSpectrum, cone: Spectrum) -> SignatureResult:
    """Mishchenko's class from the nondegenerate compression ``B + S_h`` and
    the cone's spectrum (:func:`_cone`)."""
    gap = min(cone.min_abs_nonzero_eigenvalue, plus.min_abs_nonzero_eigenvalue)
    k0 = _isotypic_class(group, plus.block_ranks)
    return SignatureResult(method="mishchenko", k0=k0, spectral_gap=gap)


def higson_roe_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Difference class of the positive parts of ``B + S`` and ``B - S``."""
    _require_even(hp.n)
    plus, minus, gates = _gated_halves(hp, *_operators(hp, tol), tol)
    _nondegenerate(plus, "B + S")
    _nondegenerate(minus, "B - S")
    _require_equivariant(gates)
    return _higson_roe(_group(hp), plus, minus)


def mishchenko_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Signature through the duality cone and the diagonal compression, both
    read off ``B + S_h`` and ``B - S_h`` (see :mod:`hpsig.complexes`)."""
    _require_even(hp.n)
    b, s, plus_op, minus_op = _operators(hp, tol)
    _require_duality_chain_map(hp, tol)
    plus, minus, gates = _gated_halves(hp, b, s, plus_op, minus_op, tol)
    cone = _cone(plus, minus, tol)
    _nondegenerate(cone, "cone operator")
    _nondegenerate(plus, "compressed cone operator")
    _require_equivariant(gates)
    return _mishchenko(_group(hp), plus, cone)


def reduced_signature(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> SignatureResult:
    """Signature of ``b + b^* + S`` on the total space."""
    _require_even(hp.n)
    # in even degree B - S costs nothing: it is the mirror of B + S
    plus, _, gates = _gated_halves(hp, *_operators(hp, tol), tol)
    _nondegenerate(plus, "b + b* + S")
    _require_equivariant(gates)
    return _reduced(_group(hp), plus)


@dataclass(frozen=True)
class CoincidenceReport:
    """Joint result of the three constructions on one complex.

    ``passed`` requires equal classes, decided exactly on their integer
    multiplicities; ``max_character_difference``, the largest difference of
    their character values, is diagnostic.  ``grading_conjugation_residual`` is
    that of the grading symmetry ``phi (B - S) phi = -(B + S)``, which holds
    entry for entry by construction in even degree (see
    :func:`~hpsig.complexes._diagonalise_halves`), so it is 0.0.
    """

    results: tuple[SignatureResult, ...]
    max_character_difference: float
    grading_conjugation_residual: float
    passed: bool

    @property
    def k0(self) -> K0Class:
        return self.results[0].k0


def check_coincidence(hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL) -> CoincidenceReport:
    """Run all three constructions and compare the resulting classes.

    ``B + S`` and ``B - S`` are diagonalised once, together, and shared by
    all three constructions, read as ``B + S_h`` and ``B - S_h`` bit for bit
    (``B`` and ``S`` share no entry); the chain-map and action gates follow
    the nondegeneracy gates.  ``B - S`` is the mirror of ``B + S``, so the
    cone and the compression are nondegenerate with them.  The grading
    symmetry ``phi (B - S) phi = -(B + S)`` with ``phi = (-1)^degree``, the
    algebraic reason the classes agree, holds entry for entry.
    """
    _require_even(hp.n)
    b, s, plus_op, minus_op = _operators(hp, tol)
    plus, minus, gates = _gated_halves(hp, b, s, plus_op, minus_op, tol)
    _nondegenerate(plus, "B + S")
    _nondegenerate(minus, "B - S")
    _require_duality_chain_map(hp, tol)
    _require_equivariant(gates)
    return _coincidence(hp.n, _group(hp), (plus, minus), tol)


def _coincidence(n: int, group: FiniteGroup | None, halves: _Halves, tol: float) -> CoincidenceReport:
    """:func:`check_coincidence` of a complex of top degree ``n`` with classes
    over ``group`` (None for the trivial group) from ``halves``, ``B + S``
    and ``B - S`` diagonalised for those classes.

    ``halves`` come from :func:`check_coincidence` or from the duality check
    of the complex at the same ``tol``
    (:func:`~hpsig.complexes._verify_duality`,
    :func:`~hpsig.simplicial._duality_from_cap`).  The check returns halves
    only for a duality that passed the self-adjointness, chain-map and action
    gates, or whose identities hold exactly, which are therefore not run
    again.
    """
    _require_even(n)
    plus, minus = halves
    _nondegenerate(plus, "B + S")
    _nondegenerate(minus, "B - S")
    group = group or FiniteGroup.trivial()
    # Mishchenko's compression is B + S_h, so its class is the reduced one
    results = (
        _higson_roe(group, plus, minus),
        _mishchenko(group, plus, _cone(plus, minus, tol)),
        _reduced(group, plus),
    )
    pairs = list(itertools.combinations(results, 2))
    max_diff = max(
        [0.0, *(abs(x - y) for p, q in pairs for x, y in zip(p.k0.values, q.k0.values))]
    )
    return CoincidenceReport(
        results=results,
        max_character_difference=max_diff,
        grading_conjugation_residual=0.0,
        passed=all(p.k0.multiplicities == q.k0.multiplicities for p, q in pairs),
    )
