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

The cone operator ``C = D + D^*`` acts on two copies of the total space, one
in the source summands of the cone and one in the target summands.  In the
orthonormal basis of the doubling isometry ``v: x -> (x, x)/sqrt(2)`` and its
complement ``w: x -> (-x, x)/sqrt(2)`` (the minus sign on the source copy) it
is ``[[B + S_h, X^*], [X, B - S_h]]`` with ``B = b + b^*``, the Hermitian part
``S_h = (S + S^*)/2`` and ``X = (S - S^*)/2``.  Every input reads its cone
off ``B + S_h`` and ``B - S_h``, and the cone is never built.  Within the
self-adjointness gate, which runs on the given ``S``, the segment
``S_t = S_h + (1 - t) X`` (``0 <= t <= 1``) is a path of dualities, and
homotopic dualities have the same class while the cone stays invertible
(Higson-Roe, *Mapping surgery to analysis I*).  The cone operator of ``S_t``
moves by ``t |X|``, so the reported cone value, that of ``S_h``, is within
``|S - S^*| / 2`` of ``S``'s (Weyl).  ``S_h`` is exactly self-adjoint, and is
``S`` bit for bit when ``S`` is, as on every triangulation
(:func:`~hpsig.linalg._hermitian_part`).  For even ``n`` one eigensolve serves
both halves (:func:`_diagonalise_halves`).

The signature constructions need the spectra that the duality check forms.
:func:`_verify_duality` hands back the diagonalised halves, which the
boundary class reads again
(:func:`~hpsig.bordism.boundary_signature_is_zero`).  A triangulation takes
no gate here: its structural identities are integer theorems, decided
exactly on its integer arrays, and one that fails is refused.  Its ``B + S``
is that of the chain equivalent Morse complex (:mod:`hpsig.reduce`), with
the action restricted to the critical simplices when one is given, and is
diagonalised as any other (:func:`_diagonalise`).  The gates form their
products from the degree blocks: ``b b`` from ``b_k b_{k+1}`` and the
anticommutator from ``b_k S_k + S_{k-1} b^*_{n-k+1}``, which are also the
two sides of the cone's chain-map condition, laid out by
:func:`~hpsig.linalg.assemble_total`; the cone's chain-map gate reads those
sides.

If a finite group acts, the action must be by degreewise unitaries commuting
with both ``b`` and ``S``, which one gate decides (:func:`_action_gates`) by
multiplying the action's dense degree blocks, a triangulation's too on the
dense reference route (:func:`~hpsig.simplicial.to_hp_complex`).
An action that passes it leaves ``B + S`` block diagonal in its isotypic bases
up to an off-block part of the gate's order, and the classes over the group
are read off the blocks' eigenvalue counts (:func:`_diagonalise`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EquivarianceViolated,
    GroupMismatch,
    NotChainMap,
    NotSelfAdjoint,
    NotUnitary,
    ShapeMismatch,
)
from .groups import GroupAction
from .linalg import (
    DEFAULT_TOL,
    _BOUND_MARGIN,
    BlockSpectrum,
    _block_frobenius_norm,
    _block_spectrum,
    _column_norm_bound,
    _shared_bounds,
    Spectrum,
    adjoint,
    as_matrix,
    assemble_total,
    block_diag,
    classify_eigenvalues,
    mirrored,
    residual_within,
    within,
)

__all__ = [
    "ChainComplex",
    "ComplexReport",
    "DoubledCone",
    "DualityOperator",
    "DualityReport",
    "HilbertPoincareComplex",
    "direct_sum",
    "doubled_duality_cone",
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

    def degree_signs(self) -> np.ndarray:
        """The grading ``phi = (-1)^k`` on ``E_k`` as the diagonal of the
        total space, one sign per coordinate."""
        return np.concatenate(
            [np.full(d, (-1.0) ** k) for k, d in enumerate(self.dims)]
        )

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
    ranks = [_rank(chain.boundary(k), tol) for k in range(chain.n + 2)]
    return tuple(d - ranks[k] - ranks[k + 1] for k, d in enumerate(chain.dims))


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


def _chain_map_sides(
    mats: Sequence[np.ndarray], source: ChainComplex, target: ChainComplex
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Both sides ``(b'_k A_k, A_{k-1} b_k)`` of the chain-map condition of
    the degreewise ``mats`` from ``source`` (boundary ``b``) to ``target``
    (boundary ``b'``), for ``k = 1..n``."""
    return [
        (target.boundary(k) @ mats[k], mats[k - 1] @ source.boundary(k))
        for k in range(1, source.n + 1)
    ]


def _require_chain_map(
    sides: Sequence[tuple[np.ndarray, np.ndarray]], tol: float
) -> None:
    """Raise NotChainMap unless both sides of the chain-map condition (from
    :func:`_chain_map_sides`) agree within tolerance in every degree."""
    for k, (lhs, rhs) in enumerate(sides, start=1):
        ok, res = residual_within(
            lhs - rhs, tol, lambda norm: max(norm(lhs), norm(rhs))
        )
        if not ok:
            raise NotChainMap(
                f"blocks do not commute with the boundaries at degree {k}: "
                f"residual {res:.3e}"
            )


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
    _require_chain_map(_chain_map_sides(mats, source, target), tol)
    bnds = []
    for j in range(1, n + 2):
        src, tgt = -source.boundary(j - 1), target.boundary(j)
        bnds.append(
            assemble_total(
                (src.shape[0], tgt.shape[0]),
                (src.shape[1], tgt.shape[1]),
                [(0, 0, src), (1, 0, mats[j - 1]), (1, 1, tgt)],
            )
        )
    dims = (target.dims[0], *(b.shape[1] for b in bnds))
    return ChainComplex(dims, tuple(bnds))


def duality_cone(hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL) -> ChainComplex:
    """Mapping cone of the duality viewed as a chain map ``(E, -b^*) -> (E, b)``."""
    source = _negated(dual_complex(hp.chain))
    return mapping_cone(hp.duality.blocks, source, hp.chain, tol=tol)


def _duality_sides(
    chain: ChainComplex, blocks: Sequence[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The chain-map sides of a duality family as a map ``(E, -b^*) -> (E, b)``:
    ``(b_k S_k, -S_{k-1} b^*_{n-k+1})`` for ``k = 1..n``, both maps
    ``E_{n-k} -> E_{k-1}``.  Their difference is the block of the
    anticommutator ``b S + S b^*`` in that position (:func:`_anticommutator`),
    and ``S`` has no other."""
    return _chain_map_sides(blocks, _negated(dual_complex(chain)), chain)


def _anticommutator(
    chain: ChainComplex, sides: Sequence[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """``b S + S b^*`` on the total space, laid out from its degree blocks."""
    n = chain.n
    entries = [(k - 1, n - k, lhs - rhs) for k, (lhs, rhs) in enumerate(sides, start=1)]
    return assemble_total(chain.dims, chain.dims, entries)


def _boundary_square(chain: ChainComplex) -> np.ndarray:
    """``b b`` on the total space, laid out from the products ``b_k b_{k+1}``."""
    entries = [
        (k - 1, k + 1, chain.boundary(k) @ chain.boundary(k + 1)) for k in range(1, chain.n)
    ]
    return assemble_total(chain.dims, chain.dims, entries)


def _require_duality_chain_map(hp: HilbertPoincareComplex, tol: float) -> None:
    """Raise NotChainMap exactly as :func:`duality_cone` does, without
    assembling the cone."""
    _require_chain_map(_duality_sides(hp.chain, hp.duality.blocks), tol)


def _diagonalise(
    ops: Sequence[np.ndarray], tol: float, action: GroupAction | None
) -> list[BlockSpectrum]:
    """Operators self-adjoint entry for entry, as :func:`_hermitian_halves`
    and :func:`~hpsig.reduce.reduced_halves` give them (not checked again),
    diagonalised for the signature classes over the group of ``action``,
    which must have passed the action gate on them: one block, the trivial
    group's only character, without an action, and one small ``eigvalsh``
    per irreducible character with one, compressed by dense products with
    its ``isotypic_bases`` (:func:`~hpsig.linalg.block_spectrum`)."""
    if action is None:
        return [_one_block(classify_eigenvalues(np.linalg.eigvalsh(h), tol)) for h in ops]
    return [_block_spectrum(h, action.isotypic_bases, tol) for h in ops]


def _one_block(spec: Spectrum) -> BlockSpectrum:
    """``spec`` as the block spectrum of the whole space."""
    return BlockSpectrum(**vars(spec), block_ranks=((spec.rank_plus, spec.rank_minus),))


def _diagonalise_halves(
    plus_op: np.ndarray,
    minus_op: np.ndarray | None,
    n: int,
    tol: float,
    action: GroupAction | None,
) -> tuple[BlockSpectrum, BlockSpectrum]:
    """``B + S`` and ``B - S`` of a duality of top degree ``n`` diagonalised by
    :func:`_diagonalise`, with one eigensolve when ``n`` is even.

    For even ``n`` the grading ``phi = (-1)^degree`` conjugates ``B - S``
    into ``-(B + S)`` entry for entry: ``b`` lives in the blocks between
    degrees of opposite parity and ``S`` in those between degrees of equal
    parity, so no entry of ``B + S`` is a sum of two nonzero numbers.  Then
    ``B - S`` is read off ``B + S`` as its mirror
    (:func:`~hpsig.linalg.mirrored`), and ``minus_op`` may be None; every
    isotypic basis vector lies in one degree, so ``phi`` leaves the blocks
    invariant.
    """
    if n % 2 == 0:
        (plus,) = _diagonalise((plus_op,), tol, action)
        return plus, mirrored(plus)
    plus, minus = _diagonalise((plus_op, minus_op), tol, action)
    return plus, minus


def _halves_invertibility(plus: Spectrum, minus: Spectrum, tol: float) -> tuple[bool, float]:
    """(flag, smallest |eigenvalue|) of ``(B + S) (+) (B - S)``, as
    :func:`~hpsig.linalg.is_invertible` reads them."""
    least = min(float(np.abs(h.eigenvalues).min(initial=np.inf)) for h in (plus, minus))
    return least > tol, least


def _hermitian_halves(
    b: np.ndarray, s: np.ndarray, skew: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``B + S_h`` and ``B - S_h`` for the total boundary ``b`` and the total
    duality ``s`` with skew residual ``skew = s - s^*``."""
    big_b = b + adjoint(b)
    s_h = s if not skew.any() else (s + adjoint(s)) / 2.0
    return big_b + s_h, big_b - s_h


@dataclass(frozen=True)
class DoubledCone:
    """The duality cone, its self-adjoint operator and the operator's
    compressions by the doubling isometries.

    ``operator`` is ``C = D + D^*``; ``plus = v^* C v = B + S_h`` and
    ``minus = w^* C w = B - S_h`` act on the total space of the complex (see
    :mod:`hpsig.complexes`).  ``decoupled`` is true when ``S`` is self-adjoint
    entry for entry, so that the cross block ``w^* C v`` is exactly zero.
    """

    cone: ChainComplex
    operator: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    decoupled: bool

    def invertibility(self, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
        """(flag, smallest |eigenvalue|) of the cone operator of ``S_h``, read
        off the two halves."""
        halves = _diagonalise_halves(self.plus, self.minus, self.cone.n - 1, tol, None)
        return _halves_invertibility(*halves, tol)


def doubled_duality_cone(
    hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL
) -> DoubledCone:
    """Duality cone with ``C = D + D^*`` and its compressions ``v^* C v`` and
    ``w^* C w``, formed as ``B + S_h`` and ``B - S_h``.

    Raises NotChainMap as :func:`duality_cone` does.
    """
    cone = duality_cone(hp, tol=tol)
    d = cone.total_boundary()
    s = hp.total_duality()
    skew = s - adjoint(s)
    plus, minus = _hermitian_halves(hp.total_boundary(), s, skew)
    return DoubledCone(
        cone=cone,
        operator=d + adjoint(d),
        plus=plus,
        minus=minus,
        decoupled=not skew.any(),
    )


@dataclass(frozen=True)
class DualityReport:
    """Residuals of the duality axioms; ``passed`` applies the tolerance rule.

    ``cone_min_singular_value`` is the smallest |eigenvalue| of ``B + S_h``
    and ``B - S_h``, the smallest singular value of the cone operator of the
    Hermitian part ``S_h`` of ``S`` (see :mod:`hpsig.complexes`).
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


# The failure message of each gate of the duality check, by the report field
# that holds the gated value; the CLI reads each gate's verdict from these.
_DUALITY_FAILURES = {
    "boundary_residual": "boundary squares to a nonzero operator",
    "selfadjoint_residual": "duality is not self-adjoint",
    "chain_residual": "duality does not anticommute with the boundary",
    "cone_min_singular_value": "duality cone operator is not invertible",
    "action_residual": "action does not commute with the structure maps",
}


def verify_duality(hp: HilbertPoincareComplex, tol: float = DEFAULT_TOL) -> DualityReport:
    """Check all duality axioms and report residuals without raising."""
    return _verify_duality(hp, tol)[0]


# B + S_h and B - S_h of a duality, diagonalised (see _diagonalise).
_Halves = tuple[BlockSpectrum, BlockSpectrum]


# The duality check's action gate, aggregated over the elements: (passed,
# largest residual) of the commutators with b, and the same with S.
_ActionGates = tuple[tuple[bool, float], tuple[bool, float]]


def _commutator_blocks(
    rho: GroupAction, g: int, blocks: Sequence[tuple[int, int, np.ndarray]]
) -> list[np.ndarray]:
    """The nonzero degree blocks of ``rho(g) x - x rho(g)`` for the operator
    ``x`` on the total space whose nonzero blocks are ``(row degree, column
    degree, block)``: ``rho(g)`` preserves degree, so each block of ``x``
    gives one block of the commutator."""
    return [rho.degree(g, r) @ x - x @ rho.degree(g, c) for r, c, x in blocks]


def _action_gates(
    hp: HilbertPoincareComplex,
    b: np.ndarray,
    s: np.ndarray,
    tol: float,
    shared: Callable[[Callable], Callable] | None = None,
) -> _ActionGates:
    """The action gate of ``hp``'s action against its total boundary ``b``
    and total duality ``s``: every element's commutator with each within
    ``tol`` at the scale ``max(|b|, |S|)``, by the rule of
    :func:`~hpsig.linalg.residual_within` (with the caller's ``shared``
    column-norm bounds).  Each commutator's Frobenius bound is summed over its
    degree blocks; it is laid out on the total space only when that bound
    fails.  Without an action both gates pass with residual 0.
    """
    rho = hp.action
    if rho is None:
        return (True, 0.0), (True, 0.0)
    scale = (shared or _shared_bounds())(lambda norm: max(norm(b), norm(s)))
    lower = scale(_column_norm_bound)

    def gate(blocks, total: np.ndarray) -> tuple[bool, float]:
        verdicts = []
        for g in range(rho.group.order):
            bound = _block_frobenius_norm(_commutator_blocks(rho, g, blocks))
            if within(bound, tol * _BOUND_MARGIN, lower):
                verdicts.append((True, bound))
            else:
                m = rho.total(g)
                verdicts.append(residual_within(m @ total - total @ m, tol, scale))
        return all(ok for ok, _ in verdicts), max(res for _, res in verdicts)

    # empty blocks (edge degrees, empty summands) are common and commute
    return (
        gate([(k - 1, k, x) for k, x in enumerate(hp.chain.boundaries, start=1) if x.size], b),
        gate([(k, hp.n - k, x) for k, x in enumerate(hp.duality.blocks) if x.size], s),
    )


def _require_equivariant(gates: _ActionGates) -> None:
    """Raise EquivarianceViolated unless the action gate passed."""
    if not all(ok for ok, _ in gates):
        raise EquivarianceViolated(
            f"{_DUALITY_FAILURES['action_residual']}: residual "
            f"{max(res for _, res in gates):.3e}"
        )


def _verify_duality(
    hp: HilbertPoincareComplex, tol: float
) -> tuple[DualityReport, _Halves | None]:
    """:func:`verify_duality`, also returning ``B + S_h`` and ``B - S_h``
    diagonalised.

    Every gate runs on the given ``S``, its total and ``b``'s (one
    column-norm bound of each), and ``hp``'s action.  Once ``S`` passes the
    cone's chain-map gate, the cone is read off ``B + S_h`` and ``B - S_h``
    on the total space, diagonalised over the trivial group; they are
    returned if the self-adjointness gate passed.  A
    triangulation does not come here: its identities are decided exactly on
    its integer arrays (:func:`~hpsig.simplicial._duality_from_cap`).
    """
    b = hp.total_boundary()
    s = hp.total_duality()
    sa = s - adjoint(s)
    shared = _shared_bounds()
    # the cone's chain-map gate below reads the same degree blocks
    sides = _duality_sides(hp.chain, hp.duality.blocks)
    gated = {  # (holds, residual) by the report field
        "boundary_residual": residual_within(
            _boundary_square(hp.chain), tol, shared(lambda norm: norm(b) ** 2)
        ),
        "selfadjoint_residual": residual_within(sa, tol, shared(lambda norm: norm(s))),
        "chain_residual": residual_within(
            _anticommutator(hp.chain, sides), tol, shared(lambda norm: norm(b) * norm(s))
        ),
    }
    if hp.action is not None:
        gates = _action_gates(hp, b, s, tol, shared)
        gated["action_residual"] = (all(ok for ok, _ in gates), max(r for _, r in gates))

    halves = None
    try:
        _require_chain_map(sides, tol)
        halves = _diagonalise_halves(*_hermitian_halves(b, s, sa), hp.n, tol, None)
        gated["cone_min_singular_value"] = _halves_invertibility(*halves, tol)
    except NotChainMap:
        gated["cone_min_singular_value"] = (False, 0.0)
    holds = {field: gated.get(field, (True, 0.0)) for field in _DUALITY_FAILURES}
    failures = tuple(m for field, m in _DUALITY_FAILURES.items() if not holds[field][0])
    report = DualityReport(
        tol=tol,
        **{field: residual for field, (_, residual) in holds.items()},
        cone_invertible=holds["cone_min_singular_value"][0],
        passed=not failures,
        failures=failures,
    )
    return report, halves if holds["selfadjoint_residual"][0] else None


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
        block_diag(a.chain.boundary(k), b.chain.boundary(k)) for k in range(1, n + 1)
    )
    sblocks = tuple(
        block_diag(a.duality.block(k), b.duality.block(k)) for k in range(n + 1)
    )
    action = None
    if a.action is not None and b.action is not None:
        action = a.action.direct_sum(b.action)
    return HilbertPoincareComplex(ChainComplex(dims, bnds), DualityOperator(sblocks), action)


def opposite(hp: HilbertPoincareComplex) -> HilbertPoincareComplex:
    """Same complex with the duality negated; the signature changes sign."""
    dual = DualityOperator(tuple(-b for b in hp.duality.blocks))
    return HilbertPoincareComplex(hp.chain, dual, hp.action)

