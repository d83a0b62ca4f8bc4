"""Finite groups, unitary chain actions, and K-theory classes of C[G].

K_0 of a complex group algebra is the free abelian group on the irreducible
characters, so a formal difference of equivariant projections is represented
faithfully by its character ``g -> tr(rho(g) p_plus) - tr(rho(g) p_minus)``,
stored per conjugacy class.  Character comparisons use a fixed tolerance
(CHAR_TOL), independent of the numerical tolerance of the linear algebra,
because character values of finite groups are algebraic integers separated by
gaps far larger than roundoff at the sizes this package handles.

A group acting on a triangulation moves simplices to simplices, so every
element acts on the chains by a signed permutation matrix.  The simplicial
layer reads those off the vertex maps and hands them over as two arrays on
the total space, the image of each simplex under each element and the sign
+-1 it carries (:meth:`GroupAction._from_images`), the one source of such
actions.  They must compose exactly like the group, or they are refused,
whatever the tolerance, and the simplicial layer decides the action's
commutators on those arrays.  The dense blocks are laid out only when they
are read, and every operation of an action multiplies them.  An action given
by dense blocks (``.hpx`` files, generated and twisted complexes) has only
those, whatever its entries, and its identities are checked within the
tolerance.

Irreducible characters and isotypic blocks.  :attr:`FiniteGroup.characters`
computes the character table once, by Burnside-Dixon (common eigenvectors of
the class-sum structure constants), and checks it.  Every action has
:attr:`GroupAction.isotypic_bases`: an orthonormal basis of the image of each
isotypic projection ``P_chi = (dim chi / |G|) sum_g conj(chi(g)) rho(g)``,
built degree by degree from the dense blocks.  A triangulation's action
reaches it only on the critical simplices of its Morse complex
(:mod:`hpsig.reduce`), a few of them, so no basis is as wide as the
triangulation.  An operator that
commutes with the action is block diagonal in those bases, so the image of
each of its spectral projections in the block of ``chi`` is a sum of copies
of ``chi`` and its class is ``sum_chi m_chi chi`` with integer multiplicities
``m_chi``: the count of eigenvalues of the sign in the block, divided by
``dim chi`` (:func:`k0_from_multiplicities`).  Every class the signature
constructions return is read that way (see
:func:`~hpsig.complexes._diagonalise`), once the action has passed the
duality check's action gate.  :func:`k0_from_projections` reads the class of
given spectral projections; the tests use it as the reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    GroupMismatch,
    InvalidGroup,
    NonEquivariantProjection,
    NotRepresentation,
    NotUnitary,
    PreconditionViolated,
    ShapeMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    as_matrix,
    block_diag,
    residual_within,
)

CHAR_TOL = 1e-6

# FiniteGroup.characters by multiplication table
_CHARACTER_TABLES: dict[tuple[tuple[int, ...], ...], np.ndarray] = {}

__all__ = [
    "CHAR_TOL",
    "FiniteGroup",
    "GroupAction",
    "K0Class",
    "k0_add",
    "k0_equal",
    "k0_from_multiplicities",
    "k0_from_projections",
    "k0_negate",
    "k0_zero",
]


@dataclass(eq=False)
class FiniteGroup:
    """A finite group given by element names and a multiplication table.

    ``table[g][h]`` is the index of the product ``g * h``.  Construction
    verifies the full group axioms (Latin square, identity, inverses,
    associativity), which is cubic in the order and intended for the small
    groups that act on triangulations.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        names = tuple(str(e) for e in self.elements)
        if len(set(names)) != len(names) or not names:
            raise InvalidGroup("element names must be nonempty and distinct")
        n = len(names)
        table = tuple(tuple(int(x) for x in row) for row in self.table)
        if len(table) != n or any(len(row) != n for row in table):
            raise InvalidGroup(f"multiplication table must be {n} x {n}")
        if any(not 0 <= x < n for row in table for x in row):
            raise InvalidGroup("table entries must be element indices")
        for i in range(n):
            if len(set(table[i])) != n:
                raise InvalidGroup(f"row {i} of the table is not a permutation")
            if len({table[j][i] for j in range(n)}) != n:
                raise InvalidGroup(f"column {i} of the table is not a permutation")
        identity = None
        for e in range(n):
            if all(table[e][h] == h and table[h][e] == h for h in range(n)):
                identity = e
                break
        if identity is None:
            raise InvalidGroup("no two-sided identity element")
        for g, h, k in itertools.product(range(n), repeat=3):
            if table[table[g][h]][k] != table[g][table[h][k]]:
                raise InvalidGroup(
                    f"associativity fails on elements ({g}, {h}, {k})"
                )
        inverses = []
        for g in range(n):
            inv = next((h for h in range(n) if table[g][h] == identity), None)
            if inv is None or table[inv][g] != identity:
                raise InvalidGroup(f"element {g} has no two-sided inverse")
            inverses.append(inv)
        self.elements = names
        self.table = table
        self._identity = identity
        self._inverses = tuple(inverses)
        self._classes = self._conjugacy_classes()

    def _conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        n = self.order
        seen = [False] * n
        classes = []
        for g in range(n):
            if seen[g]:
                continue
            orbit = {self.table[self.table[h][g]][self._inverses[h]] for h in range(n)}
            for x in orbit:
                seen[x] = True
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda c: c[0])
        return tuple(classes)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return self._identity

    def inverse(self, g: int) -> int:
        return self._inverses[g]

    def multiply(self, g: int, h: int) -> int:
        return self.table[g][h]

    @property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        return self._classes

    @cached_property
    def class_index(self) -> np.ndarray:
        """The index in :attr:`conjugacy_classes` of each element's class."""
        index = np.empty(self.order, dtype=np.intp)
        for i, cls in enumerate(self._classes):
            index[list(cls)] = i
        return index

    @cached_property
    def characters(self) -> np.ndarray:
        """The irreducible characters: row ``i`` holds the values of the
        ``i``-th character on :attr:`conjugacy_classes`, in that order.

        Burnside-Dixon (Dixon, Numer. Math. 10, 1967): the class sums span the
        centre of C[G] and multiply as ``C_j C_k = sum_l a_jkl C_l``, where
        ``a_jkl`` counts the ``x`` in ``C_j`` with ``x^-1 z_l`` in ``C_k`` for
        a fixed ``z_l`` in ``C_l``.  The central character of each irreducible
        ``chi``, ``omega(C_l) = |C_l| chi(z_l) / chi(1)``, is a common
        eigenvector of the matrices ``(a_jkl)_kl``; these are found with one
        ``eig`` of their combination with the weights ``log p_j`` of distinct
        primes, whose eigenvalues must be distinct.  They are in exact
        arithmetic: the ``log p_j`` are linearly independent over the
        algebraic numbers (Baker), and distinct characters have distinct
        central characters.  The degree follows from ``sum_l |C_l| |chi(z_l)|^2 =
        |G|``.  Raises InvalidGroup unless the eigenvalues are distinct, the
        degrees are integers and the table is orthonormal, each within
        CHAR_TOL.  The values at elements whose order divides 4 and at
        rational elements are then rounded to the Gaussian integers and
        integers they are (:meth:`_exact_values`), so those entries are
        exact; a character whose values all have imaginary part within
        CHAR_TOL is stored real.  The rows are ordered by degree, the trivial
        character first.  They are computed once per multiplication table.
        """
        chars = _CHARACTER_TABLES.get(self.table)
        if chars is None:
            chars = _CHARACTER_TABLES[self.table] = self._burnside_dixon()
        return chars

    def _burnside_dixon(self) -> np.ndarray:
        classes = self._classes
        r, order = len(classes), self.order
        sizes = np.array([len(c) for c in classes], dtype=float)
        reps = [c[0] for c in classes]
        table = np.asarray(self.table)
        index = self.class_index
        a = np.zeros((r, r, r))
        # x in class j, x^-1 z_l in class k: one count per element and class l
        np.add.at(a, (index[:, None], index[table[list(self._inverses)][:, reps]], np.arange(r)), 1.0)
        mix = np.tensordot(np.log(_primes(r)), a, axes=1)
        lam, vecs = np.linalg.eig(mix)
        gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(r, np.inf))
        if r > 1 and gaps.min() <= CHAR_TOL * max(1.0, float(np.abs(lam).max())):
            raise InvalidGroup("class algebra eigenvalues are not distinct")
        omega = vecs / vecs[index[self._identity]]
        degrees = np.sqrt(order / (np.abs(omega) ** 2 / sizes[:, None]).sum(axis=0))
        if np.abs(degrees - np.rint(degrees)).max() > CHAR_TOL:
            raise InvalidGroup("character degrees are not integers")
        chars = (np.rint(degrees)[:, None] * omega.T / sizes).astype(complex)
        gram = (chars * sizes) @ chars.conj().T / order
        if np.abs(gram - np.eye(r)).max() > CHAR_TOL:
            raise InvalidGroup("character table is not orthonormal")
        for column, z in zip(chars.T, reps):
            column[:] = self._exact_values(z, column, index)
        real = np.abs(chars.imag).max(axis=1) <= CHAR_TOL
        chars[real] = chars[real].real
        if real.all():
            chars = chars.real
        # by degree, then by the values, largest real and imaginary parts first
        rounded = np.round(chars, 6)
        keys = [k for column in rounded.T for k in (-column.real, -column.imag)]
        chars = chars[np.lexsort([*reversed(keys), np.rint(degrees)])]
        chars.setflags(write=False)
        return chars

    def _exact_values(self, z: int, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The character values at ``z`` rounded to the ring they lie in,
        where that ring is a lattice: ``Z[i]`` when the order ``o`` of ``z``
        divides 4, since they are sums of ``o``-th roots of unity, and ``Z``
        when ``z`` is rational, i.e. conjugate to every ``z^k`` with ``k``
        prime to ``o``, since they are then fixed by the Galois group of
        ``Q(zeta_o)``.  Other values are returned as they are."""
        powers = [z]
        while powers[-1] != self._identity:
            powers.append(self.table[powers[-1]][z])
        o = len(powers)
        if 4 % o == 0:
            return np.round(values.real) + 1j * np.round(values.imag)
        if all(index[powers[k - 1]] == index[z] for k in range(1, o) if math.gcd(k, o) == 1):
            return np.round(values.real) + 0j
        return values

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set: each element, in index order, that the elements
        taken before it do not generate.  Each one at least doubles the
        subgroup generated so far, so there are at most ``log2 |G|``."""
        found: list[int] = []
        span = {self._identity}
        for g in range(self.order):
            if g in span:
                continue
            found.append(g)
            frontier = list(span)
            while frontier:  # close under right multiplication by the set
                new = {self.table[x][s] for x in frontier for s in found} - span
                span |= new
                frontier = list(new)
        return tuple(found)

    @property
    def character_degrees(self) -> tuple[int, ...]:
        """The degree ``chi(1)`` of each row of :attr:`characters`."""
        column = self.characters[:, self.class_index[self._identity]]
        return tuple(int(round(d.real)) for d in column)

    def same_group(self, other: "FiniteGroup") -> bool:
        return self.elements == other.elements and self.table == other.table

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(("e",), ((0,),))

    @classmethod
    def cyclic(cls, m: int) -> "FiniteGroup":
        if m < 1:
            raise InvalidGroup("cyclic group order must be positive")
        names = tuple("e" if k == 0 else ("g" if k == 1 else f"g^{k}") for k in range(m))
        table = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
        return cls(names, table)

    @classmethod
    def direct_product(cls, a: "FiniteGroup", b: "FiniteGroup") -> "FiniteGroup":
        names = tuple(
            f"({x},{y})" for x in a.elements for y in b.elements
        )
        nb = b.order
        table = tuple(
            tuple(
                a.table[i // nb][j // nb] * nb + b.table[i % nb][j % nb]
                for j in range(a.order * nb)
            )
            for i in range(a.order * nb)
        )
        return cls(names, table)


def _primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    found: list[int] = []
    p = 2
    while len(found) < count:
        if all(p % q for q in found if q * q <= p):
            found.append(p)
        p += 1
    return found


class GroupAction:
    """Unitary representation on a graded space, one block per (element, degree).

    ``blocks[g][k]`` acts on degree ``k``.  Construction checks unitarity, the
    identity, and the homomorphism property degreewise, each within ``tol``.

    An action by signed permutations of the simplices (:meth:`_from_images`,
    see the module docstring) keeps two ``(|G|, N)`` arrays on the total space
    instead, ``_images``: where each element sends each coordinate and with
    which sign.  Its dense blocks are laid out only when ``blocks``,
    :meth:`degree` or :meth:`total` is read.
    """

    def __init__(
        self,
        group: FiniteGroup,
        blocks: Sequence[Sequence[np.ndarray]],
        tol: float = DEFAULT_TOL,
    ) -> None:
        self.group = group
        self.tol = tol
        if len(blocks) != group.order:
            raise ShapeMismatch(
                f"need one block family per group element "
                f"({group.order}), got {len(blocks)}"
            )
        fams = []
        dims = None
        for g, fam in enumerate(blocks):
            mats = tuple(as_matrix(m) for m in fam)
            if any(m.shape[0] != m.shape[1] for m in mats):
                raise ShapeMismatch(f"action blocks of element {g} are not square")
            d = tuple(m.shape[0] for m in mats)
            if dims is None:
                dims = d
            elif d != dims:
                raise ShapeMismatch(
                    f"element {g} acts on dimensions {d}, expected {dims}"
                )
            fams.append(mats)
        self._blocks = tuple(fams)
        self._dims = dims if dims is not None else ()
        self._images = None
        self._check_dense()

    @classmethod
    def _from_images(
        cls,
        group: FiniteGroup,
        dims: Sequence[int],
        dst: np.ndarray,
        sign: np.ndarray,
        tol: float = DEFAULT_TOL,
    ) -> "GroupAction":
        """The action on degrees of widths ``dims`` in which element ``g``
        sends coordinate ``j`` of the total space to ``dst[g, j]``, in the same
        degree, with the float sign ``sign[g, j]``.  Nothing is checked here:
        the caller knows that the arrays compose exactly like the group, or
        refuses them with :meth:`_check_images`.  The dense blocks are laid out
        on first read."""
        self = cls.__new__(cls)
        self.group, self.tol, self._dims = group, tol, tuple(int(d) for d in dims)
        self._blocks, self._images = None, (dst, sign)
        return self

    @property
    def blocks(self) -> tuple[tuple[np.ndarray, ...], ...]:
        if self._blocks is None:
            self._blocks = tuple(
                tuple(self._block(g, k) for k in range(len(self._dims)))
                for g in range(self.group.order)
            )
        return self._blocks

    def _block(self, g: int, k: int) -> np.ndarray:
        """The dense block of element ``g`` at degree ``k``; of an action
        built from its image arrays, laid out alone until :attr:`blocks` is
        read."""
        if self._blocks is not None:
            return self._blocks[g][k]
        dst, sign = self._images
        a = sum(self._dims[:k])
        b = a + self._dims[k]
        # column j of the block holds sign[j] in row dst[j]
        return np.where(dst[g, a:b] == np.arange(a, b)[:, None], sign[g, a:b], 0.0)

    def _require_identity(self, k: int, tol: float) -> None:
        m = self._block(self.group.identity, k)
        if not residual_within(m - np.eye(m.shape[0]), tol)[0]:
            raise NotRepresentation(f"identity element is not the identity at degree {k}")

    def _require_homomorphism(self, g: int, h: int, k: int, tol: float) -> None:
        gh = self.group.multiply(g, h)
        ok, res = residual_within(self._block(g, k) @ self._block(h, k) - self._block(gh, k), tol)
        if not ok:
            raise NotRepresentation(
                f"homomorphism fails for elements ({g}, {h}) "
                f"at degree {k}: residual {res:.3e}"
            )

    def _check_dense(self) -> None:
        for k in range(len(self._dims)):
            self._require_identity(k, self.tol)
        for g, fam in enumerate(self.blocks):
            for k, m in enumerate(fam):
                ok, res = residual_within(m @ adjoint(m) - np.eye(m.shape[0]), self.tol)
                if not ok:
                    raise NotUnitary(
                        f"element {g} is not unitary at degree {k}: residual {res:.3e}"
                    )
        for g in range(self.group.order):
            for h in range(self.group.order):
                for k in range(len(self._dims)):
                    self._require_homomorphism(g, h, k, self.tol)

    def _check_images(self) -> None:
        """The dense checks, in the same order and with the same messages,
        decided exactly on the image arrays: a signed permutation is exactly
        unitary, the identity must fix every coordinate with sign +1, and
        ``g h`` must have ``dst_gh == dst_g[dst_h]`` and ``sign_gh == sign_h *
        sign_g[dst_h]``.  The first identity that fails raises
        NotRepresentation with its exact residual, at every ``tol``, read off
        the degree blocks of the elements it names alone."""
        dst, sign = self._images
        offsets = [0, *itertools.accumulate(self._dims)]
        e = self.group.identity
        fixed = (dst[e] == np.arange(dst.shape[1])) & (sign[e] == 1.0)
        for k, (a, b) in enumerate(zip(offsets, offsets[1:])):
            if not fixed[a:b].all():
                self._require_identity(k, 0.0)
        table = np.asarray(self.group.table)
        for g in range(self.group.order):
            # row h compares g h with the composition of g and h
            bad = (dst[g, dst] != dst[table[g]]) | (sign * sign[g, dst] != sign[table[g]])
            if bad.any():
                h, j = np.argwhere(bad)[0]  # the first h, at its lowest degree
                k = int(np.searchsorted(offsets, j, side="right")) - 1
                self._require_homomorphism(g, int(h), k, 0.0)

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    def degree(self, g: int, k: int) -> np.ndarray:
        return self.blocks[g][k]

    def total(self, g: int) -> np.ndarray:
        return block_diag(*self.blocks[g])

    @property
    def is_signed_permutation(self) -> bool:
        """Whether the action was built from its image arrays
        (:meth:`_from_images`), so that its identities are decided exactly."""
        return self._images is not None

    @cached_property
    def isotypic_bases(self) -> tuple[np.ndarray, ...]:
        """Orthonormal bases ``Q_chi`` of the images of the isotypic
        projections ``P_chi = (dim chi / |G|) sum_g conj(chi(g)) rho(g)``, one
        per row of ``group.characters``, as ``(N, rank P_chi)`` matrices on the
        total space, degree by degree (:meth:`_degree_bases`).  The rank on
        ``E_k`` is the trace of ``P_chi`` there; one that is not an integer
        within CHAR_TOL raises NotRepresentation.
        """
        return self._degree_bases()

    def _degree_bases(self) -> tuple[np.ndarray, ...]:
        """On ``E_k``, the top eigenvectors of the Hermitian part of
        ``P_chi``: one batched ``eigh`` per degree, over the characters.  A
        part whose imaginary part is exactly zero, as for a real character of
        a real action, is kept real."""
        group = self.group
        chars = group.characters[:, group.class_index]  # per character and element
        coefs = chars.conj() * (np.asarray(group.character_degrees)[:, None] / group.order)
        offsets = [0, *itertools.accumulate(self._dims)]
        parts = [[np.zeros((offsets[-1], 0))] for _ in chars]
        for k, width in enumerate(self._dims):
            if not width:
                continue
            # np.tensordot's product, without its overhead
            stack = np.stack([fam[k] for fam in self.blocks]).reshape(group.order, -1)
            projs = np.dot(coefs, stack).reshape(-1, width, width)
            ranks = _integer_ranks(np.trace(projs, axis1=1, axis2=2))
            vecs = np.linalg.eigh((projs + projs.conj().transpose(0, 2, 1)) / 2.0)[1]
            for part, v, rank in zip(parts, vecs, ranks):
                v = v[:, width - rank:]
                v = v if v.imag.any() else v.real
                column = np.zeros((offsets[-1], rank), dtype=v.dtype)
                column[offsets[k]:offsets[k + 1]] = v
                part.append(column)
        return tuple(np.hstack(part) for part in parts)

    def conjugated(self, unitaries: Sequence[np.ndarray]) -> "GroupAction":
        fams = tuple(
            tuple(
                np.asarray(unitaries[k]) @ m @ adjoint(unitaries[k])
                for k, m in enumerate(fam)
            )
            for fam in self.blocks
        )
        return GroupAction(self.group, fams, tol=self.tol)

    def direct_sum(self, other: "GroupAction") -> "GroupAction":
        if not self.group.same_group(other.group):
            raise GroupMismatch("cannot sum actions of different groups")
        if len(self.dims) != len(other.dims):
            raise ShapeMismatch("actions live on different numbers of degrees")
        fams = tuple(
            tuple(map(block_diag, mine, theirs))
            for mine, theirs in zip(self.blocks, other.blocks)
        )
        return GroupAction(self.group, fams, tol=self.tol)

    @classmethod
    def trivial_action(cls, dims: Sequence[int]) -> "GroupAction":
        group = FiniteGroup.trivial()
        fam = tuple(np.eye(int(d)) for d in dims)
        return cls(group, (fam,))


def _integer_ranks(traces: np.ndarray) -> np.ndarray:
    """The traces of isotypic projections rounded to the integer ranks they
    are; raises NotRepresentation unless each is one within CHAR_TOL."""
    rounded = np.rint(traces.real).astype(int)
    if np.abs(traces - rounded).max(initial=0.0) > CHAR_TOL:
        raise NotRepresentation("isotypic ranks of the action are not integers")
    return rounded


@dataclass(frozen=True)
class K0Class:
    """Element of K_0(C[G]) stored as a character, one value per conjugacy class.

    Class values are ordered like ``group.conjugacy_classes``.  The virtual
    rank is the value at the class of the identity.  A class built from
    integer counts (:func:`k0_from_multiplicities`) also keeps its coordinates
    ``multiplicities`` on the irreducible characters, ordered like
    ``group.characters``; they do not take part in comparisons, which read the
    values.
    """

    group: FiniteGroup
    values: tuple[complex, ...]
    multiplicities: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.values) != len(self.group.conjugacy_classes):
            raise ShapeMismatch(
                f"need {len(self.group.conjugacy_classes)} class values, "
                f"got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if self.multiplicities is not None:
            object.__setattr__(self, "multiplicities", tuple(map(int, self.multiplicities)))

    @property
    def rank(self) -> int:
        return int(round(self.value_at(self.group.identity).real))

    def value_at(self, g: int) -> complex:
        if not 0 <= g < self.group.order:
            raise GroupMismatch(f"element {g} not in any conjugacy class")
        return self.values[self.group.class_index[g]]


def k0_zero(group: FiniteGroup) -> K0Class:
    return K0Class(group, (0j,) * len(group.conjugacy_classes))


def k0_from_multiplicities(group: FiniteGroup, multiplicities: Sequence[int]) -> K0Class:
    """The class ``sum_chi m_chi chi`` of integer multiplicities ``m_chi``,
    one per row of ``group.characters``."""
    m = np.asarray(multiplicities, dtype=int)
    if m.shape != (len(group.conjugacy_classes),):
        raise ShapeMismatch(
            f"need {len(group.conjugacy_classes)} multiplicities, got {m.shape}"
        )
    return K0Class(group, tuple(m @ group.characters), tuple(m))


def k0_add(a: K0Class, b: K0Class) -> K0Class:
    if not a.group.same_group(b.group):
        raise GroupMismatch("cannot add classes over different groups")
    return K0Class(a.group, tuple(x + y for x, y in zip(a.values, b.values)))


def k0_negate(a: K0Class) -> K0Class:
    return K0Class(a.group, tuple(-x for x in a.values))


def k0_equal(a: K0Class, b: K0Class, tol: float = CHAR_TOL) -> bool:
    if not a.group.same_group(b.group):
        raise GroupMismatch("cannot compare classes over different groups")
    return max(
        (abs(x - y) for x, y in zip(a.values, b.values)), default=0.0
    ) <= tol


def k0_from_projections(
    p_plus: np.ndarray,
    p_minus: np.ndarray,
    action: GroupAction | None = None,
    tol: float = DEFAULT_TOL,
) -> K0Class:
    """Character of ``[p_plus] - [p_minus]`` in K_0 of the group algebra.

    The projections act on the total space of the action (the direct sum over
    degrees).  With no action the group is trivial and the class is the rank
    difference.  Raises NonEquivariantProjection if a projection fails to
    commute with the action or its character is not constant on a conjugacy
    class within CHAR_TOL.
    """
    pp = as_matrix(p_plus)
    pm = as_matrix(p_minus)
    for name, p in (("p_plus", pp), ("p_minus", pm)):
        if p.shape[0] != p.shape[1]:
            raise ShapeMismatch(f"{name} is not square")
        if not residual_within(p @ p - p, tol, lambda norm: norm(p))[0]:
            raise PreconditionViolated(f"{name} is not idempotent within tolerance")
        if not residual_within(p - adjoint(p), tol, lambda norm: norm(p))[0]:
            raise PreconditionViolated(f"{name} is not self-adjoint within tolerance")
    if pp.shape != pm.shape:
        raise ShapeMismatch("projections act on different spaces")
    if action is None:
        group = FiniteGroup.trivial()
        diff = np.trace(pp).real - np.trace(pm).real
        return K0Class(group, (complex(round(diff.real)),))
    size = sum(action.dims)
    if pp.shape[0] != size:
        raise ShapeMismatch(
            f"projections act on dimension {pp.shape[0]}, action on {size}"
        )
    per_element = []
    for g in range(action.group.order):
        rho = action.total(g)
        for name, p in (("p_plus", pp), ("p_minus", pm)):
            ok, res = residual_within(rho @ p - p @ rho, tol)
            if not ok:
                raise NonEquivariantProjection(
                    f"{name} does not commute with element {g}: residual {res:.3e}"
                )
        # tr(rho p) as an elementwise sum, without the matrix product
        per_element.append(complex(np.sum(rho.T * pp) - np.sum(rho.T * pm)))
    values = []
    for cls in action.group.conjugacy_classes:
        vals = [per_element[g] for g in cls]
        spread = max(abs(v - vals[0]) for v in vals)
        if spread > CHAR_TOL:
            raise NonEquivariantProjection(
                f"character is not constant on a conjugacy class (spread {spread:.3e})"
            )
        values.append(sum(vals) / len(vals))
    return K0Class(action.group, tuple(values))
