"""Finite groups, unitary chain actions, and K-theory classes of C[G].

K_0 of a complex group algebra is the free abelian group on the irreducible
characters, so a formal difference of equivariant projections is represented
faithfully by its character ``g -> tr(rho(g) p_plus) - tr(rho(g) p_minus)``,
stored per conjugacy class.  Character comparisons use a fixed tolerance
(CHAR_TOL), independent of the numerical tolerance of the linear algebra,
because character values of finite groups are algebraic integers separated by
gaps far larger than roundoff at the sizes this package handles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
from .linalg import DEFAULT_TOL, adjoint, as_matrix, operator_dtype, residual_within

CHAR_TOL = 1e-6

__all__ = [
    "CHAR_TOL",
    "FiniteGroup",
    "GroupAction",
    "K0Class",
    "k0_add",
    "k0_equal",
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


@dataclass(eq=False)
class GroupAction:
    """Unitary representation on a graded space, one block per (element, degree).

    ``blocks[g][k]`` acts on degree ``k``.  Construction checks unitarity, the
    identity, and the homomorphism property degreewise.
    """

    group: FiniteGroup
    blocks: tuple[tuple[np.ndarray, ...], ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if len(self.blocks) != self.group.order:
            raise ShapeMismatch(
                f"need one block family per group element "
                f"({self.group.order}), got {len(self.blocks)}"
            )
        fams = []
        dims = None
        for g, fam in enumerate(self.blocks):
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
        self.blocks = tuple(fams)
        self._dims = dims if dims is not None else ()
        tol = self.tol
        e = self.group.identity
        for k, m in enumerate(self.blocks[e]):
            if not residual_within(m - np.eye(m.shape[0]), tol)[0]:
                raise NotRepresentation(f"identity element is not the identity at degree {k}")
        for g, fam in enumerate(self.blocks):
            for k, m in enumerate(fam):
                ok, res = residual_within(m @ adjoint(m) - np.eye(m.shape[0]), tol)
                if not ok:
                    raise NotUnitary(
                        f"element {g} is not unitary at degree {k}: residual {res:.3e}"
                    )
        for g in range(self.group.order):
            for h in range(self.group.order):
                gh = self.group.multiply(g, h)
                for k in range(len(self._dims)):
                    ok, res = residual_within(
                        self.blocks[g][k] @ self.blocks[h][k] - self.blocks[gh][k], tol
                    )
                    if not ok:
                        raise NotRepresentation(
                            f"homomorphism fails for elements ({g}, {h}) "
                            f"at degree {k}: residual {res:.3e}"
                        )

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    def degree(self, g: int, k: int) -> np.ndarray:
        return self.blocks[g][k]

    def total(self, g: int) -> np.ndarray:
        mats = self.blocks[g]
        size = sum(self._dims)
        out = np.zeros((size, size), dtype=operator_dtype(*mats))
        pos = 0
        for m in mats:
            out[pos : pos + m.shape[0], pos : pos + m.shape[0]] = m
            pos += m.shape[0]
        return out

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
        fams = []
        for g in range(self.group.order):
            fam = []
            for k in range(len(self.dims)):
                a = self.blocks[g][k]
                b = other.blocks[g][k]
                m = np.zeros(
                    (a.shape[0] + b.shape[0], a.shape[0] + b.shape[0]),
                    dtype=operator_dtype(a, b),
                )
                m[: a.shape[0], : a.shape[0]] = a
                m[a.shape[0]:, a.shape[0]:] = b
                fam.append(m)
            fams.append(tuple(fam))
        return GroupAction(self.group, tuple(fams), tol=self.tol)

    @classmethod
    def trivial_action(cls, dims: Sequence[int]) -> "GroupAction":
        group = FiniteGroup.trivial()
        fam = tuple(np.eye(int(d)) for d in dims)
        return cls(group, (fam,))


@dataclass(frozen=True)
class K0Class:
    """Element of K_0(C[G]) stored as a character, one value per conjugacy class.

    Class values are ordered like ``group.conjugacy_classes``.  The virtual
    rank is the value at the class of the identity.
    """

    group: FiniteGroup
    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.group.conjugacy_classes):
            raise ShapeMismatch(
                f"need {len(self.group.conjugacy_classes)} class values, "
                f"got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    @property
    def rank(self) -> int:
        idx = self._class_index(self.group.identity)
        return int(round(self.values[idx].real))

    def value_at(self, g: int) -> complex:
        return self.values[self._class_index(g)]

    def _class_index(self, g: int) -> int:
        for i, cls in enumerate(self.group.conjugacy_classes):
            if g in cls:
                return i
        raise GroupMismatch(f"element {g} not in any conjugacy class")


def k0_zero(group: FiniteGroup) -> K0Class:
    return K0Class(group, (0j,) * len(group.conjugacy_classes))


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
        per_element.append(complex(np.trace(rho @ pp) - np.trace(rho @ pm)))
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
