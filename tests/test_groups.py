"""Finite groups, unitary actions, and K0 classes as characters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpsig import (
    FiniteGroup,
    GroupAction,
    K0Class,
    adjoint,
    chain_action,
    generate_with_signature,
    spectral_split,
    verify_duality,
    k0_add,
    k0_equal,
    k0_from_projections,
    k0_negate,
    k0_zero,
    random_unitary,
)
from hpsig.errors import (
    GroupMismatch,
    InvalidGroup,
    NonEquivariantProjection,
    NotRepresentation,
    NotUnitary,
    PreconditionViolated,
    ShapeMismatch,
)
from hpsig import barycentric_subdivide
from hpsig.fixtures import (
    octahedron,
    octahedron_rotation,
    octahedron_rotation_group,
)
from hpsig.groups import k0_from_multiplicities
from hpsig.groups import CHAR_TOL


def _s3() -> FiniteGroup:
    """Symmetric group on three letters, elements as permutation tuples."""
    perms = [
        (0, 1, 2),
        (1, 2, 0),
        (2, 0, 1),
        (0, 2, 1),
        (2, 1, 0),
        (1, 0, 2),
    ]
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
    )
    return FiniteGroup(tuple(str(p) for p in perms), table)


def test_cyclic_group_structure():
    g = FiniteGroup.cyclic(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.multiply(3, 2) == 1
    assert g.inverse(1) == 3
    # abelian: every class is a singleton
    assert g.conjugacy_classes == ((0,), (1,), (2,), (3,))


def test_trivial_and_product_groups():
    t = FiniteGroup.trivial()
    assert t.order == 1
    p = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
    assert p.order == 6
    # the product of cyclic groups of coprime order is cyclic of order 6
    orders = set()
    for g in range(p.order):
        k, x = 1, g
        while x != p.identity:
            x = p.multiply(x, g)
            k += 1
        orders.add(k)
    assert 6 in orders


def test_symmetric_group_conjugacy_classes():
    s3 = _s3()
    sizes = sorted(len(c) for c in s3.conjugacy_classes)
    assert sizes == [1, 2, 3]


def test_invalid_group_tables():
    with pytest.raises(InvalidGroup):
        FiniteGroup(("e", "g"), ((0, 1), (1, 1)))
    with pytest.raises(InvalidGroup):
        FiniteGroup(("e", "e"), ((0, 1), (1, 0)))
    with pytest.raises(InvalidGroup):
        # a Latin square with no two-sided identity row
        FiniteGroup(("a", "b", "c"), ((0, 2, 1), (2, 1, 0), (1, 0, 2)))


def test_group_action_constructor_checks():
    g = FiniteGroup.cyclic(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    act = GroupAction(g, ((eye,), (swap,)))
    assert act.dims == (2,)
    with pytest.raises(NotUnitary):
        GroupAction(g, ((eye,), (2.0 * swap,)))
    with pytest.raises(NotRepresentation):
        # identity element must act as the identity
        GroupAction(g, ((swap,), (eye,)))
    jay = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(NotRepresentation):
        # a four-cycle is not an involution
        GroupAction(g, ((eye,), (jay,)))


def test_group_action_total_and_conjugated():
    g = FiniteGroup.cyclic(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    act = GroupAction(g, ((np.eye(2), np.eye(1)), (swap, -np.eye(1))))
    total = act.total(1)
    assert total.shape == (3, 3)
    assert total[2, 2] == -1.0
    rng = np.random.default_rng(0)
    us = [random_unitary(rng, 2), random_unitary(rng, 1)]
    conj = act.conjugated(us)
    # conjugation preserves the character
    assert np.trace(conj.total(1)) == pytest.approx(np.trace(total), abs=1e-12)


def test_k0_class_arithmetic():
    g = FiniteGroup.cyclic(3)
    a = K0Class(g, (1.0, 1j, -1j))
    b = K0Class(g, (2.0, 0.0, 0.0))
    s = k0_add(a, b)
    assert s.values == (3 + 0j, 1j, -1j)
    assert k0_negate(a).values == (-1 - 0j, -1j, 1j)
    assert a.rank == 1
    assert a.value_at(2) == -1j
    # elements outside 0 .. order - 1 are refused, not wrapped
    for outside in (-1, g.order):
        with pytest.raises(GroupMismatch):
            a.value_at(outside)
    assert k0_equal(k0_add(a, k0_negate(a)), k0_zero(g))
    with pytest.raises(GroupMismatch):
        k0_add(a, K0Class(FiniteGroup.cyclic(2), (0.0, 0.0)))
    with pytest.raises(ShapeMismatch):
        K0Class(g, (1.0,))


def test_k0_equal_uses_character_tolerance():
    g = FiniteGroup.trivial()
    a = K0Class(g, (1.0,))
    assert k0_equal(a, K0Class(g, (1.0 + 0.5 * CHAR_TOL,)))
    assert not k0_equal(a, K0Class(g, (1.0 + 10 * CHAR_TOL,)))


def test_k0_from_projections_trivial_group():
    p = np.diag([1.0, 1.0, 0.0])
    q = np.diag([0.0, 0.0, 1.0])
    cls = k0_from_projections(p, q)
    assert cls.group.order == 1
    assert cls.values == (1 + 0j,)


def test_k0_from_projections_regular_swap():
    """Regular representation of the two-element group: the symmetric minus
    the antisymmetric line has character (0, 2)."""
    g = FiniteGroup.cyclic(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    act = GroupAction(g, ((np.eye(2),), (swap,)))
    p_plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    p_minus = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    cls = k0_from_projections(p_plus, p_minus, act)
    assert cls.values == pytest.approx((0.0, 2.0))


def test_k0_from_projections_rejects_bad_input():
    g = FiniteGroup.cyclic(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    act = GroupAction(g, ((np.eye(2),), (swap,)))
    not_equivariant = np.diag([1.0, 0.0])
    with pytest.raises(NonEquivariantProjection):
        k0_from_projections(not_equivariant, np.zeros((2, 2)), act)
    with pytest.raises(PreconditionViolated):
        k0_from_projections(0.5 * np.eye(2), np.zeros((2, 2)), act)


@settings(deadline=None, max_examples=20)
@given(order=st.integers(1, 6), seed=st.integers(0, 1000))
def test_cyclic_actions_by_characters_are_representations(order, seed):
    g = FiniteGroup.cyclic(order)
    rng = np.random.default_rng(seed)
    omega = np.exp(2j * np.pi / order)
    j = int(rng.integers(0, order))
    fams = tuple(
        ((omega ** ((j * k) % order)) * np.eye(2),) for k in range(order)
    )
    act = GroupAction(g, fams)
    for a in range(order):
        for b in range(order):
            ab = g.multiply(a, b)
            assert np.allclose(
                act.blocks[a][0] @ act.blocks[b][0], act.blocks[ab][0], atol=1e-9
            )


def _cycle(d: int) -> np.ndarray:
    return np.roll(np.eye(d), 1, axis=0)


def test_signed_family_that_is_not_a_homomorphism():
    g = FiniteGroup.cyclic(2)
    # a signed three-cycle at degree 1 does not square to the identity
    fams = ((np.eye(2), np.eye(3)), (np.eye(2)[::-1], -_cycle(3)))
    with pytest.raises(NotRepresentation) as exc_info:
        GroupAction(g, fams)
    assert str(exc_info.value) == (
        "homomorphism fails for elements (1, 1) at degree 1: residual 1.732e+00"
    )
    # dense blocks are checked within the tolerance, which passes at tol 2
    GroupAction(g, fams, tol=2.0)


def test_signed_identity_that_is_not_the_identity():
    g = FiniteGroup.cyclic(2)
    swap = np.eye(2)[::-1]
    with pytest.raises(NotRepresentation) as exc_info:
        GroupAction(g, ((np.eye(1), swap), (np.eye(1), np.eye(2))))
    assert str(exc_info.value) == "identity element is not the identity at degree 1"


def test_dense_blocks_stay_dense():
    g = FiniteGroup.cyclic(2)
    swap = np.eye(2)[::-1]
    # signed permutations given as dense blocks are not scanned for them
    for block in (swap, -swap + 0j):
        act = GroupAction(g, ((np.eye(2),), (block,)))
        assert not act.is_signed_permutation
        assert np.array_equal(act.total(1), block)
    # the total keeps the dtype of the complex block
    assert act.total(1).dtype == np.complex128
    # two entries in one row and none in another
    bad = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotUnitary):
        GroupAction(g, ((np.eye(2),), (bad,)))


def test_dense_action_builds_each_element_once_per_call(monkeypatch):
    hp = generate_with_signature(5, "n2-z3-d4")[0]
    act = hp.action
    assert not act.is_signed_permutation
    b = hp.total_boundary()
    split = spectral_split(b + adjoint(b) + hp.total_duality())
    calls = []
    total = GroupAction.total
    monkeypatch.setattr(GroupAction, "total", lambda self, g: calls.append(g) or total(self, g))
    k0_from_projections(split.p_plus, split.p_minus, act)
    assert calls == list(range(act.group.order))
    calls.clear()
    # the action gate forms its commutators on the degree blocks, and a passing
    # gate lays out no element on the total space
    assert verify_duality(hp).passed
    assert calls == []


def _orthonormal(group: FiniteGroup) -> None:
    """Both orthogonality relations of the character table, within rounding."""
    chars = group.characters
    sizes = np.array([len(c) for c in group.conjugacy_classes])
    rows = (chars * sizes) @ chars.conj().T / group.order
    columns = chars.conj().T @ chars * sizes / group.order
    assert np.abs(rows - np.eye(len(sizes))).max() <= 1e-12
    assert np.abs(columns - np.eye(len(sizes))).max() <= 1e-12


@pytest.mark.parametrize(
    "group, degrees",
    [
        (FiniteGroup.trivial(), (1,)),
        *[(FiniteGroup.cyclic(n), (1,) * n) for n in (2, 3, 4, 5, 6)],
        (FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)), (1,) * 4),
        (_s3(), (1, 1, 2)),
        (octahedron_rotation_group().group, (1, 1, 2, 3, 3)),
    ],
)
def test_character_tables(group, degrees):
    _orthonormal(group)
    assert group.character_degrees == degrees
    assert sum(d * d for d in degrees) == group.order
    # the trivial character comes first
    assert np.abs(group.characters[0] - 1).max() <= 1e-12


def test_character_values_are_exact_where_they_lie_in_a_lattice():
    # orders dividing 4 give Gaussian integers, rational classes integers
    assert np.array_equal(FiniteGroup.cyclic(4).characters[:, 1], [1, 1j, -1j, -1])
    rotations = octahedron_rotation_group().group.characters
    assert rotations.dtype == np.float64 and np.array_equal(rotations, np.round(rotations))
    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)).characters
    assert sorted(map(tuple, z2z2.tolist())) == sorted(
        [(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]
    )


def _assert_spans_the_isotypic_images(rho, tol):
    """``rho``'s isotypic bases are orthonormal, each column lies in one
    degree, and each basis spans the image of its isotypic projection."""
    group = rho.group
    bases = rho.isotypic_bases
    assert len(bases) == len(group.conjugacy_classes)
    assert sum(q.shape[1] for q in bases) == sum(rho.dims)
    together = np.hstack(bases)
    assert np.abs(adjoint(together) @ together - np.eye(together.shape[1])).max() <= tol
    degree = np.repeat(np.arange(len(rho.dims)), rho.dims)
    for column in together.T:
        assert np.unique(degree[np.flatnonzero(column)]).size == 1
    chars = group.characters[:, group.class_index]
    for q, chi, d in zip(bases, chars, group.character_degrees):
        proj = sum(np.conj(chi[g]) * rho.total(g) for g in range(group.order)) * d / group.order
        assert np.abs(q @ adjoint(q) - proj).max() <= tol
        assert q.shape[1] % d == 0
    return bases


@pytest.mark.parametrize("rotations", [octahedron_rotation, octahedron_rotation_group])
def test_isotypic_bases_span_the_isotypic_images(rotations):
    m, act = barycentric_subdivide(octahedron(), rotations())
    rho = chain_action(m, act)
    group = rho.group
    bases = _assert_spans_the_isotypic_images(rho, 1e-12)
    chars = group.characters[:, group.class_index]
    for q, chi in zip(bases, chars):
        assert q.dtype == (np.float64 if not np.any(chi.imag) else np.complex128)


def test_dense_actions_get_bases_that_span_the_isotypic_images():
    # generated Z/4 and Z/3 actions, whose blocks are laid out after both
    # changes of basis, and the 24 rotations of the subdivided octahedron
    # conjugated by random unitaries, whose characters have degrees 1, 1, 2, 3
    # and 3: all take the degree-by-degree route
    m, act = barycentric_subdivide(octahedron(), octahedron_rotation_group())
    rotations = chain_action(m, act)
    rng = np.random.default_rng(11)
    twisted = rotations.conjugated([random_unitary(rng, d) for d in rotations.dims])
    generated = [
        generate_with_signature(seed, profile)[0].action
        for profile in ("n2-z4-d4", "n4-z3-d3")
        for seed in range(8)
    ]
    for rho in (*generated, twisted):
        assert not rho.is_signed_permutation
        _assert_spans_the_isotypic_images(rho, 1e-12)
    # the same ranks as the signed permutations' own
    assert [q.shape[1] for q in twisted.isotypic_bases] == [
        q.shape[1] for q in rotations.isotypic_bases
    ]
    # a swap given by dense blocks, with the ranks of its orbit sums
    swap = GroupAction(FiniteGroup.cyclic(2), ((np.eye(2),), (np.array([[0, 1], [1, 0]]),)))
    assert not swap.is_signed_permutation
    assert [q.shape[1] for q in swap.isotypic_bases] == [1, 1]
    _assert_spans_the_isotypic_images(swap, 1e-12)


@pytest.mark.parametrize(
    "name, group",
    [
        *((f"Z/{n}", FiniteGroup.cyclic(n)) for n in (1, 2, 3, 4, 6)),
        ("Z/2xZ/2", FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))),
        ("S3", _s3()),
        ("rotations", octahedron_rotation_group().group),
    ],
)
def test_generators_generate_the_group(name, group):
    gens = group.generators
    assert len(gens) <= np.log2(group.order)
    assert group.identity not in gens
    # the closure under left multiplication by the set, from the identity
    closure, frontier = {group.identity}, [group.identity]
    while frontier:
        new = {group.multiply(s, x) for x in frontier for s in gens} - closure
        closure |= new
        frontier = list(new)
    assert closure == set(range(group.order))


def test_k0_from_multiplicities():
    group = FiniteGroup.cyclic(4)
    cls = k0_from_multiplicities(group, [2, 0, 0, -1])
    assert cls.multiplicities == (2, 0, 0, -1)
    assert cls.values == (1, 3, 1, 3)
    # comparisons read the values
    assert cls == K0Class(group, (1, 3, 1, 3))
    with pytest.raises(ShapeMismatch):
        k0_from_multiplicities(group, [1, 0])
