"""Seeded random generators whose signature class is known by construction.

A closed generated complex is a direct sum, over the characters of a cyclic
group, of a middle-degree form with prescribed inertia plus hyperbolic
padding, subsequently disguised by an exact duality perturbation and unitary
changes of basis.  None of the disguising steps can move the class, so the
expected character is the sum of the prescribed inertia numbers weighted by
the characters.  The pieces are laid out once, one block-diagonal per degree;
the action is laid out after both changes of basis, on the conjugated scalar
blocks, and checked once.

A generated complex with boundary couples an acyclic distinguished subcomplex
to a hyperbolic quotient through a chain homotopy, which satisfies the
boundary compatibility identities on the nose; its boundary complex is
acyclic and its class vanishes.

The hyperbolic parts are laid out without the gate pass of
:func:`~hpsig.bordism.hyperbolic`: their input has zero boundaries and a
family whose halves are exact adjoints (``x`` and ``adjoint(x)``, and
``(F + F*) / 2`` in the middle degree), so every residual those gates compute
is exactly 0.0, and skipping them loses no check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .bordism import ComplexWithBoundary, _hyperbolic_layout
from .complexes import (
    ChainComplex,
    DualityOperator,
    HilbertPoincareComplex,
    perturb_duality,
    twist,
)
from .errors import ParseError, PreconditionViolated
from .groups import FiniteGroup, GroupAction, K0Class
from .linalg import adjoint, assemble_total, block_diag

__all__ = [
    "Profile",
    "generate_with_boundary",
    "generate_with_signature",
    "parse_profile",
    "random_unitary",
]

_PROFILE_RE = re.compile(r"^n(\d+)(?:-z(\d+))?(?:-d(\d+))?$")


@dataclass(frozen=True)
class Profile:
    """Generator size parameters: top degree, cyclic group order, and a cap
    on the per-degree dimensions."""

    n: int
    group_order: int = 1
    max_dim: int = 4


def parse_profile(text: str | Profile) -> Profile:
    """Parse ``n{int}[-z{int}][-d{int}]``, e.g. ``n4-z3-d6``."""
    if isinstance(text, Profile):
        return text
    match = _PROFILE_RE.match(text.strip())
    if not match:
        raise ParseError(
            f"profile {text!r} does not match n<int>[-z<int>][-d<int>]"
        )
    n = int(match.group(1))
    order = int(match.group(2)) if match.group(2) else 1
    max_dim = int(match.group(3)) if match.group(3) else 4
    if order < 1:
        raise ParseError("group order must be at least 1")
    if max_dim < 1:
        raise ParseError("dimension cap must be at least 1")
    return Profile(n=n, group_order=order, max_dim=max_dim)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise PreconditionViolated(f"the seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    if d == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    ph = np.diagonal(r).copy()
    ph = np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)
    return q * ph


def _well_conditioned(rng: np.random.Generator, d: int) -> np.ndarray:
    """Invertible matrix with singular values in [1, 2]."""
    u = random_unitary(rng, d)
    v = random_unitary(rng, d)
    sv = 1.0 + rng.uniform(size=d)
    return (u * sv) @ adjoint(v)


def _zero_blocks(dims: tuple[int, ...]) -> list[np.ndarray]:
    n = len(dims) - 1
    return [
        np.zeros((dims[k], dims[n - k]), dtype=np.complex128) for k in range(n + 1)
    ]


def _zero_boundaries(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    return tuple(
        np.zeros((dims[k - 1], dims[k]), dtype=np.complex128)
        for k in range(1, len(dims))
    )


def _middle_piece(
    rng: np.random.Generator, n: int, size: int
) -> tuple[HilbertPoincareComplex, int]:
    """Zero-boundary complex concentrated in the middle degree with a
    nondegenerate form of random inertia; returns (complex, signature)."""
    mid = n // 2
    dims = tuple(size if k == mid else 0 for k in range(n + 1))
    signs = rng.integers(0, 2, size=size) * 2 - 1
    u = random_unitary(rng, size)
    form = u @ np.diag(signs.astype(np.complex128)) @ adjoint(u)
    form = (form + adjoint(form)) / 2.0
    blocks = _zero_blocks(dims)
    blocks[mid] = form
    hp = HilbertPoincareComplex(
        ChainComplex(dims, _zero_boundaries(dims)), DualityOperator(tuple(blocks))
    )
    return hp, int(signs.sum())


def _hyperbolic_piece(
    rng: np.random.Generator, n: int, size: int
) -> HilbertPoincareComplex:
    """Signature-zero hyperbolic complex of top degree n (n even)."""
    d = n - 1
    a = int(rng.integers(0, (d + 1) // 2))
    dims = tuple(size if k in (a, d - a) else 0 for k in range(d + 1))
    x = _well_conditioned(rng, size)
    blocks = _zero_blocks(dims)
    blocks[a] = x
    blocks[d - a] = adjoint(x)
    return _hyperbolic_layout(ChainComplex(dims, _zero_boundaries(dims)), blocks)


def generate_with_signature(
    seed: int, profile: str | Profile
) -> tuple[HilbertPoincareComplex, K0Class]:
    """Seeded complex of even top degree with its expected signature class.

    The profile's group order 1 yields a plain complex (no action) and an
    integer class over the trivial group.  Otherwise ``g`` acts on character
    ``j``'s pieces by ``omega^(jg)``; the perturbation and both changes of
    basis run on the complex alone, and the action is laid out after them, by
    the same conjugations, and checked once.  A negative seed is refused.
    """
    profile = parse_profile(profile)
    n = profile.n
    if n % 2:
        raise PreconditionViolated(
            f"the generator needs an even top degree, got {n}"
        )
    rng = _rng(seed)
    order = profile.group_order
    cap_mid = max(1, profile.max_dim // order)
    cap_hyp = max(1, profile.max_dim // (2 * order))
    sizes_mid = [int(rng.integers(0, cap_mid + 1)) for _ in range(order)]
    # hyperbolic padding needs room below the top degree
    sizes_hyp = [
        int(rng.integers(0, cap_hyp + 1)) if n >= 2 else 0 for _ in range(order)
    ]
    if not any(sizes_mid) and not any(sizes_hyp):
        sizes_mid[int(rng.integers(0, order))] = 1

    # every part of every character, laid out once per degree in character
    # order; piece_dims[j] are the dimensions of character j's parts
    parts: list[HilbertPoincareComplex] = []
    piece_dims, inertia = [], []
    for j in range(order):
        first, sig_j = len(parts), 0
        if sizes_mid[j]:
            hp_mid, sig_j = _middle_piece(rng, n, sizes_mid[j])
            parts.append(hp_mid)
        if sizes_hyp[j]:
            parts.append(_hyperbolic_piece(rng, n, sizes_hyp[j]))
        piece_dims.append(tuple(sum(p.dims[k] for p in parts[first:]) for k in range(n + 1)))
        inertia.append(sig_j)
    dims = tuple(sum(d[k] for d in piece_dims) for k in range(n + 1))
    bnds = [block_diag(*(p.chain.boundary(k) for p in parts)) for k in range(1, n + 1)]
    sblocks = [block_diag(*(p.duality.block(k) for p in parts)) for k in range(n + 1)]
    hp = HilbertPoincareComplex(ChainComplex(dims, bnds), DualityOperator(sblocks))

    # exact duality perturbation, block-diagonal over the isotypic pieces so
    # it commutes with the action
    r_blocks: list[np.ndarray | None] = [None] * (n + 1)
    for j in range(2, n + 1):
        partner = n + 2 - j
        if j > partner:
            continue
        shapes = [(d[j], d[partner]) for d in piece_dims]
        blk = block_diag(
            *(0.3 * (rng.normal(size=sh) + 1j * rng.normal(size=sh)) for sh in shapes)
        )
        if j == partner:
            blk = (blk + adjoint(blk)) / 2.0
            r_blocks[j] = blk
        else:
            r_blocks[j] = blk
            r_blocks[partner] = adjoint(blk)
    hp = perturb_duality(hp, r_blocks)

    # equivariant change of basis inside each isotypic piece, then a global one
    eq_us = [
        block_diag(*(random_unitary(rng, d[k]) for d in piece_dims))
        for k in range(n + 1)
    ]
    hp = twist(hp, eq_us)
    global_us = [random_unitary(rng, dims[k]) for k in range(n + 1)]
    hp = twist(hp, global_us)

    if order > 1:
        group = FiniteGroup.cyclic(order)
        omega = np.exp(2j * np.pi / order)

        def block(g: int, k: int) -> np.ndarray:
            # g acts on character j's pieces by omega^(jg), in both new bases
            m = block_diag(
                *(omega ** ((j * g) % order) * np.eye(d[k]) for j, d in enumerate(piece_dims))
            )
            for u in (eq_us[k], global_us[k]):
                m = u @ m @ adjoint(u)
            return m

        action = GroupAction(group, [[block(g, k) for k in range(n + 1)] for g in range(order)])
        hp = HilbertPoincareComplex(hp.chain, hp.duality, action)
        values = []
        for cls in group.conjugacy_classes:
            g = cls[0]
            values.append(
                complex(sum(omega ** ((j * g) % order) * inertia[j] for j in range(order)))
            )
        expected = K0Class(group, tuple(values))
    else:
        expected = K0Class(FiniteGroup.trivial(), (complex(sum(inertia)),))
    return hp, expected


def generate_with_boundary(seed: int, profile: str | Profile) -> ComplexWithBoundary:
    """Seeded complex with boundary satisfying the compatibility identities.

    ``profile.n`` is the boundary dimension (even, at least 2); the total
    complex has odd top degree ``n + 1``.  The distinguished subcomplex is
    acyclic and avoids the top degree, the quotient is hyperbolic, and the
    coupling blocks come from a degree-zero homotopy, so the structure is
    valid by construction and the boundary class vanishes.  A negative seed
    is refused.
    """
    profile = parse_profile(profile)
    n = profile.n
    if n < 2 or n % 2:
        raise PreconditionViolated(
            f"the boundary generator needs an even boundary dimension >= 2, got {n}"
        )
    if profile.group_order != 1:
        raise PreconditionViolated("the boundary generator has no equivariant mode")
    rng = _rng(seed)
    big_n = n + 1
    cap = max(1, min(2, profile.max_dim // 2))

    # acyclic subcomplex: a direct sum of pieces C^s in degrees k and k + 1
    # (k < big_n) whose boundary is the identity; np.eye(d[m - 1], d[m]) is
    # that identity at m = k + 1 and an empty block at every other m
    piece_dims = []
    for _ in range(1 + int(rng.integers(0, 2))):
        k = int(rng.integers(0, big_n - 1))
        s = 1 + int(rng.integers(0, cap))
        piece_dims.append([s if m in (k, k + 1) else 0 for m in range(big_n + 1)])
    dims0 = [sum(d[m] for d in piece_dims) for m in range(big_n + 1)]
    b0 = [np.zeros((0, 0), dtype=np.complex128)]
    b0.extend(
        block_diag(*(np.eye(d[m - 1], d[m]) for d in piece_dims))
        for m in range(1, big_n + 1)
    )
    u0 = [random_unitary(rng, dims0[k]) for k in range(big_n + 1)]
    for m in range(1, big_n + 1):
        b0[m] = u0[m - 1] @ b0[m] @ adjoint(u0[m])

    # hyperbolic quotient of top degree big_n from middle-degree input data
    mid = n // 2
    t = 1 + int(rng.integers(0, cap))
    dims_in = [0] * (n + 1)
    dims_in[mid] = t
    s_in_sizes = dict.fromkeys(range(n + 1), 0)
    s_in_sizes[mid] = t
    if n >= 4 and rng.integers(0, 2):
        a = int(rng.integers(0, mid))
        dims_in[a] += 1
        dims_in[n - a] += 1
        s_in_sizes[a] = 1
        s_in_sizes[n - a] = 1
    dims_in = tuple(dims_in)
    s_in = _zero_blocks(dims_in)
    u = random_unitary(rng, t)
    signs = rng.integers(0, 2, size=t) * 2 - 1
    form = u @ np.diag(signs.astype(np.complex128)) @ adjoint(u)
    s_in[mid] = (form + adjoint(form)) / 2.0
    for a in range(mid):
        if dims_in[a]:
            x = _well_conditioned(rng, dims_in[a])
            s_in[a], s_in[n - a] = x, adjoint(x)
    quotient = _hyperbolic_layout(ChainComplex(dims_in, _zero_boundaries(dims_in)), s_in)
    dims1 = quotient.dims
    b1 = [np.zeros((0, 0), dtype=np.complex128)]
    b1.extend(quotient.chain.boundary(m) for m in range(1, big_n + 1))
    s1 = [quotient.duality.block(k) for k in range(big_n + 1)]

    # coupling through a degree-zero homotopy x: quotient -> sub
    x = [
        0.4 * (rng.normal(size=(dims0[m], dims1[m])) + 1j * rng.normal(size=(dims0[m], dims1[m])))
        for m in range(big_n + 1)
    ]
    h = [np.zeros((0, 0), dtype=np.complex128)]
    for m in range(1, big_n + 1):
        h.append(b0[m] @ x[m] - x[m - 1] @ b1[m])
    f_up = [-x[k] @ s1[k] for k in range(big_n + 1)]
    s2: list[np.ndarray] = [np.zeros((0, 0), dtype=np.complex128)] * (big_n + 1)
    for k in range(big_n + 1):
        if k < big_n - k:
            s2[k] = 0.5 * (
                rng.normal(size=(dims0[k], dims0[big_n - k]))
                + 1j * rng.normal(size=(dims0[k], dims0[big_n - k]))
            )
    for k in range(big_n + 1):
        if k > big_n - k:
            s2[k] = adjoint(s2[big_n - k])

    dims = tuple(dims0[m] + dims1[m] for m in range(big_n + 1))
    bnds = [
        assemble_total(
            (dims0[m - 1], dims1[m - 1]),
            (dims0[m], dims1[m]),
            [(0, 0, b0[m]), (0, 1, h[m]), (1, 1, b1[m])],
        )
        for m in range(1, big_n + 1)
    ]
    sblocks = [
        assemble_total(
            (dims0[k], dims1[k]),
            (dims0[big_n - k], dims1[big_n - k]),
            [
                (0, 0, s2[k]),
                (0, 1, f_up[k]),
                (1, 0, adjoint(f_up[big_n - k])),
                (1, 1, s1[k]),
            ],
        )
        for k in range(big_n + 1)
    ]
    split = tuple(tuple(range(dims0[m])) for m in range(big_n + 1))
    return ComplexWithBoundary(
        ChainComplex(dims, tuple(bnds)), DualityOperator(tuple(sblocks)), split
    )
