"""The Morse complex of a closed triangulation, with its duality and action.

Homotopy equivalent Hilbert-Poincare complexes have the same signature
(Higson-Roe, *Mapping surgery to analysis I*, K-Theory 2005), so a
triangulation's classes can be read off the Morse complex of an acyclic
matching on its simplices, spanned by the unmatched (critical) ones, with an
integral chain equivalence ``pi`` onto it (Forman, *Morse theory for cell
complexes*, Adv. Math. 1998).  The matching is a coreduction that decides on
orbit labels only (:func:`_coreduction`): without an action every simplex is
its own orbit, and with a group acting by signed permutations the orbits are
the group's, so the group maps the matching to itself.  With ``C``, ``U``
and ``D`` the critical simplices and those matched with a coface and with a
face, ``A = b_k[U_{k-1}, D_k]`` is unit triangular in the order of the
matching, and

    pi_p = [1 on C_p, -b_{p+1}[C_p, D_{p+1}] A^{-1} on U_p, 0 on D_p]

is solved for in integers by substitution, pair by pair in the order in which
the coreduction kills them (:func:`morse_complex`), ``b[t, s]`` being the
sign of the face column in which the coreduction found ``t``.  Both read one
face table, laid out once with a row per face column (:func:`_face_table`),
so that the rounds count alive faces over contiguous rows.  ``pi`` is the identity on
``C``, so the Morse boundary
``b'_k = b_k[C, C] - b_k[C, D] A^{-1} b_k[U, C]`` is ``pi b`` at the critical
columns, and ``b' b' = 0`` and ``pi b = b' pi`` are checked exactly.  The raw
cap ``P`` is carried over as ``pi P pi^T``, which anticommutes with ``b'`` as
``P`` does with ``b``.  An invariant matching has invariant critical
simplices, on which the action restricts to signed permutations ``rho'``
with ``pi rho = rho' pi`` (Freij, *Equivariant discrete Morse theory*,
Discrete Math. 2009), whose image arrays are those of ``rho`` at the critical
simplices, renumbered.  The group average is taken there: ``sum_g rho'(g) pi P
pi^T rho'(g)^T / |G|`` is ``pi`` times the averaged cap times ``pi^T``, and
commutes with ``rho'``.  No array is wider than the critical simplices times
the simplices.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .groups import GroupAction


def _face_signs(k: int) -> np.ndarray:
    """``(-1)^i`` at the face without vertex ``i`` of a ``k``-simplex."""
    return 1 - 2 * (np.arange(k + 1) % 2)


def _face_table(chains) -> np.ndarray:
    """The faces of the simplices of ``chains`` (a
    :class:`~hpsig.simplicial.SimplicialChainData`), shape ``(n + 1, N)``:
    row ``i`` holds the total-space row of each simplex's face without
    vertex ``i``, padded with ``N``, a dead simplex past the end, so that a
    pass over one face of every simplex reads one contiguous row."""
    offsets = np.cumsum((0, *chains.dims))
    table = np.full((offsets.size - 1, offsets[-1]), offsets[-1])
    for k, f in enumerate(chains.faces[1:], 1):
        table[: k + 1, offsets[k] : offsets[k + 1]] = (offsets[k - 1] + f).T
    return table


def _coreduction(
    chains, table: np.ndarray, orbit: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A coreduction (Mrozek-Batko, *Coreduction homology algorithm*,
    Discrete Comput. Geom. 2009) of the simplices of ``chains``, read off
    their face ``table`` (:func:`_face_table`) and ``orbit``, each simplex's
    orbit label under a group that maps the simplices to themselves: the
    least member of its orbit, or the simplex itself without a group.
    Returns the pairs ``(s, t)`` it keeps as three arrays per round, in the
    order of the rounds: the simplices ``s``, their faces ``t`` and the
    column ``i`` of ``table`` that holds ``t``, the face without vertex
    ``i``; the simplices in no pair are critical.

    Every simplex starts alive.  Each round, every alive ``s`` with exactly
    one alive face ``t`` is a candidate, and the pair ``(s, t)`` is kept when
    ``t`` has exactly one candidate coface in the orbit of ``s``, that orbit
    is the least such orbit for ``t``, and ``t`` is not a candidate itself;
    the kept pairs die.  A round that keeps no pair makes the smallest orbit
    of the lowest alive degree critical, the least label breaking ties, and
    it dies.  Every decision reads only orbit labels and counts, which the
    group keeps, so the matching is invariant (Freij, *Equivariant discrete
    Morse theory*, Discrete Math. 2009).  A kept pair's other faces died in
    earlier rounds, so every gradient path runs back in time, the matching
    is acyclic, and ``pi`` is solved for round by round in this order."""
    size = table.shape[1]
    degree = np.repeat(np.arange(len(chains.dims)), chains.dims)
    orbit_size = np.bincount(orbit, minlength=size)[orbit]
    alive = np.ones(size + 1, bool)
    alive[size] = False
    pairs = []
    while alive.any():
        faces_alive = alive[table]
        live = faces_alive.sum(axis=0, dtype=np.int8)  # alive faces of each simplex
        candidates = np.flatnonzero(alive[:size] & (live == 1))
        col = faces_alive[:, candidates].argmax(axis=0)  # each one's alive face
        t = table[col, candidates]
        # the least orbit with one candidate coface: trivially so for a face
        # with one candidate coface in all
        chosen = np.bincount(t, minlength=size)[t] == 1
        crowded = np.flatnonzero(~chosen)
        if crowded.size:
            keys = t[crowded] * size + orbit[candidates[crowded]]  # by face, then orbit
            order = np.argsort(keys)
            edge = np.ones(keys.size + 1, bool)
            edge[1:-1] = keys[order[1:]] != keys[order[:-1]]
            single = crowded[order[edge[:-1] & edge[1:]]]
            first = np.ones(single.size, bool)
            first[1:] = t[single[1:]] != t[single[:-1]]
            chosen[single[first]] = True
        kept = chosen & (live[t] != 1)
        if kept.any():
            pairs.append((candidates[kept], t[kept], col[kept]))
            dead = np.concatenate(pairs[-1][:2])
        else:
            cells = np.flatnonzero(alive)  # by degree, so the lowest comes first
            low = cells[degree[cells] == degree[cells[0]]]
            dead = np.flatnonzero(orbit == orbit[low[np.lexsort((orbit[low], orbit_size[low]))[0]]])
        alive[dead] = False
    return pairs


class MorseComplex(NamedTuple):
    """The number of critical simplices of each degree and, on the total
    spaces, the boundary ``b'`` and projection ``pi``, integer matrices of
    shapes ``(|C|, |C|)`` and ``(|C|, N)`` (``pi`` the transpose of an array
    held a row per simplex), the duality ``S'``, and the
    action ``rho'`` on the critical simplices (None without an action)."""

    dims: tuple[int, ...]
    boundary: np.ndarray
    projection: np.ndarray
    duality: np.ndarray
    action: GroupAction | None = None


def morse_complex(chains, roots: Sequence[complex], rho: GroupAction | None = None) -> MorseComplex:
    """The Morse complex of ``chains`` (a
    :class:`~hpsig.simplicial.SimplicialChainData`) with the symmetrized
    phased cap ``S' = (Q + Q^*) / 2``, ``Q_k = roots[k] pi_k P_k pi_{n-k}^T``
    for ``P`` the raw cap (``chains.cap_triples`` and ``chains.signs``), and
    with an action ``Q`` averaged over ``rho'`` as ``sum_g rho'(g) Q
    rho'(g)^T / |G|``.  The matching is the coreduction
    (:func:`_coreduction`) on singleton orbits without an action and on the
    orbits of the signed-permutation action ``rho`` with one, and then
    ``rho' = rho`` restricted to the critical simplices.  ``pi`` is solved
    for by substitution in the coreduction's round order: at the face ``t``
    of each pair ``(s, t)``, ``(pi b)[:, s] = 0`` gives ``pi[:, t] =
    -b[t, s] sum_{f != t} b[f, s] pi[:, f]``, every such ``f`` dead in an
    earlier round.  ``b'`` is ``pi b`` at the critical columns.  Raises
    ArithmeticError unless ``b' b' = 0``, ``pi b = b' pi`` and, on the
    group's generators, ``pi rho = rho' pi`` hold exactly, which integer
    arithmetic guarantees short of an overflow or a pair solved for out of
    order."""
    table = _face_table(chains)
    size = table.shape[1]
    orbit = np.arange(size) if rho is None else rho._images[0].min(axis=0)
    rounds = _coreduction(chains, table, orbit)
    matched = np.zeros(size, bool)
    for s, t, _ in rounds:
        matched[s] = matched[t] = True
    critical = np.flatnonzero(~matched)
    # pi^T, a row per simplex and the pad row N zero: the identity on C and
    # zero on D, whose rows stay zero while the rows of U are solved for
    rows = np.zeros((size + 1, critical.size), np.int64)
    rows[critical, np.arange(critical.size)] = 1
    signs = _face_signs(table.shape[0] - 1)
    for s, t, col in rounds:
        # b[t, s] pi[:, t] + sum_{f != t} b[f, s] pi[:, f] = 0, the row of t
        # still zero in the sum
        rows[t] = -signs[col][:, None] * (signs @ rows[table[:, s].T])
    offsets = np.cumsum((0, *chains.dims))
    dims = np.bincount(np.searchsorted(offsets[1:], critical, "right"), minlength=offsets.size - 1)
    at, n = np.cumsum((0, *dims)), dims.size - 1
    pi_t = [rows[offsets[k] : offsets[k + 1], at[k] : at[k + 1]] for k in range(n + 1)]
    boundary, certified = np.zeros((at[-1],) * 2, np.int64), True
    for k in range(1, n + 1):
        pi_b = _face_signs(k) @ pi_t[k - 1][chains.faces[k]]  # (pi b_k)^T
        b = pi_b[critical[at[k] : at[k + 1]] - offsets[k]]
        boundary[at[k - 1] : at[k], at[k] : at[k + 1]] = b.T
        certified &= np.array_equal(pi_b, pi_t[k] @ b)
    if not (certified and not (boundary @ boundary).any()):
        raise ArithmeticError("the Morse complex fails b' b' = 0 or pi b = b' pi")
    raw, cap_signs = np.zeros_like(boundary), chains.signs[:, None]
    for k, (back, front) in enumerate(chains.cap_triples):
        signed = pi_t[k][back] * cap_signs
        raw[at[k] : at[k + 1], at[n - k] : at[n - k + 1]] = signed.T @ pi_t[n - k][front]
    action, count = None, 1
    if rho is not None:
        action, count = _restricted(rho, critical, rows[:size], at), rho.group.order
        # summed over g as over g^{-1}: (rho'(g)^T x rho'(g))[i, j] = s_i x[image_i, image_j] s_j
        image, flips = action._images
        raw = sum(s[:, None] * raw[np.ix_(im, im)] * s for im, s in zip(image, flips.astype(np.int64)))
    phased = np.repeat(np.asarray(roots), dims)[:, None] * raw / count
    duality = (phased + phased.conj().T) / 2.0
    return MorseComplex(tuple(dims.tolist()), boundary, rows[:size].T, duality, action)


def _restricted(
    rho: GroupAction, critical: np.ndarray, pi_t: np.ndarray, at: np.ndarray
) -> GroupAction:
    """``rho`` restricted to the ``critical`` simplices, which it permutes
    with signs when the matching is invariant, as an action on the Morse
    complex (degree ``k`` is ``at[k] .. at[k + 1]``).  Raises ArithmeticError
    unless it maps critical simplices to critical ones and ``pi rho(g) =
    rho'(g) pi`` holds exactly, on ``pi^T`` (``pi_t``), for the group's
    generators, hence for every element."""
    dst, dsgn = rho._images
    where = np.full(dst.shape[1], -1)
    where[critical] = np.arange(critical.size)
    image, signs = where[dst[:, critical]], dsgn[:, critical].astype(np.int64)

    def commutes(g: int) -> bool:
        # (pi rho(g))^T has row j dsgn[j] pi^T[dst[j]], and rho'(g) moves
        # column i of pi^T to image[i]
        moved = np.empty_like(pi_t)
        moved[:, image[g]] = pi_t * signs[g]
        return np.array_equal(pi_t[dst[g]] * dsgn[g, :, None].astype(np.int64), moved)

    if not ((image >= 0).all() and all(commutes(g) for g in rho.group.generators)):
        raise ArithmeticError("the Morse complex fails pi rho = rho' pi")
    return GroupAction._from_images(rho.group, np.diff(at), image, dsgn[:, critical], rho.tol)


def reduced_halves(morse: MorseComplex) -> tuple[np.ndarray, np.ndarray | None]:
    """``B' + S'`` and, in odd degree, ``B' - S'`` (None in even degree) of a
    Morse complex: bit for bit those the duality check lays out from the
    complex's degree blocks, which it adds to zeros, so a zero is +0.0."""
    n = len(morse.dims) - 1
    b, s = morse.boundary.astype(float), np.zeros_like(morse.duality) + morse.duality
    big_b = b + b.T
    return big_b + s, big_b - s if n % 2 else None
