"""The Morse complex of a closed triangulation, with its duality.

Homotopy equivalent Hilbert-Poincare complexes have the same signature
(Higson-Roe, *Mapping surgery to analysis I*, K-Theory 2005), so a
triangulation's classes can be read off the Morse complex of an acyclic
matching on its simplices, spanned by the unmatched (critical) ones, with an
integral chain equivalence ``pi`` onto it (Forman, *Morse theory for cell
complexes*, Adv. Math. 1998).  The matching pairs ``s`` with ``s + {v}``
vertex by vertex among the simplices left unmatched; iterated element
matchings are acyclic (Jonsson, *Simplicial Complexes of Graphs*, LNM 1928,
ch. 4).  With ``C``, ``U`` and ``D`` the critical simplices and those
matched with a coface and with a face, ``A = b_k[U_{k-1}, D_k]`` is unit
triangular in the order of the matching, and

    b'_k = b_k[C, C] - b_k[C, D] A^{-1} b_k[U, C],
    pi_p = [1 on C_p, -b_{p+1}[C_p, D_{p+1}] A^{-1} on U_p, 0 on D_p]

are solved for in integers along the gradient paths from the critical
simplices (:func:`_walk`) and checked exactly.  The cap is carried over as
``pi P pi^T``, which anticommutes with ``b'`` as ``P`` does with ``b``.  No
array is wider than the critical simplices times the simplices.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


class _Incidence(NamedTuple):
    """A square integer matrix row by row: row ``i`` holds ``signs[j]`` in
    column ``cols[j]`` for ``indptr[i] <= j < indptr[i + 1]``."""

    indptr: np.ndarray
    cols: np.ndarray
    signs: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of ``rows``: each one's position in ``rows``, its
        column and its sign."""
        counts = self.indptr[rows + 1] - self.indptr[rows]
        owner = np.repeat(np.arange(rows.size), counts)
        at = np.arange(owner.size) + np.repeat(self.indptr[rows] - np.cumsum(counts) + counts, counts)
        return owner, self.cols[at], self.signs[at]

    def transpose(self) -> "_Incidence":
        order = np.argsort(self.cols, kind="stable")
        counts = np.bincount(self.cols, minlength=self.indptr.size - 1)
        return _Incidence(np.concatenate(([0], np.cumsum(counts))), self.rows[order], self.signs[order])


def _face_signs(k: int) -> np.ndarray:
    """``(-1)^i`` at the face without vertex ``i`` of a ``k``-simplex."""
    return 1 - 2 * (np.arange(k + 1) % 2)


def _matching(chains) -> tuple[_Incidence, np.ndarray, np.ndarray]:
    """``b^T`` on the total space of ``chains`` (a
    :class:`~hpsig.simplicial.SimplicialChainData`), the faces of each
    simplex in the order of its face array, and the iterated element
    matching read off it: vertex by vertex, each unmatched simplex that holds
    the vertex is matched with its face without it if that face is
    unmatched.  With each simplex's partner (-1 for none) and the pair's
    boundary entry, +1 or -1."""
    dims, none = chains.dims, np.zeros(0, np.intp)
    offsets = np.cumsum((0, *dims))
    faces = _Incidence(
        np.concatenate(([0], np.cumsum(np.repeat([f.shape[1] for f in chains.faces], dims)))),
        np.concatenate([none, *(offsets[k] + f.ravel() for k, f in enumerate(chains.faces[1:]))]),
        np.concatenate([none, *(np.tile(_face_signs(k), d) for k, d in enumerate(dims[1:], 1))]),
    )
    # the vertex that each face leaves out, in the same order
    vertex = np.concatenate([none, *(r.ravel() for r in chains.rows[1:])])
    order = np.argsort(vertex, kind="stable")
    upper, lower = faces.rows[order], faces.cols[order]
    bounds = np.searchsorted(vertex[order], np.arange(chains.vertices.size + 1)).tolist()
    free, matched = np.ones(offsets[-1], bool), np.zeros(order.size, bool)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        one, other = upper[start:stop], lower[start:stop]
        pairs = matched[start:stop] = free[one] & free[other]
        free[one[pairs]] = free[other[pairs]] = False
    upper, lower = upper[matched], lower[matched]
    mate, sign = np.full(offsets[-1], -1), np.zeros(offsets[-1], np.int64)
    mate[upper], mate[lower] = lower, upper
    sign[upper] = sign[lower] = faces.signs[order[matched]]
    return faces, mate, sign


def _walk(
    inc: _Incidence, sources: np.ndarray, mate: np.ndarray, sign: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``sources`` of ``inc`` cleared of their columns ``c`` with
    ``mate[c] >= 0``, and the solution, over the rows, that clears them:
    every round, each nonzero ``z[c]`` on such a column takes ``z[c] sign[c]``
    times the row ``mate[c]``, whose entry at ``c`` is ``sign[c]``, off ``z``
    and onto the solution at ``mate[c]``: one step along every gradient
    path, so it ends after as many rounds as the longest path."""
    z = np.zeros((sources.size, inc.indptr.size - 1), np.int64)
    owner, cols, vals = inc.gather(sources)
    z[owner, cols] = vals
    solution = np.zeros_like(z)
    for _ in range(mate.size + 1):
        keep = (mate[cols] >= 0) & (z[owner, cols] != 0)
        owner, cols = owner[keep], cols[keep]
        if not owner.size:
            return z, solution
        steps, rows = z[owner, cols] * sign[cols], mate[cols]
        solution[owner, rows] += steps
        at, cols, vals = inc.gather(rows)
        owner, steps = owner[at], steps[at]
        np.add.at(z, (owner, cols), -steps * vals)
        # the positions touched, each once, are the next round's candidates
        owner, cols = np.divmod(np.unique(owner * z.shape[1] + cols), z.shape[1])
    raise ArithmeticError("the matching has a closed gradient path")


class MorseComplex(NamedTuple):
    """The number of critical simplices of each degree and, on the total
    spaces, the boundary ``b'`` and projection ``pi``, integer matrices of
    shapes ``(|C|, |C|)`` and ``(|C|, N)``, and the duality ``S'``."""

    dims: tuple[int, ...]
    boundary: np.ndarray
    projection: np.ndarray
    duality: np.ndarray


def morse_complex(chains, cap: Sequence[tuple], roots: Sequence[complex]) -> MorseComplex:
    """The Morse complex of the iterated element matching of ``chains`` (a
    :class:`~hpsig.simplicial.SimplicialChainData`) with the symmetrized
    phased cap ``S' = (Q + Q^*) / 2``, ``Q_k = roots[k] pi_k P_k pi_{n-k}^T``
    for the raw cap ``P`` of the entries ``cap`` (those of
    :func:`~hpsig.simplicial._cap_entries` without an action).  Raises
    ArithmeticError unless ``b' b' = 0`` and ``pi b = b' pi`` hold exactly,
    which integer arithmetic guarantees short of an overflow."""
    faces, mate, sign = _matching(chains)
    index, critical = np.arange(mate.size), np.flatnonzero(mate < 0)
    # b'_k is left of a source's faces once the paths down turn at U, and
    # b[C_p, D_{p+1}] A^{-1} is solved for once those up turn at D
    z, _ = _walk(faces, critical, np.where(mate > index, mate, -1), sign)
    _, solution = _walk(faces.transpose(), critical, np.where(mate < index, mate, -1), sign)
    boundary, projection = z[:, critical].T, -solution
    projection[np.arange(critical.size), critical] = 1
    offsets = np.cumsum((0, *chains.dims))
    dims = np.bincount(np.searchsorted(offsets[1:], critical, "right"), minlength=offsets.size - 1)
    at, n = np.cumsum((0, *dims)), dims.size - 1
    pi = [projection[at[k] : at[k + 1], offsets[k] : offsets[k + 1]] for k in range(n + 1)]
    certified = not (boundary @ boundary).any()
    for k in range(1, n + 1):
        b_pi = boundary[at[k - 1] : at[k], at[k] : at[k + 1]] @ pi[k]
        certified &= np.array_equal(pi[k - 1][:, chains.faces[k]] @ _face_signs(k), b_pi)
    if not certified:
        raise ArithmeticError("the Morse complex fails b' b' = 0 or pi b = b' pi")
    raw = np.zeros((at[-1],) * 2, np.int64)
    for k, (back, front, vals) in enumerate(cap):
        raw[at[k] : at[k + 1], at[n - k] : at[n - k + 1]] = (pi[k][:, back] * vals) @ pi[n - k][:, front].T
    phased = np.repeat(np.asarray(roots), dims)[:, None] * raw
    return MorseComplex(tuple(dims.tolist()), boundary, projection, (phased + phased.conj().T) / 2.0)


def reduced_halves(
    chains, cap: Sequence[tuple], roots: Sequence[complex]
) -> tuple[np.ndarray, np.ndarray | None]:
    """``B' + S'`` and, in odd degree, ``B' - S'`` (None in even degree) of
    :func:`morse_complex`: bit for bit those the duality check lays out from
    the complex's degree blocks, which it adds to zeros, so a zero is +0.0."""
    morse, n = morse_complex(chains, cap, roots), len(cap) - 1
    b, s = morse.boundary.astype(float), np.zeros_like(morse.duality) + morse.duality
    big_b = b + b.T
    return big_b + s, big_b - s if n % 2 else None
