"""Tests for complexes with boundary, the boundary object, and bordism checks."""

import numpy as np
import pytest

from hpsig import (
    ChainComplex,
    ComplexWithBoundary,
    DualityOperator,
    barycentric_subdivide,
    bordism,
    bordism_to_cwb,
    boundary_complex,
    boundary_signature_is_zero,
    check_coincidence,
    complexes,
    decompose,
    generate_with_boundary,
    generate_with_signature,
    hyperbolic,
    linalg,
    verify_cone_identities,
    verify_duality,
    verify_with_boundary,
)
from hpsig.errors import (
    HpsigError,
    IdentityViolated,
    PreconditionViolated,
    ShapeMismatch,
    SplitInconsistent,
)
from hpsig.fixtures import simplex_disk
from hpsig.linalg import adjoint, assemble_total, block_diag, operator_norm, residual_within

PROFILES = ["n2", "n2-d6", "n4", "n4-d6"]
BOUNDARY_PROFILES = ["n2", "n2-d6", "n2-d8", "n4", "n4-d6", "n4-d8"]


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_bordisms_verify(seed, profile):
    cwb = generate_with_boundary(seed, profile)
    rep = verify_with_boundary(cwb)
    assert rep.passed, rep.failures
    assert rep.cone_invertible
    assert all(v <= 1e-9 for v in rep.residuals.values())
    assert rep.sub_top_dim == 0


def test_generator_is_deterministic():
    a = generate_with_boundary(11, "n2-d6")
    b = generate_with_boundary(11, "n2-d6")
    assert a.split == b.split
    assert a.chain.dims == b.chain.dims
    for m in range(1, a.chain.n + 1):
        assert np.array_equal(a.chain.boundary(m), b.chain.boundary(m))
    for k in range(a.chain.n + 1):
        assert np.array_equal(a.duality.block(k), b.duality.block(k))


def test_generator_preconditions():
    with pytest.raises(PreconditionViolated):
        generate_with_boundary(0, "n3")
    with pytest.raises(PreconditionViolated):
        generate_with_boundary(0, "n0")
    with pytest.raises(PreconditionViolated):
        generate_with_boundary(0, "n2-z2")


def test_decompose_blocks_reassemble():
    cwb = generate_with_boundary(5, "n2-d6")
    blocks = decompose(cwb)
    n_tot = cwb.chain.n
    for m in range(n_tot + 1):
        assert blocks.sub_dims[m] + blocks.quotient_dims[m] == cwb.chain.dims[m]
    # the forbidden block of the differential vanishes identically
    for m in range(1, n_tot + 1):
        assert operator_norm(blocks.f[m]) <= 1e-12


# the block families by field: (rows, columns), 0 for the sub and 1 for the
# quotient part
_BOUNDARY_FAMILIES = {"b0": (0, 0), "h": (0, 1), "f": (1, 0), "b1": (1, 1)}
_DUALITY_FAMILIES = {"s2": (0, 0), "f_upper": (0, 1), "f_lower": (1, 0), "s1": (1, 1)}
_FAMILIES = {**_BOUNDARY_FAMILIES, **_DUALITY_FAMILIES}


def _sliced_blocks(cwb):
    """Every degree block, cut out of ``chain.boundary(m)`` and
    ``duality.block(k)`` by the sub and quotient index lists of each degree."""
    chain, big_n = cwb.chain, cwb.chain.n
    idx = [(list(cwb.sub_indices(m)), list(cwb.quotient_indices(m))) for m in range(big_n + 1)]
    out = {
        name: [np.zeros((0, 0))]
        + [chain.boundary(m)[np.ix_(idx[m - 1][r], idx[m][c])] for m in range(1, big_n + 1)]
        for name, (r, c) in _BOUNDARY_FAMILIES.items()
    }
    for name, (r, c) in _DUALITY_FAMILIES.items():
        out[name] = [
            cwb.duality.block(k)[np.ix_(idx[k][r], idx[big_n - k][c])] for k in range(big_n + 1)
        ]
    return out


def _closed_with_split(part):
    """A closed complex as a complex with boundary whose sub part is empty
    (``part`` "none") or everything (``part`` "all")."""
    hp, _ = generate_with_signature(4, "n4")
    split = tuple(tuple(range(d)) if part == "all" else () for d in hp.dims)
    return ComplexWithBoundary(hp.chain, hp.duality, split)


@pytest.mark.parametrize("case", ["n2", "n4-d8", "disk3", "disk4", "sub-none", "sub-all"])
def test_decomposition_blocks_match_the_sliced_degree_blocks(case):
    if case.startswith("disk"):
        cwb = bordism_to_cwb(simplex_disk(int(case[4:])))
    elif case.startswith("sub-"):
        cwb = _closed_with_split(case[4:])
    else:
        cwb = generate_with_boundary(1, case)
    blocks = decompose(cwb)
    want = _sliced_blocks(cwb)
    for name in _FAMILIES:
        got = getattr(blocks, name)
        assert len(got) == len(want[name]), name
        for k, (g, w) in enumerate(zip(got, want[name])):
            assert g.shape == w.shape, (name, k)
            assert np.array_equal(g, w), (name, k)
            if w.size:
                assert g.dtype == w.dtype, (name, k)
    assert blocks.sub_dims == tuple(len(cwb.sub_indices(m)) for m in range(cwb.chain.n + 1))
    assert blocks.quotient_dims == tuple(
        len(cwb.quotient_indices(m)) for m in range(cwb.chain.n + 1)
    )


def test_corners_and_decomposition_blocks_are_read_only():
    # every check of a complex shares them, so none may change them
    cwb = generate_with_boundary(0, "n4")
    blocks = decompose(cwb)
    arrays = [*cwb._corners] + [x for name in _FAMILIES for x in getattr(blocks, name)]
    for x in arrays:
        if x.size:
            with pytest.raises(ValueError):
                x[(0,) * x.ndim] = 1.0


def test_decompose_rejects_unpreserved_split():
    # interval whose single edge is declared part of the subcomplex but has
    # a boundary vertex outside it
    chain = ChainComplex((2, 1), (np.array([[-1.0], [1.0]]),))
    ones_col = np.ones((2, 1), dtype=np.complex128)
    dual = DualityOperator((ones_col, adjoint(ones_col)))
    cwb = ComplexWithBoundary(chain, dual, ((0,), (0,)))
    with pytest.raises(SplitInconsistent):
        decompose(cwb)


def test_decompose_rejects_broken_identities():
    good = generate_with_boundary(2, "n2")
    blocks = list(good.duality.blocks)
    k = next(i for i, b in enumerate(blocks) if b.size and i != good.chain.n - i)
    blocks[k] = 2.0 * blocks[k]
    bad = ComplexWithBoundary(good.chain, DualityOperator(tuple(blocks)), good.split)
    with pytest.raises(IdentityViolated):
        decompose(bad)


def test_split_validation():
    chain = ChainComplex((2, 1), (np.array([[-1.0], [1.0]]),))
    ones_col = np.ones((2, 1), dtype=np.complex128)
    dual = DualityOperator((ones_col, adjoint(ones_col)))
    with pytest.raises(ShapeMismatch):
        ComplexWithBoundary(chain, dual, ((0,),))
    with pytest.raises(SplitInconsistent):
        ComplexWithBoundary(chain, dual, ((0, 5), ()))
    with pytest.raises(SplitInconsistent):
        ComplexWithBoundary(chain, dual, ((1, 0), ()))


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", [0, 1])
def test_boundary_complex_structure(seed, profile):
    cwb = generate_with_boundary(seed, profile)
    hp = boundary_complex(cwb)
    assert hp.n == cwb.chain.n - 1
    rep = verify_duality(hp)
    assert rep.passed, rep.failures
    # with the i factor folded into the differential, the raw restricted
    # boundary commutes with the restricted duality
    blocks = decompose(cwb)
    n = hp.n
    worst = 0.0
    for k in range(1, n + 1):
        b0k = blocks.b0[k]
        comm = b0k @ hp.duality.block(k) - hp.duality.block(k - 1) @ adjoint(
            blocks.b0[n - k + 1]
        )
        worst = max(worst, operator_norm(comm))
    assert worst <= 1e-9


def test_boundary_complex_rejects_top_degree_sub():
    chain = ChainComplex((1, 1), (np.zeros((1, 1), dtype=np.complex128),))
    one = np.ones((1, 1), dtype=np.complex128)
    dual = DualityOperator((one, one.copy()))
    cwb = ComplexWithBoundary(chain, dual, ((0,), (0,)))
    with pytest.raises(SplitInconsistent):
        boundary_complex(cwb)


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", [0, 1])
def test_cone_identities(seed, profile):
    cwb = generate_with_boundary(seed, profile)
    rep = verify_cone_identities(cwb)
    assert rep.passed, rep.failures
    assert rep.cone_square_residual <= 1e-9
    assert rep.chain_map_residual <= 1e-9
    assert rep.boundary_formula_residual <= 1e-9
    assert rep.hyperbolic_valid


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_boundary_class_vanishes(seed):
    cwb = generate_with_boundary(seed, "n2-d6")
    rep = boundary_signature_is_zero(cwb)
    assert rep.passed
    assert rep.is_zero
    assert rep.coincidence.passed


def test_hyperbolic_builder_zero_signature():
    # one line in degrees 0 and 1, zero boundary, swap family
    chain = ChainComplex((1, 1), (np.zeros((1, 1), dtype=np.complex128),))
    one = np.ones((1, 1), dtype=np.complex128)
    hp = hyperbolic(chain, (one, one.copy()))
    assert hp.n == 2
    assert verify_duality(hp).passed
    rep = check_coincidence(hp)
    assert rep.passed
    assert abs(rep.k0.values[0]) < 1e-12


def test_hyperbolic_builder_rejects_bad_input():
    chain = ChainComplex((1, 1), (np.zeros((1, 1), dtype=np.complex128),))
    one = np.ones((1, 1), dtype=np.complex128)
    with pytest.raises(ShapeMismatch):
        hyperbolic(chain, (one,))
    with pytest.raises(PreconditionViolated):
        hyperbolic(chain, (2.0 * one, one.copy()))
    # boundary that does not square to zero
    bad_chain = ChainComplex(
        (1, 1, 1),
        (np.ones((1, 1), dtype=np.complex128), np.ones((1, 1), dtype=np.complex128)),
    )
    zeros = np.zeros((1, 1), dtype=np.complex128)
    with pytest.raises(PreconditionViolated):
        hyperbolic(bad_chain, (zeros, zeros.copy(), zeros.copy()))
    # family that fails to anticommute with a nonzero boundary
    interval = ChainComplex((2, 1), (np.array([[-1.0], [1.0]]),))
    col = np.ones((2, 1), dtype=np.complex128)
    with pytest.raises(PreconditionViolated):
        hyperbolic(interval, (col, adjoint(col)))


def test_one_split_gate_pass_and_defect_per_complex(count_calls):
    cwb = generate_with_boundary(3, "n2-d6")
    shared = count_calls(bordism, ("_split_blocks", "_structure_gates", "_restricted_defect"))
    dense = count_calls(np.linalg, ("matrix_rank", "svd"))
    assert verify_with_boundary(cwb).passed
    assert boundary_signature_is_zero(cwb).passed
    assert verify_cone_identities(cwb).passed
    assert shared == {"_split_blocks": 1, "_structure_gates": 1, "_restricted_defect": 1}
    assert dense == {"matrix_rank": 0, "svd": 0}
    # the eight structure gates share one column-norm bound of b and one of S
    fresh = ComplexWithBoundary(cwb.chain, cwb.duality, cwb.split)
    bounds = count_calls(linalg, ("_column_norm_bound",))
    assert all(ok for ok, _ in bordism._structure_gates(fresh, 1e-9).values())
    assert bounds == {"_column_norm_bound": 2}
    # the quotient cone is evaluated once per complex and tolerance
    cone = count_calls(bordism, ("_quotient_cone_min_sv",))
    verify_with_boundary(fresh)
    verify_with_boundary(fresh)
    assert cone == {"_quotient_cone_min_sv": 1}
    assert verify_with_boundary(fresh, 1e-8).passed
    assert cone == {"_quotient_cone_min_sv": 2}


@pytest.mark.parametrize("order", ["loose-first", "tight-first"])
def test_shared_complex_reports_match_fresh_copies(verdict_sweep, order):
    # a non-self-adjoint move of relative size 1e-7: the structure passes at
    # 1e-6 and fails at 1e-9; at 4e-7 it passes on exact spectral norms, where
    # 1e-6 passes on Frobenius bounds, so the residuals of the two differ
    base = generate_with_boundary(3, "n2")
    shared = verdict_sweep.perturbed_with_boundary(base, "b-n2/3", "nsa", 1e-7)
    tols = [1e-6, 4e-7, 1e-9]
    if order == "tight-first":
        tols.reverse()

    def reports(cwb, tol):
        out = [verify_with_boundary(cwb, tol), verify_cone_identities(cwb, tol)]
        for check in (decompose, boundary_signature_is_zero):
            try:
                out.append(check(cwb, tol))
            except HpsigError as exc:
                out.append((type(exc), str(exc)))
        return out

    got = {tol: reports(shared, tol) for tol in tols}
    want = {
        tol: reports(ComplexWithBoundary(shared.chain, shared.duality, shared.split), tol)
        for tol in tols
    }
    assert got[1e-6][0].passed and not got[1e-9][0].passed
    assert got[1e-6][2].residuals != got[4e-7][2].residuals
    # the reports are compared after every tolerance ran on the shared
    # complex, so a returned decomposition changed by a later call shows too
    for tol in tols:
        assert repr(got[tol]) == repr(want[tol])


def _dense_sequence_flags(cwb):
    """Whether the four-term sequence of coordinate maps composes to zero and
    is exact, on dense matrices: compositions gated as residuals, exactness
    from the ranks of three SVDs."""
    chain = cwb.chain
    idx0 = [list(cwb.sub_indices(m)) for m in range(chain.n + 1)]
    idx1 = [list(cwb.quotient_indices(m)) for m in range(chain.n + 1)]
    eyes = [np.eye(d) for d in chain.dims]
    imap = block_diag(*(e[:, idx0[m]] for m, e in enumerate(eyes)))
    jmap = block_diag(*(e[idx1[m], :] for m, e in enumerate(eyes)))
    d_e, d_0, d_1 = sum(chain.dims), sum(map(len, idx0)), sum(map(len, idx1))
    first = assemble_total((d_e, d_1), (d_0,), [(0, 0, imap)])
    second = block_diag(jmap, adjoint(jmap))
    third = assemble_total((d_0,), (d_1, d_e), [(0, 1, adjoint(imap))])
    composes = all(residual_within(r, 1e-9)[0] for r in (second @ first, third @ second))
    rank_first = int(np.linalg.matrix_rank(first)) if first.size else 0
    rank_second = int(np.linalg.matrix_rank(second)) if second.size else 0
    rank_third = int(np.linalg.matrix_rank(third)) if third.size else 0
    exact = (
        rank_first == d_0
        and (d_e + d_1) - rank_second == d_0
        and rank_second == 2 * d_1
        and (d_1 + d_e) - rank_third == rank_second
        and rank_third == d_0
    )
    return composes, exact


@pytest.mark.parametrize(
    "case",
    [f"{p}/{s}" for p in BOUNDARY_PROFILES for s in (0, 1)]
    + [f"disk{k}" for k in (1, 2, 3, 4)],
)
def test_every_split_gives_an_exact_four_term_sequence(case):
    # why verify_cone_identities does not check the sequence: a split that
    # ComplexWithBoundary accepts partitions every degree with its quotient
    if case.startswith("disk"):
        cwb = bordism_to_cwb(simplex_disk(int(case[4:])))
    else:
        profile, seed = case.split("/")
        cwb = generate_with_boundary(int(seed), profile)
    assert _dense_sequence_flags(cwb) == (True, True)


def _reference_cone_identities(cwb, tol=1e-9):
    """The attaching construction built degree by degree: the cone on
    ``E_m (+) (E_1)_{N+1-m}`` from the columns of ``duality.block`` and the
    hyperbolic complex of the quotient data from :func:`hyperbolic`, as
    ``(passed, hyperbolic_valid, failures, residuals)``."""
    blocks, chain, big_n = cwb._blocks, cwb.chain, cwb.chain.n
    dims0, dims1 = blocks.sub_dims, blocks.quotient_dims
    quotient = ChainComplex(dims1, tuple(blocks.b1[1:]))
    failures = []
    ext, ext1 = (*chain.dims, 0), (*dims1, 0)
    abnds = []
    for m in range(1, big_n + 2):
        q = big_n + 1 - m
        cols = list(cwb.quotient_indices(q))
        abnds.append(assemble_total(
            (ext[m - 1], ext1[q + 1]),
            (ext[m], ext1[q]),
            [(0, 0, chain.boundary(m)), (0, 1, cwb.duality.block(m - 1)[:, cols]),
             (1, 1, adjoint(quotient.boundary(q + 1)))],
        ))
    adims = tuple(ext[m] + ext1[big_n + 1 - m] for m in range(big_n + 2))
    attach = ChainComplex(adims, tuple(abnds)).total_boundary()
    ok, sq = residual_within(attach @ attach, tol, lambda norm: norm(attach) ** 2)
    if not ok:
        failures.append(bordism._CONE_IDENTITY_FAILURES["cone_square_residual"])
    chain_res = formula_res = float("nan")
    try:
        hyp = hyperbolic(quotient, blocks.s1, tol=tol)
    except (PreconditionViolated, ShapeMismatch) as exc:
        hyp = None
        failures.append(f"quotient data is not hyperbolic input: {exc}")
    if hyp is not None:
        top = big_n + 1
        half_dims = [d for m in range(top + 1) for d in (ext1[m], ext1[top - m])]
        ftot = assemble_total(
            dims0, half_dims,
            [(m - 1, 2 * m, blocks.h[m]) for m in range(1, top)]
            + [(m - 1, 2 * m + 1, blocks.f_upper[m - 1]) for m in range(1, top + 1)],
        )
        delta = hyp.total_boundary()
        b0, s2 = cwb._corners[0], cwb._corners[4]
        ok, chain_res = residual_within(
            ftot @ delta + 1j * b0 @ ftot, tol, lambda norm: norm(ftot) * max(norm(delta), 1.0)
        )
        if not ok:
            failures.append(bordism._CONE_IDENTITY_FAILURES["chain_map_residual"])
        s0 = assemble_total(
            dims0, dims0, [(k, big_n - 1 - k, r) for k, r in enumerate(cwb._restricted)]
        )
        formula = ftot @ hyp.total_duality() @ adjoint(ftot) + b0 @ s2 + s2 @ adjoint(b0)
        ok, formula_res = residual_within(
            s0 - formula, tol, lambda norm: max(norm(s0), norm(formula))
        )
        if not ok:
            failures.append(bordism._CONE_IDENTITY_FAILURES["boundary_formula_residual"])
    return not failures, hyp is not None, tuple(failures), (sq, chain_res, formula_res)


def _attaching_cases():
    for profile in BOUNDARY_PROFILES:
        for seed in range(12):
            yield f"b-{profile}/{seed}", generate_with_boundary(seed, profile)
    disk = simplex_disk(3)
    yield "b-disk3", bordism_to_cwb(disk)
    yield "b-sd-disk3", bordism_to_cwb(barycentric_subdivide(disk)[0])


def test_the_attaching_construction_matches_the_degree_by_degree_route(verdict_sweep):
    # the corner layout permutes the coordinates of the degree-by-degree
    # construction, so the verdicts are equal and the residuals equal up to rounding
    for name, base in _attaching_cases():
        for kind, eps in ((None, 0.0), ("sa", 1e-9), ("nsa", 1e-3)):
            cwb = base if kind is None else verdict_sweep.perturbed_with_boundary(
                base, name, kind, eps
            )
            passed, hyp_valid, failures, residuals = _reference_cone_identities(cwb)
            rep = verify_cone_identities(cwb)
            assert (rep.passed, rep.hyperbolic_valid, rep.failures) == (
                passed, hyp_valid, failures
            ), (name, kind)
            got = (rep.cone_square_residual, rep.chain_map_residual,
                   rep.boundary_formula_residual)
            for g, w in zip(got, residuals):
                assert np.isnan(g) == np.isnan(w), (name, kind)
                assert np.isnan(w) or abs(g - w) <= 1e-15, (name, kind, g, w)


def test_the_attaching_construction_lays_out_no_hyperbolic_complex(count_calls):
    cwb = generate_with_boundary(3, "n4-d6")
    assert verify_with_boundary(cwb).passed
    assert boundary_signature_is_zero(cwb).passed
    halves = count_calls(bordism, ("hyperbolic", "_hyperbolic_input", "_hyperbolic_layout"))
    built = count_calls(complexes.HilbertPoincareComplex, ("__post_init__",))
    chains = count_calls(ChainComplex, ("__post_init__",))
    blocks = count_calls(DualityOperator, ("block",))
    assert verify_cone_identities(cwb).passed
    assert halves == {"hyperbolic": 0, "_hyperbolic_input": 1, "_hyperbolic_layout": 0}
    assert built == {"__post_init__": 0}
    # the quotient complex is the one the quotient cone built
    assert chains == {"__post_init__": 0}
    assert blocks == {"block": 0}
