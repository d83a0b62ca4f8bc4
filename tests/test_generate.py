"""The seeded generators: what one call builds and checks, and what it refuses."""

import pytest

from hpsig import GroupAction, bordism, complexes, generate
from hpsig.errors import NotUnitary, PreconditionViolated
from hpsig.generate import generate_with_boundary, generate_with_signature


def test_the_generator_lays_out_and_checks_its_action_once(count_calls):
    actions = count_calls(GroupAction, ["__init__", "conjugated"])
    sums = count_calls(complexes, ["direct_sum"])
    twists = count_calls(generate, ["twist"])
    for profile in ("n4-z4-d4", "n2-z3-d3"):
        for counts in (actions, sums, twists):
            counts.update(dict.fromkeys(counts, 0))
        hp, _ = generate_with_signature(3, profile)
        assert actions == {"__init__": 1, "conjugated": 0}
        assert sums == {"direct_sum": 0}
        assert twists == {"twist": 2}
        assert hp.action is not None
    # without a group there is no action to build
    actions.update(dict.fromkeys(actions, 0))
    hp, _ = generate_with_signature(3, "n4-d4")
    assert hp.action is None
    assert actions == {"__init__": 0, "conjugated": 0}


@pytest.mark.parametrize("profile", ["n2-z3-d3", "n4-z4-d4", "n2-d4"])
def test_the_generator_refuses_a_change_of_basis_that_is_not_unitary(profile, monkeypatch):
    unitary = generate.random_unitary
    monkeypatch.setattr(generate, "random_unitary", lambda rng, d: 2.0 * unitary(rng, d))
    with pytest.raises(NotUnitary, match="^matrix at degree") as info:
        generate_with_signature(3, profile)
    assert info.traceback[-1].name == "twist"


def test_the_generators_refuse_a_negative_seed():
    for make in (generate_with_signature, generate_with_boundary):
        with pytest.raises(PreconditionViolated, match="^the seed must be non-negative, got -1$"):
            make(-1, "n2")
        make(0, "n2")


def test_the_generators_lay_out_hyperbolic_parts_without_the_gate_pass(count_calls):
    halves = count_calls(bordism, ("hyperbolic", "_hyperbolic_input"))
    generate_with_signature(3, "n4-z2-d4")
    generate_with_boundary(3, "n4-d6")
    assert halves == {"hyperbolic": 0, "_hyperbolic_input": 0}


# the closed profiles of the benchmark that have hyperbolic padding, and its
# boundary profiles
_HYPERBOLIC_PROFILES = ("n2-d4", "n4-d4", "n2-z2-d4", "n4-z2-d4", "n2-z3-d3", "n4-z3-d3",
                        "n2-z4-d4", "n4-z4-d4")
_BOUNDARY_PROFILES = ("n2", "n2-d6", "n2-d8", "n4", "n4-d6", "n4-d8")


def test_the_skipped_gates_only_compute_exact_zeros(monkeypatch):
    pieces = []
    layout = generate._hyperbolic_layout

    def recording(chain, s):
        pieces.append((chain, s, layout(chain, s)))
        return pieces[-1][2]

    monkeypatch.setattr(generate, "_hyperbolic_layout", recording)
    for seed in range(12):
        for profile in _HYPERBOLIC_PROFILES:
            generate_with_signature(seed, profile)
        for profile in _BOUNDARY_PROFILES:
            generate_with_boundary(seed, profile)
    assert len(pieces) == 202  # 130 closed pieces, and one per complex with boundary
    residuals = []
    gate = bordism.residual_within

    def spying(r, tol, scale=None):
        verdict = gate(r, tol, scale)
        residuals.append(verdict[1])
        return verdict

    monkeypatch.setattr(bordism, "residual_within", spying)
    for chain, s, laid_out in pieces:
        residuals.clear()
        bordism._hyperbolic_input(chain, s, 1e-9)
        assert residuals and all(r == 0.0 for r in residuals)
        checked = bordism.hyperbolic(chain, s)
        for got, want in (
            (checked.chain.boundaries, laid_out.chain.boundaries),
            (checked.duality.blocks, laid_out.duality.blocks),
        ):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
