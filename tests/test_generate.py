"""The seeded generators: what one call builds and checks, and what it refuses."""

import pytest

from hpsig import GroupAction, complexes, generate
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
