"""Tests for the bundled automata and the explicit constructions.

Expected values here were computed by hand from the rule tables and
cross-checked against apply; the pre-image construction is additionally
verified on random inputs by applying the rule to its output.
"""

import pytest

from sandlab.automaton import apply
from sandlab.config import Configuration, Tail, equals
from sandlab.errors import CoreBoundExceeded, DomainError
from sandlab.heights import PLUS_INF
from sandlab.rng import Lcg64, sample_configuration
from sandlab import witnesses, zoo

ZERO = Configuration.finite({})


def test_zoo_names():
    assert sorted(zoo.ZOO) == ["L", "S", "Sr", "X", "Y"]
    with pytest.raises(DomainError):
        zoo.make("nope")


def test_sandpile_single_topple():
    S = zoo.make("S")
    c = Configuration.finite({0: 2})
    assert equals(apply(S, c), Configuration.finite({0: 1, 1: 1}))


def test_sandpile_grain_and_hole_collision():
    S = zoo.make("S")
    w = Configuration.finite({0: 1, 1: -1})
    assert equals(apply(S, w), ZERO)
    assert equals(apply(S, ZERO), ZERO)


def test_sandpile_three_grain_orbit():
    S = zoo.make("S")
    c = Configuration.finite({0: 3})
    step1 = apply(S, c)
    assert equals(step1, Configuration.finite({0: 2, 1: 1}))
    step2 = apply(S, step1)
    assert equals(step2, step1)


def test_sandpile_flattens_alternating_ridge():
    S = zoo.make("S")
    assert equals(apply(S, Configuration.periodic((1, -1))), ZERO)


def test_sandpile_mirror_inverts_single_step():
    S, Sr = zoo.make("S"), zoo.make("Sr")
    c = Configuration.finite({0: 2})
    assert equals(apply(S, apply(Sr, c)), c)
    # the mirror applied after is not the identity on the collision pair
    w = Configuration.finite({0: 1, 1: -1})
    assert not equals(apply(Sr, apply(S, w)), w)


def test_left_rule_moves_toward_left_neighbour():
    L = zoo.make("L")
    c = Configuration.finite({0: 5})
    img = apply(L, c)
    # column 0 towers over its left neighbour, so it sheds one grain;
    # column 1 sits below its left neighbour, so it gains one
    assert img.height(0) == 4
    assert img.height(1) == 1
    assert img.height(-1) == 0


def test_x_rule_fixed_point_and_collision():
    X = zoo.make("X")
    a = Configuration.periodic((0, 1))
    b = Configuration.periodic((0, 2))
    assert equals(apply(X, a), a)
    assert equals(apply(X, b), a)


def test_y_rule_affine_witnesses():
    Y = zoo.make("Y")
    a = Configuration.affine((0, 2), 1)
    b = Configuration.affine((0, 3), 1)
    assert equals(apply(Y, a), a)
    assert equals(apply(Y, b), a)
    assert not equals(a, b)


def test_L_preimage_of_two_level_step():
    step = Configuration.general(0, (), Tail((0,), 0), Tail((2,), 0))
    pre = zoo.build_L_preimage(step)
    want = Configuration.general(0, (), Tail((0,), 0), Tail((3, 1), 0))
    assert equals(pre, want)
    assert equals(apply(zoo.make("L"), pre), step)


def test_L_preimage_of_periodic_staircase():
    p = Configuration.periodic((0, 0, 1, 1))
    pre = zoo.build_L_preimage(p)
    assert equals(pre, Configuration.periodic((-1, 1, 2, 0)))
    assert equals(apply(zoo.make("L"), pre), p)


def test_L_preimage_of_flat_is_flat():
    assert equals(zoo.build_L_preimage(ZERO), ZERO)
    two = Configuration.periodic((3,))
    assert equals(zoo.build_L_preimage(two), two)


def test_L_preimage_random_round_trip():
    L = zoo.make("L")
    rng = Lcg64(7)
    for _ in range(250):
        c = sample_configuration(rng, height=4, include_infinities=False)
        pre = zoo.build_L_preimage(c)
        assert equals(apply(L, pre), c)


def test_L_preimage_rejects_infinite_columns():
    with pytest.raises(DomainError):
        zoo.build_L_preimage(Configuration.finite({0: PLUS_INF}))


def test_crown_lift_of_sandpile_pair():
    S = zoo.make("S")
    b = Configuration.finite({0: 1, 1: -1})
    d1, d2 = zoo.crown_lift(ZERO, b, S)
    assert equals(d1, ZERO)
    assert equals(d2, Configuration.periodic((1, -1, 0, 0, 0)))
    assert equals(apply(S, d1), apply(S, d2))
    assert not equals(d1, d2)


def test_crown_lift_preconditions():
    S = zoo.make("S")
    with pytest.raises(DomainError):
        zoo.crown_lift(ZERO, ZERO, S)  # not distinct
    with pytest.raises(DomainError):
        zoo.crown_lift(ZERO, Configuration.periodic((0, 1)), S)  # not finite
    with pytest.raises(DomainError):
        # images differ, so this is not a collision pair
        zoo.crown_lift(ZERO, Configuration.finite({0: 2}), S)


def test_splice_of_sandpile_witness():
    S = zoo.make("S")
    b = Configuration.finite({0: 1, 1: -1})
    k1, k2 = zoo.splice_match_indices(S, b, ZERO, 1)
    assert 0 <= k1 < k2 <= 7
    spliced = zoo.periodic_splice(S, b, ZERO, 1)
    assert equals(apply(S, spliced), ZERO)
    assert equals(spliced.shift(1), spliced)


def test_splice_on_wider_period():
    # splice a finite pre-image of a period-2 target into a periodic one
    S = zoo.make("S")
    target = ZERO
    pre = Configuration.finite({0: 1, 1: -1})
    spliced = zoo.periodic_splice(S, pre, target, 2)
    assert equals(apply(S, spliced), target)
    assert equals(spliced.shift(2), spliced)


def test_splice_preconditions():
    S = zoo.make("S")
    with pytest.raises(DomainError):
        zoo.periodic_splice(S, ZERO, Configuration.finite({0: 1}), 1)


def test_splice_refuses_periods_and_blocks_over_the_core_cap(monkeypatch):
    S = zoo.make("S")
    pre = Configuration.finite({1: 1, 2: -1})  # windows first repeat 4 apart
    assert zoo.splice_match_indices(S, pre, ZERO, 1) == (0, 4)
    monkeypatch.setenv("SANDLAB_MAX_CORE", "3")
    with pytest.raises(CoreBoundExceeded, match="block spans 4 columns"):
        zoo.periodic_splice(S, pre, ZERO, 1)
    with pytest.raises(CoreBoundExceeded, match="period spans 4 columns"):
        zoo.splice_match_indices(S, pre, ZERO, 4)
    monkeypatch.setenv("SANDLAB_MAX_CORE", "4")
    spliced = zoo.periodic_splice(S, pre, ZERO, 1)
    assert equals(apply(S, spliced), ZERO)
    assert equals(spliced, Configuration.periodic((0, 1, -1, 0)))


def test_zoo_is_exactly_the_bundled_rule_files():
    rules = [name for name, kind in witnesses.available().items() if kind == "rule"]
    assert sorted(name + ".rule" for name in zoo.ZOO) == rules
