"""Tests for rule validation and exact global-map application."""

import itertools
import random

import pytest

from sandlab.analysis import check_nilpotent_bounded
from sandlab.automaton import (
    MAX_RADIUS,
    NEG,
    POS,
    WILDCARD,
    SandAutomaton,
    apply,
    apply_window,
    image_height,
    iterate,
    same_local_rule,
    validate_rule,
    window_image,
)
from sandlab.config import Configuration, Tail, equals, has_infinite_column
from sandlab.errors import CoreBoundExceeded, DomainError, RuleError
from sandlab.heights import MINUS_INF, PLUS_INF
from sandlab.rng import Lcg64, sample_configuration
from sandlab import zoo

from naive_scan import DifferenceVector, diff_vector, local_delta, naive_image_heights

ZERO = Configuration.finite({})


def test_validate_rule_builds_automaton():
    a = validate_rule(1, [((PLUS_INF, WILDCARD), 1)], 0)
    assert isinstance(a, SandAutomaton)
    assert a.radius == 1
    assert len(a.rules) == 1


def test_validate_rule_rejects_bad_radius():
    with pytest.raises(RuleError):
        validate_rule(0, [], 0)
    with pytest.raises(RuleError) as info:
        validate_rule(MAX_RADIUS + 1, [], 0)
    assert info.value.part == "radius"


def test_validate_rule_rejects_wrong_arity():
    with pytest.raises(RuleError):
        validate_rule(2, [((PLUS_INF,), -1)], 0)


def test_validate_rule_rejects_out_of_range_atom():
    with pytest.raises(RuleError):
        validate_rule(1, [((2, WILDCARD), 0)], 0)


def test_validate_rule_rejects_out_of_range_delta():
    with pytest.raises(RuleError):
        validate_rule(1, [((0, 0), 2)], 0)
    with pytest.raises(RuleError):
        validate_rule(1, [], -2)


def test_validate_rule_rejects_booleans():
    with pytest.raises(RuleError):
        validate_rule(1, [((True, WILDCARD), 0)], 0)


def test_local_delta_first_match_wins():
    a = validate_rule(
        1, [((POS, WILDCARD), 1), ((1, WILDCARD), -1)], 0
    )
    assert local_delta(a, diff_vector(Configuration.finite({-1: 1}), 0, 1)) == 1


def test_local_delta_rejects_wrong_gauge():
    a = zoo.make("S")
    with pytest.raises(ValueError):
        local_delta(a, diff_vector(ZERO, 0, 2))


def test_pattern_markers():
    a = validate_rule(1, [((NEG, WILDCARD), -1), ((POS, WILDCARD), 1)], 0)
    down = Configuration.finite({-1: -3})
    up = Configuration.finite({-1: PLUS_INF})
    assert image_height(a, down, 0) == -1
    assert image_height(a, up, 0) == 1
    assert image_height(a, ZERO, 0) == 0


def test_infinite_columns_are_fixed():
    S = zoo.make("S")
    c = Configuration.finite({0: PLUS_INF, 1: MINUS_INF})
    img = apply(S, c)
    assert img.height(0) is PLUS_INF
    assert img.height(1) is MINUS_INF


def test_image_height_matches_apply():
    S = zoo.make("S")
    c = Configuration.finite({0: 3, 2: -2})
    img = apply(S, c)
    for i in range(-4, 6):
        assert image_height(S, c, i) == img.height(i)


def test_apply_window_matches_apply():
    for name in ("S", "Sr", "L", "X", "Y"):
        a = zoo.make(name)
        rng = Lcg64(hash(name) & 0xFFFF)
        for k in range(150):
            c = sample_configuration(rng, height=3, include_infinities=(k % 4 == 0))
            img = apply(a, c)
            cc = c.canonicalize()
            lo = cc.core_start - 2 * len(cc.left.values) - 3
            hi = cc.core_end + 2 * len(cc.right.values) + 3
            want = naive_image_heights(a, c, lo, hi)
            assert apply_window(a, c, lo, hi) == want
            assert img.heights(lo, hi) == want


def _random_table(rnd, r):
    atoms = [*range(-r, r + 1), PLUS_INF, MINUS_INF, WILDCARD, POS, NEG]
    lines = [
        (tuple(rnd.choice(atoms) for _ in range(2 * r)), rnd.randint(-r, r))
        for _ in range(rnd.randint(0, 8))
    ]
    return validate_rule(r, lines, rnd.randint(-r, r))


def test_lookup_matches_first_match_scan_at_every_reading():
    rnd = random.Random(20031)
    tables = [zoo.make(name) for name in ("S", "Sr", "L", "X", "Y")]
    tables += [_random_table(rnd, r) for r in (1, 1, 2, 2, 3)]
    for a in tables:
        r = a.radius
        readings = [MINUS_INF, *range(-r, r + 1), PLUS_INF]
        # a saturated reading comes from an infinite column or from a
        # finite one out of range
        offsets = [{v: v for v in readings} for _ in range(6)]
        for m in range(3, 6):
            offsets[m].update({MINUS_INF: -r - m + 2, PLUS_INF: r + m - 2})
        for k, entries in enumerate(itertools.product(readings, repeat=2 * r)):
            centre = k % 7 - 3
            offset = offsets[k % 6]
            hs = [centre + offset[v] for v in entries]
            hs.insert(r, centre)
            want = local_delta(a, DifferenceVector(entries, r, centre))
            assert window_image(a, hs) == [centre + want]


def test_same_local_rule_compares_the_function():
    L = zoo.make("L")
    spelt_out = validate_rule(
        1, [((MINUS_INF, WILDCARD), -1), ((NEG, WILDCARD), -1), ((POS, WILDCARD), 1)], 0
    )
    assert spelt_out != L
    assert same_local_rule(spelt_out, L)
    assert not same_local_rule(zoo.make("S"), L)
    assert not same_local_rule(validate_rule(2, [], 0), validate_rule(1, [], 0))


def test_shift_and_vertical_invariance():
    for name in ("S", "Sr", "L", "X", "Y"):
        a = zoo.make(name)
        rng = Lcg64(1 + (hash(name) & 0xFF))
        for k in range(100):
            c = sample_configuration(rng, height=3, include_infinities=(k % 4 == 0))
            img = apply(a, c)
            assert equals(apply(a, c.shift(3)), img.shift(3))
            assert equals(apply(a, c.raise_by(-2)), img.raise_by(-2))


def test_infiniteness_conserved():
    for name in ("S", "Sr", "L", "X", "Y"):
        a = zoo.make(name)
        rng = Lcg64(50 + (hash(name) & 0xFF))
        for k in range(100):
            c = sample_configuration(rng, height=3, include_infinities=True)
            img = apply(a, c)
            cc = c.canonicalize()
            for i in range(cc.core_start - 4, cc.core_end + 5):
                hv = c.height(i)
                if hv is PLUS_INF or hv is MINUS_INF:
                    assert img.height(i) is hv
                else:
                    assert img.height(i) not in (PLUS_INF, MINUS_INF)
            assert has_infinite_column(img) == has_infinite_column(c)


def test_deltas_bounded_by_radius():
    for name in ("S", "Sr", "L", "X", "Y"):
        a = zoo.make(name)
        rng = Lcg64(90 + (hash(name) & 0xFF))
        for k in range(100):
            c = sample_configuration(rng, height=3, include_infinities=(k % 3 == 0))
            img = apply(a, c)
            cc = c.canonicalize()
            for i in range(cc.core_start - 3, cc.core_end + 4):
                hv = c.height(i)
                if hv is PLUS_INF or hv is MINUS_INF:
                    continue
                assert abs(img.height(i) - hv) <= a.radius


def test_centre_column_depends_only_on_local_window():
    # two configurations that agree on [-2r, 2r] produce the same centre
    # column image
    for name in ("S", "X"):
        a = zoo.make(name)
        r = a.radius
        rng = Lcg64(7)
        for _ in range(100):
            x = sample_configuration(rng, height=2, include_infinities=False)
            patch = {i: x.height(i) for i in range(-2 * r, 2 * r + 1)}
            y = Configuration.finite(patch)
            assert image_height(a, x, 0) == image_height(a, y, 0)


def test_iterate_zero_steps_returns_input():
    S = zoo.make("S")
    c = Configuration.finite({0: 2})
    assert equals(iterate(S, c, 0), c)


def test_iterate_matches_repeated_apply():
    S = zoo.make("S")
    c = Configuration.finite({0: 5, 3: -2})
    manual = c
    for _ in range(6):
        manual = apply(S, manual)
    assert equals(iterate(S, c, 6), manual)


def test_iterate_rejects_negative_steps():
    with pytest.raises(DomainError):
        iterate(zoo.make("S"), ZERO, -1)


def test_iterate_core_bound():
    S = zoo.make("S")
    big = Configuration.finite({0: 100})
    with pytest.raises(CoreBoundExceeded):
        iterate(S, big, 60, max_core=5)
    with pytest.raises(DomainError):
        iterate(S, big, 1, max_core=-1)
    # generous cap: runs to the staircase fixed point
    final = iterate(S, big, 200, max_core=1000)
    assert equals(apply(S, final), final)


def test_core_bound_env_variable(monkeypatch):
    S = zoo.make("S")
    big = Configuration.finite({0: 100})
    monkeypatch.setenv("SANDLAB_MAX_CORE", "5")
    with pytest.raises(CoreBoundExceeded):
        iterate(S, big, 60)
    for bad in ("not-a-number", "-1"):
        monkeypatch.setenv("SANDLAB_MAX_CORE", bad)
        with pytest.raises(DomainError):
            iterate(S, big, 1)
        with pytest.raises(DomainError):
            check_nilpotent_bounded(S, big, 5)


def test_parameter_overrides_env(monkeypatch):
    S = zoo.make("S")
    big = Configuration.finite({0: 100})
    monkeypatch.setenv("SANDLAB_MAX_CORE", "5")
    final = iterate(S, big, 200, max_core=10**6)
    assert equals(apply(S, final), final)


def test_sandpile_on_tails():
    # the rule acts correctly inside periodic tails, not just on the core
    S = zoo.make("S")
    c = Configuration.periodic((1, -1))
    assert equals(apply(S, c), ZERO)
    d = Configuration.affine((0, 2), 1)
    img = apply(S, d)
    for i in range(-6, 7):
        assert img.height(i) == image_height(S, d, i)
