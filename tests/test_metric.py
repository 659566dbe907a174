"""Tests for the saturating gauge and the exact dyadic distance."""

from math import inf

import pytest

from sandlab.config import Configuration, Tail
from sandlab.errors import DomainError
from sandlab.heights import MINUS_INF, PLUS_INF, Infinity
from sandlab.metric import Distance, _class_minimum, _separating_gauge, distance
from sandlab.rng import Lcg64, sample_configuration

from naive_scan import beta, diff_vector, naive_class_minimum, naive_distance_exponent, naive_gauge

ZERO = Configuration.finite({})


def test_beta_saturates_up():
    assert beta(2, 0, 5) is PLUS_INF


def test_beta_saturates_down():
    assert beta(1, 4, 2) is MINUS_INF


def test_beta_zero_inside_window():
    assert beta(3, 3, 3) == 0
    assert beta(2, 0, -2) == -2
    assert beta(2, 0, 2) == 2


def test_beta_passes_infinities_through():
    assert beta(1, 0, PLUS_INF) is PLUS_INF
    assert beta(5, 100, MINUS_INF) is MINUS_INF


def test_diff_vector_all_zero():
    assert diff_vector(ZERO, 0, 2).entries == (0, 0, 0, 0)


def test_diff_vector_saturated_example():
    c = Configuration.finite({0: 4, 1: 2})
    assert diff_vector(c, 0, 1).entries == (MINUS_INF, MINUS_INF)


def test_diff_vector_infinite_centre_uses_reference_zero():
    c = Configuration.general(-1, (1, PLUS_INF, 2), Tail((0,), 0), Tail((0,), 0))
    dv = diff_vector(c, 0, 1)
    assert dv.reference == 0
    assert dv.entries == (1, PLUS_INF)


def test_diff_vector_gauge_zero_is_centre_value():
    c = Configuration.finite({3: 9})
    assert diff_vector(c, 3, 0).entries == (9,)


def test_distance_identity():
    c = Configuration.periodic((1, 2))
    assert distance(c, c.shift(2)) == Distance.zero()
    assert str(distance(c, c)) == "0"


def test_distance_centre_difference_is_one():
    x = ZERO
    y = Configuration.finite({0: 5})
    d = distance(x, y)
    assert d == Distance.dyadic(0)
    assert d.as_float() == 1.0


def test_distance_single_offset_grain_is_half():
    d = distance(ZERO, Configuration.finite({1: 1}))
    assert d == Distance.dyadic(1)
    assert str(d) == "2^-1"
    assert d.as_float() == 0.5


def test_distance_hidden_behind_saturation():
    # both vectors saturate at small gauges; the difference surfaces only
    # once the gauge exceeds the column height
    big = 10**9
    x = Configuration.finite({1: big})
    y = Configuration.finite({1: big + 1})
    assert distance(x, y) == Distance.dyadic(big)


def test_distance_far_column():
    x = Configuration.finite({7: 1})
    assert distance(ZERO, x) == Distance.dyadic(7)


def test_distance_ordering_and_float():
    assert Distance.zero() < Distance.dyadic(10) < Distance.dyadic(0)
    assert Distance.dyadic(2).as_float() == 0.25
    assert Distance.dyadic(10**6).as_float() == 0.0


def test_distances_do_not_order_against_other_types():
    d = Distance.dyadic(3)
    for other in (0.5, 0, None, "2^-3"):
        for compare in (lambda: d < other, lambda: d <= other, lambda: d > other,
                        lambda: d >= other, lambda: other < d, lambda: other > d):
            with pytest.raises(TypeError):
                compare()
    assert d != 0.125 and not d == 0.125


def test_dyadic_refuses_an_exponent_that_is_not_an_int():
    for bad in (True, False, 1.5, 2.0, "3", None):
        with pytest.raises(DomainError, match="distance exponent must be an int"):
            Distance.dyadic(bad)
    with pytest.raises(DomainError, match=">= 0"):
        Distance.dyadic(-1)
    assert str(Distance.dyadic(0)) == "2^-0" and str(Distance.dyadic(10**40)) == f"2^-{10**40}"


def _class_height(rng, m):
    if rng.below(6) == 0:
        return (PLUS_INF, MINUS_INF)[rng.below(2)]
    return m + rng.int_between(-9, 9)


def test_class_minimum_matches_a_column_by_column_scan():
    """The closed-form class minimum against a plain scan of the class's
    columns, for small heights around the reference, infinities, equal and
    unequal rises, and column caps unbounded, inside the first step, within
    the first few, far out and below the class's first column."""
    rng = Lcg64(2020)
    decided = inside = below = 0
    for k in range(6000):
        m = rng.int_between(-5, 5)
        a0, L = rng.below(40), 1 + rng.below(12)
        u0, v0 = _class_height(rng, m), _class_height(rng, m)
        if k % 7 == 0:
            v0 = u0
        su = rng.int_between(-3, 3)
        sv = su if k % 3 == 0 else rng.int_between(-3, 3)
        amax = a0 + (inf, rng.below(L), rng.below(4 * L), rng.below(10**4), -1 - rng.below(5))[k % 5]
        want = naive_class_minimum(a0, L, u0, su, v0, sv, m, amax)
        if want is None:
            continue
        got = _class_minimum(a0, L, u0, su, v0, sv, m, amax)
        assert got == want, (a0, L, u0, su, v0, sv, m, amax)
        decided += 1
        inside += a0 <= amax < a0 + L
        below += amax < a0
    assert decided > 5000 and inside > 1000 and below > 1000
    # no column in range: a finite class that separates from step 1 on
    assert _class_minimum(3, 5, 10, 0, 10, 1, 0, amax=2) == inf
    assert naive_class_minimum(3, 5, 10, 0, 10, 1, 0, amax=2) == inf


def test_class_minimum_matches_a_brute_force_scan_of_small_classes():
    """The closed form against the column scan (cap 400) on 20,000 small
    classes: first columns 0..6, periods 1..5, heights -6..6 with about 15%
    infinities, rises -3..3, references -6..6 and the column cap clipped in
    about 30% of draws. Here the minimum often lies just past a0 + 3L,
    where the early answer from steps 0..2 must not stop. Then 4,000 tall
    classes at reference 0 (scan cap 40): heights and rises are those small
    draws times up to 10^35, plus -6..6, so the finite heights cross 0
    within a few steps. Each draw also has a best candidate `bound`: below
    it the answer is the clipped minimum, at or above it any answer >= bound
    will do."""
    rng = Lcg64(1931)

    def height(scale, tall):
        if rng.below(20) < 3:
            return (PLUS_INF, MINUS_INF)[rng.below(2)]
        return rng.int_between(-6, 6) * scale + rng.int_between(-6, 6) * tall

    decided, cut, one_infinity = [0, 0], 0, 0
    for k in range(24000):
        tall = k >= 20000
        scale = 10 ** rng.below(36) if tall else 1
        a0, L, m = rng.below(7), 1 + rng.below(5), 0 if tall else rng.int_between(-6, 6)
        u0, v0 = height(scale, tall), height(scale, tall)
        su, sv = (rng.int_between(-3, 3) * scale + rng.int_between(-3, 3) * tall for _ in "uv")
        amax = a0 + rng.below(8 * L) if rng.below(10) < 3 else inf
        bound = a0 + rng.below(12 * L) if rng.below(4) else inf
        want = naive_class_minimum(a0, L, u0, su, v0, sv, m, amax, cap=40 if tall else 400)
        if want is None:
            continue
        args = (a0, L, u0, su, v0, sv, m, amax)
        assert _class_minimum(*args) == want, args
        got = _class_minimum(*args, bound)
        assert got == want if want < bound else got >= bound, (args, bound, got)
        decided[tall] += 1
        cut += want < inf and want >= bound
        one_infinity += isinstance(u0, Infinity) != isinstance(v0, Infinity)
    assert decided[0] > 19000 and decided[1] > 3000 and cut > 1200 and one_infinity > 5000


def test_a_level_class_just_inside_the_best_is_still_scored():
    """Pairs whose cores differ at one column raised well above column 0,
    so the core sets a best candidate of a few dozen columns at most, and
    whose right tails agree over their first period and then part in
    slope: each tail class starts level, and one whose next column, L
    further out, is still inside that best must be scored, as it can beat
    it there."""
    rng = Lcg64(4242)
    tail_won = 0
    for _ in range(400):
        word = lambda n: [rng.int_between(-3, 3) for _ in range(n)]
        core, left, right = word(2 + rng.below(7)), word(1 + rng.below(4)), word(1 + rng.below(5))
        start, slope = -rng.below(len(core)), rng.int_between(-2, 2)
        j = rng.below(len(core) - 1)
        j += j >= -start  # any core column but column 0
        core[j] += 3 + rng.below(20)
        x = Configuration.general(start, tuple(core), (left, 0), (right, slope))
        core[j] += 1
        y = Configuration.general(start, tuple(core), (left, 0), (right, slope + 1))
        d = distance(x, y)
        assert d.exponent == naive_distance_exponent(x, y, 80), (x, y)
        j += start  # the bumped column, whose candidate a tail class may beat
        core_best = max(abs(j), _separating_gauge(x.height(j), y.height(j), x.height(0)))
        tail_won += d.exponent < core_best
    assert tail_won > 250


def test_naive_gauge_is_the_least_gauge_whose_readings_differ():
    rng = Lcg64(2121)
    for _ in range(3000):
        m = rng.int_between(-5, 5)
        u, v = _class_height(rng, m), _class_height(rng, m)
        least = next((l for l in range(1, 30) if beta(l, m, u) != beta(l, m, v)), inf)
        assert naive_gauge(u, v, m) == least == _separating_gauge(u, v, m), (u, v, m)
    assert naive_gauge(10**30, 10**30 + 1, 0) == 10**30


def test_distance_agrees_with_naive_scan():
    rng = Lcg64(9)
    for k in range(1000):
        x = sample_configuration(rng, height=4, include_infinities=(k % 5 == 0))
        y = sample_configuration(rng, height=4, include_infinities=(k % 5 == 0))
        d = distance(x, y)
        nd = naive_distance_exponent(x, y, 300)
        if d.is_zero:
            assert nd is None
        elif nd is None:
            assert d.exponent > 300
        else:
            assert nd == d.exponent


def test_distance_symmetry_and_ultrametric():
    rng = Lcg64(10)
    for k in range(2000):
        x = sample_configuration(rng, height=3, include_infinities=(k % 7 == 0))
        y = sample_configuration(rng, height=3, include_infinities=(k % 7 == 0))
        z = sample_configuration(rng, height=3, include_infinities=(k % 7 == 0))
        dxy = distance(x, y)
        assert dxy == distance(y, x)
        assert (dxy == Distance.zero()) == (x == y)
        assert distance(x, z) <= max(dxy, distance(y, z))


def test_agreement_nesting():
    # if the distance is 2^-l, the two difference vectors at the origin
    # agree for every gauge below l
    rng = Lcg64(11)
    checked = 0
    for k in range(300):
        x = sample_configuration(rng, height=3, include_infinities=False)
        y = sample_configuration(rng, height=3, include_infinities=False)
        d = distance(x, y)
        if d.is_zero or d.exponent > 40:
            continue
        checked += 1
        for gauge in range(d.exponent):
            assert diff_vector(x, 0, gauge).entries == diff_vector(y, 0, gauge).entries
        assert (
            diff_vector(x, 0, d.exponent).entries
            != diff_vector(y, 0, d.exponent).entries
        )
    assert checked > 50


def test_distance_between_infinite_columns():
    x = Configuration.finite({2: PLUS_INF})
    y = Configuration.finite({2: MINUS_INF})
    d = distance(x, y)
    nd = naive_distance_exponent(x, y, 50)
    assert not d.is_zero
    assert d.exponent == nd == 2

    # one infinite column against a tall finite one
    z = Configuration.finite({2: 10})
    d2 = distance(x, z)
    assert d2.exponent == naive_distance_exponent(x, z, 100)
