"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints a single PASS/FAIL line on the live terminal (bypassing
pytest capture) so the printed list summarizes the whole suite. A PASS
line is printed only after every assertion in the criterion has held.
"""

import pytest

from sandlab.analysis import (
    BOUND_EXCEEDED,
    EXHAUSTED_NO_WITNESS,
    WITNESS_FOUND,
    check_injective_bounded,
    check_nilpotent_bounded,
    check_preimage_bounded,
    verify_right_inverse,
    verify_witness_pair,
)
from sandlab.automaton import apply, validate_rule, window_image
from sandlab.config import (
    Configuration,
    Tail,
    equals,
    has_infinite_column,
    sum_grains,
)
from sandlab.heights import MINUS_INF, PLUS_INF
from sandlab.metric import Distance, distance
from sandlab.rng import Lcg64, sample_configuration
from sandlab import zoo

from naive_scan import naive_distance_exponent

ZERO = Configuration.finite({})
ZOO_NAMES = ("S", "Sr", "L", "X", "Y")


@pytest.fixture
def announce(capsys):
    outcome = {"printed": False}

    def _print(number, ok, summary):
        with capsys.disabled():
            word = "PASS" if ok else "FAIL"
            print(f"ACCEPTANCE {number:2d} {word} - {summary}")
        outcome["printed"] = True

    return _print


def run_criterion(announce, number, summary, body):
    try:
        body()
    except BaseException:
        announce(number, False, summary)
        raise
    announce(number, True, summary)


def test_criterion_01_sandpile_right_inverse_suite(announce):
    def body():
        S, Sr = zoo.make("S"), zoo.make("Sr")
        r = verify_right_inverse(S, Sr, 500, 1)
        assert r.verdict == EXHAUSTED_NO_WITNESS
        r = verify_right_inverse(Sr, S, 500, 1)
        assert r.verdict == WITNESS_FOUND
        c = r.witness
        assert not equals(apply(Sr, apply(S, c)), c)
        r = check_injective_bounded(S, "F", 1, 1)
        assert r.verdict == WITNESS_FOUND
        w1, w2 = r.witness
        assert equals(w1, ZERO)
        assert equals(w2, Configuration.finite({0: 1, 1: -1}))
        assert verify_witness_pair(S, w1, w2)
        r = check_preimage_bounded(Sr, Configuration.finite({0: 2}), "F", 4, 6)
        assert r.verdict == EXHAUSTED_NO_WITNESS

    run_criterion(
        announce, 1,
        "sandpile rule: right inverse holds one way, collision pair and "
        "missing pre-image confirmed",
        body,
    )


def test_criterion_02_left_rule_preimages(announce):
    def body():
        L = zoo.make("L")
        rng = Lcg64(1)
        produced = 0
        while produced < 200:
            c = sample_configuration(rng, height=4, include_infinities=False)
            pre = zoo.build_L_preimage(c)
            assert equals(apply(L, pre), c)
            produced += 1
        r = check_preimage_bounded(L, Configuration.finite({0: 2}), "F", 3, 4)
        assert r.verdict == EXHAUSTED_NO_WITNESS

    run_criterion(
        announce, 2,
        "left-drift rule: explicit pre-image applies back on 200 samples; "
        "two-grain column has no small finite pre-image",
        body,
    )


def test_criterion_03_left_reading_collisions(announce):
    def body():
        X = zoo.make("X")
        a = Configuration.periodic((0, 1))
        b = Configuration.periodic((0, 2))
        assert equals(apply(X, a), a)
        assert equals(apply(X, b), a)
        r = check_injective_bounded(X, "F", 2, 3)
        assert r.verdict == EXHAUSTED_NO_WITNESS

    run_criterion(
        announce, 3,
        "radius-2 left-reading rule: periodic collision exact, no finite "
        "collision within the bounds",
        body,
    )


def test_criterion_04_sloped_collisions(announce):
    def body():
        Y = zoo.make("Y")
        a = Configuration.affine((0, 2), 1)
        b = Configuration.affine((0, 3), 1)
        assert equals(apply(Y, a), a)
        assert equals(apply(Y, b), a)
        r = check_injective_bounded(Y, "P", 3, 3)
        assert r.verdict == EXHAUSTED_NO_WITNESS
        r = check_injective_bounded(Y, "F", 2, 3)
        assert r.verdict == EXHAUSTED_NO_WITNESS

    run_criterion(
        announce, 4,
        "sloped-witness rule: both staircases map to the first; periodic "
        "and finite searches exhaust",
        body,
    )


def test_criterion_05_crown_lift(announce):
    def body():
        S = zoo.make("S")
        b = Configuration.finite({0: 1, 1: -1})
        d1, d2 = zoo.crown_lift(ZERO, b, S)
        assert equals(apply(S, d1), apply(S, d2))
        assert equals(d1, ZERO)
        assert d2.heights(-2, 2) == (0, 0, 1, -1, 0)
        assert equals(d2, Configuration.periodic((1, -1, 0, 0, 0)))
        assert equals(d2.shift(5), d2)
        assert len(d2.canonicalize().right.values) == 5

    run_criterion(
        announce, 5,
        "crown lift turns the finite collision pair into period-5 "
        "configurations with equal images",
        body,
    )


def test_criterion_06_periodic_splice(announce):
    def body():
        S = zoo.make("S")
        pre = Configuration.finite({0: 1, 1: -1})
        k1, k2 = zoo.splice_match_indices(S, pre, ZERO, 1)
        assert 0 <= k1 < k2 <= 2 * 1 * (2 * 1 + 1) + 1
        spliced = zoo.periodic_splice(S, pre, ZERO, 1)
        assert equals(spliced.shift(1), spliced)
        assert equals(apply(S, spliced), ZERO)

    run_criterion(
        announce, 6,
        "periodic splice of the finite pre-image matches windows within 7 "
        "period multiples and maps to flat",
        body,
    )


def test_criterion_07_metric_properties(announce):
    def body():
        assert distance(ZERO, Configuration.finite({1: 1})) == Distance.dyadic(1)
        rng = Lcg64(2)
        for k in range(10**4):
            x = sample_configuration(rng, height=3, include_infinities=(k % 6 == 0))
            y = sample_configuration(rng, height=3, include_infinities=(k % 6 == 0))
            z = sample_configuration(rng, height=3, include_infinities=(k % 6 == 0))
            dxy = distance(x, y)
            assert dxy == distance(y, x)
            assert dxy.is_zero == equals(x, y)
            assert distance(x, z) <= max(dxy, distance(y, z))
        rng = Lcg64(3)
        for _ in range(10**3):
            x = sample_configuration(rng, height=8, include_infinities=False)
            y = sample_configuration(rng, height=8, include_infinities=False)
            d = distance(x, y)
            nd = naive_distance_exponent(x, y, 400)
            if d.is_zero:
                assert nd is None
            elif nd is None:
                assert d.exponent > 400
            else:
                assert nd == d.exponent

    run_criterion(
        announce, 7,
        "distance is a symmetric ultrametric with exact dyadic values, "
        "agreeing with the naive scan",
        body,
    )


def test_criterion_08_semantics_invariants(announce):
    def body():
        for name in ZOO_NAMES:
            a = zoo.make(name)
            r = a.radius
            rng = Lcg64(4)
            for k in range(10**3):
                c = sample_configuration(rng, height=3, include_infinities=(k % 4 == 0))
                img = apply(a, c)
                cc = c.canonicalize()
                assert equals(apply(a, c.shift(2)), img.shift(2))
                assert equals(apply(a, c.raise_by(3)), img.raise_by(3))
                lo = cc.core_start - 2 * len(cc.left.values) - r - 2
                hi = cc.core_end + 2 * len(cc.right.values) + r + 2
                assert tuple(window_image(a, c.heights(lo - r, hi + r))) == img.heights(lo, hi)
                for i in range(lo, hi + 1):
                    hv = c.height(i)
                    iv = img.height(i)
                    if hv is PLUS_INF or hv is MINUS_INF:
                        assert iv is hv
                    else:
                        assert iv not in (PLUS_INF, MINUS_INF)
                        assert abs(iv - hv) <= r
                assert has_infinite_column(img) == has_infinite_column(c)

    run_criterion(
        announce, 8,
        "shift/vertical invariance, infinity conservation, bounded deltas, "
        "and window agreement on 1000 samples per rule",
        body,
    )


def test_criterion_09_grain_conservation(announce):
    def body():
        S = zoo.make("S")
        span = range(-3, 4)
        for a0 in span:
            for a1 in span:
                for a2 in span:
                    for a3 in span:
                        for a4 in span:
                            c = Configuration.finite(
                                {0: a0, 1: a1, 2: a2, 3: a3, 4: a4}
                            )
                            assert sum_grains(apply(S, c)) == a0 + a1 + a2 + a3 + a4
        rng = Lcg64(6)
        for _ in range(10**3):
            devs = {}
            for _ in range(rng.below(9)):
                devs[rng.int_between(-12, 12)] = rng.int_between(-10, 10)
            c = Configuration.finite(devs)
            assert sum_grains(apply(S, c)) == sum_grains(c)

    run_criterion(
        announce, 9,
        "grain count is conserved: all 16807 five-column piles plus 1000 "
        "random wider ones",
        body,
    )


def test_criterion_10_nilpotency_semi_decision(announce):
    def body():
        S = zoo.make("S")
        r = check_nilpotent_bounded(S, Configuration.finite({0: 3}), 100)
        assert r.verdict == BOUND_EXCEEDED
        identity = validate_rule(1, [], 0)
        r = check_nilpotent_bounded(identity, Configuration.finite({0: 1}), 50)
        assert r.verdict == BOUND_EXCEEDED
        for name in ZOO_NAMES:
            r = check_nilpotent_bounded(zoo.make(name), ZERO, 0)
            assert r.verdict == WITNESS_FOUND
            assert r.details["steps_to_zero"] == 0

    run_criterion(
        announce, 10,
        "bounded nilpotency: growing pile and identity rule exceed the "
        "bound, flat start resolves at step 0",
        body,
    )
