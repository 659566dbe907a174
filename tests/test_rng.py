"""Tests for the deterministic generator behind the sampled corpora."""

import pytest

from sandlab.config import Configuration, equals, has_infinite_column
from sandlab.errors import DomainError
from sandlab.rng import INCREMENT, MASK, MULTIPLIER, Lcg64, sample_configuration


def test_documented_constants():
    assert MULTIPLIER == 6364136223846793005
    assert INCREMENT == 1442695040888963407
    assert MASK == 2**64 - 1


def test_first_outputs_match_recurrence():
    rng = Lcg64(1)
    state = 1
    for _ in range(5):
        state = (state * MULTIPLIER + INCREMENT) & MASK
        assert rng.next_u64() == state


def test_streams_are_reproducible():
    a = Lcg64(42)
    b = Lcg64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_below_and_int_between_ranges():
    rng = Lcg64(3)
    for _ in range(1000):
        assert 0 <= rng.below(7) < 7
        assert -4 <= rng.int_between(-4, 9) <= 9


def test_generator_refuses_bad_seeds_bounds_and_ranges():
    for seed in (1.5, True, "1", None):
        with pytest.raises(DomainError, match="seed must be an int"):
            Lcg64(seed)
    rng = Lcg64(3)
    for n in (0, -1):
        with pytest.raises(DomainError, match=f"bound must be >= 1, got {n}"):
            rng.below(n)
    for n in (1.5, True, None):
        with pytest.raises(DomainError, match="bound must be an int"):
            rng.below(n)
    with pytest.raises(DomainError, match="upper end must be >= 0, got -5"):
        rng.int_between(0, -5)
    for lo, hi, what in ((0.5, 3, "lower"), (0, 2.5, "upper"), (False, 3, "lower")):
        with pytest.raises(DomainError, match=f"{what} end must be an int"):
            rng.int_between(lo, hi)
    # a refusal draws nothing: the stream goes on as a fresh one starts
    assert rng.next_u64() == Lcg64(3).next_u64()
    assert rng.int_between(4, 4) == 4 and rng.below(1) == 0


def test_sampled_configurations_are_reproducible():
    a = Lcg64(11)
    b = Lcg64(11)
    for _ in range(50):
        assert equals(sample_configuration(a), sample_configuration(b))


def test_sampler_covers_all_classes():
    rng = Lcg64(5)
    kinds = set()
    for _ in range(80):
        c = sample_configuration(rng, height=3).canonicalize()
        zero = (0,)
        flat_left = c.left.values == zero and c.left.slope == 0
        flat_right = c.right.values == zero and c.right.slope == 0
        if flat_left and flat_right:
            kinds.add("finite")
        elif c.left.slope or c.right.slope:
            kinds.add("sloped")
        else:
            kinds.add("periodic")
    assert kinds == {"finite", "sloped", "periodic"}


def test_sampler_infinity_flag():
    rng = Lcg64(9)
    with_inf = any(
        has_infinite_column(sample_configuration(rng, include_infinities=True))
        for _ in range(60)
    )
    assert with_inf
    rng = Lcg64(9)
    without = any(
        has_infinite_column(sample_configuration(rng, include_infinities=False))
        for _ in range(60)
    )
    assert not without


def test_sample_height_must_be_a_non_negative_int():
    rng = Lcg64(5)
    for bad in (-1, -10**20):
        with pytest.raises(DomainError, match="height must be >= 0"):
            sample_configuration(rng, height=bad)
    for bad in (1.5, 2.0, True, "2", None):
        with pytest.raises(DomainError, match="height must be an int"):
            sample_configuration(rng, height=bad)
    for _ in range(40):
        c = sample_configuration(rng, height=0)  # core and right tail as drawn
        assert set(c.core + c.right.values) == {0}


def test_sampled_heights_respect_bound():
    rng = Lcg64(13)
    for _ in range(100):
        c = sample_configuration(rng, height=2, include_infinities=False)
        cc = c.canonicalize()
        for i in range(cc.core_start - 6, cc.core_end + 7):
            if abs(i) < 10**6:
                v = c.height(i)
                # tails may drift with the slope away from the window, so
                # only pin the core and nearby columns
                if cc.core_start - 4 <= i <= cc.core_end + 4:
                    assert isinstance(v, int)
