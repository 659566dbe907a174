"""Tests for the extended height values (integers plus two infinities)."""

import pytest

from sandlab.heights import MINUS_INF, PLUS_INF


def test_infinities_are_singletons():
    assert PLUS_INF is not MINUS_INF
    assert PLUS_INF == PLUS_INF
    assert PLUS_INF != MINUS_INF
    assert PLUS_INF != 0
    assert MINUS_INF != -10**18


def test_ordering_against_integers():
    assert MINUS_INF < -10**30 < 0 < 10**30 < PLUS_INF
    assert PLUS_INF > 5
    assert not (PLUS_INF < 5)
    assert MINUS_INF <= MINUS_INF
    assert PLUS_INF >= PLUS_INF
    assert not (PLUS_INF < PLUS_INF)


def test_arithmetic_absorbs_integers():
    assert PLUS_INF + 7 is PLUS_INF
    assert 7 + MINUS_INF is MINUS_INF
    assert PLUS_INF - 3 is PLUS_INF
    assert -PLUS_INF is MINUS_INF
    assert -MINUS_INF is PLUS_INF


def test_opposite_infinities_do_not_add():
    with pytest.raises(ArithmeticError):
        PLUS_INF + MINUS_INF


def test_sort_key_orders_all_values():
    values = [PLUS_INF, 3, MINUS_INF, -1, 0]
    ordered = sorted(values)
    assert ordered == [MINUS_INF, -1, 0, 3, PLUS_INF]


def test_hashable():
    d = {PLUS_INF: "up", MINUS_INF: "down", 0: "flat"}
    assert d[PLUS_INF] == "up"
    assert len({PLUS_INF, PLUS_INF, MINUS_INF}) == 2
