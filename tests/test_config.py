"""Tests for the bi-infinite configuration representation.

The representation stores an explicit core window plus one eventually
periodic (optionally sloped) tail per side, so equality and hashing rely
on canonicalization being a true normal form. These tests pin that down
with hand-computed sequences and randomized rebuild round-trips.
"""

import itertools
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

import sandlab
from sandlab import config, zoo
from sandlab.automaton import apply, window_image
from sandlab.config import (
    MAX_READ,
    ZERO_TAIL,
    Configuration,
    Tail,
    _reduce_tail,
    equals,
    first_difference,
    has_infinite_column,
    is_finite_class,
    sum_grains,
    support_radius,
)
from sandlab.errors import DomainError
from sandlab.formats import emit_config_file
from sandlab.heights import MINUS_INF, PLUS_INF, Infinity
from sandlab.rng import Lcg64, sample_configuration

from naive_scan import naive_canonical_form, naive_equals, naive_reduced_tail


def test_finite_constructor_heights():
    c = Configuration.finite({0: 4, 1: 2, -3: -1})
    assert c.height(0) == 4
    assert c.height(1) == 2
    assert c.height(-3) == -1
    assert c.height(2) == 0
    assert c.height(-4) == 0
    assert c.height(10**9) == 0


def test_all_zero():
    z = Configuration.finite({})
    assert z.heights(-5, 5) == (0,) * 11


def test_periodic_constructor_heights():
    c = Configuration.periodic((0, 0, 1, 1))
    want = {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, -1: 1, -2: 1, -3: 0, -4: 0}
    for i, v in want.items():
        assert c.height(i) == v


def test_affine_constructor_heights():
    # c_{i+2} = c_i + 1 with c_0 = 0, c_1 = 2
    c = Configuration.affine((0, 2), 1)
    assert [c.height(i) for i in range(-2, 6)] == [-1, 1, 0, 2, 1, 3, 2, 4]
    assert c.height(5) == 4
    assert c.height(101) == 52


def test_general_constructor_heights():
    c = Configuration.general(0, (), Tail((0,), 0), Tail((3, 1), 0))
    assert [c.height(i) for i in range(-2, 5)] == [0, 0, 3, 1, 3, 1, 3]


def test_infinite_columns():
    c = Configuration.finite({0: PLUS_INF, 2: MINUS_INF})
    assert c.height(0) is PLUS_INF
    assert c.height(2) is MINUS_INF
    assert has_infinite_column(c)
    assert not has_infinite_column(Configuration.periodic((1, 2)))


def test_booleans_rejected_as_heights():
    rejected = (
        lambda: Configuration.finite({0: True}),
        lambda: Configuration(0, (True,)),
        lambda: Configuration(0, (3, False)),
        lambda: Configuration.general(0, (1,), ((0, True), 0), ((0,), 0)),
        lambda: Tail((True,), 0),
        lambda: Configuration(0, (1.0,)),
        lambda: Tail((0, 2.5), 1),
    )
    for build in rejected:
        with pytest.raises(DomainError):
            build()


def test_only_the_two_infinities_are_heights():
    """A third Infinity instance is refused wherever a height is checked,
    so no configuration holds a column that `emit_config_file` cannot spell."""
    for third in (Infinity(1), Infinity(-1), Infinity(5)):
        message = rf"height must be an int, got Infinity\({third.sign}\)"
        rejected = (
            lambda: Configuration.finite({0: third}),
            lambda: Configuration(0, (1, third)),
            lambda: Configuration.general(0, (), ((0, third), 0), ((0,), 0)),
            lambda: Tail((third,)),
            lambda: Tail((0, third), 1),
        )
        for build in rejected:
            with pytest.raises(DomainError, match=message):
                build()
    c = Configuration.finite({0: PLUS_INF, 1: MINUS_INF})
    assert emit_config_file(c) == "sand-config v1\nkind: finite\nat 0 +inf\nat 1 -inf\n"
    assert Tail((PLUS_INF, MINUS_INF), 3).slope == 0


def test_general_refuses_tails_that_are_not_pairs():
    ok = ((0,), 0)
    for bad in (((1,),), 5, None, (5, 0), ((0,), 0, 1), [(0,)]):
        for left, right in ((bad, ok), (ok, bad)):
            with pytest.raises(DomainError) as caught:
                Configuration.general(0, (), left, right)
            assert str(caught.value) == (
                f"a tail must be a Tail or a (values, slope) pair: {bad!r}")
    # a pair is checked as Tail checks it
    with pytest.raises(DomainError, match="tail slope must be an int"):
        Configuration.general(0, (), ((0,), "1"), ok)
    c = Configuration.general(0, (), [(1, 2), 1], Tail((0,)))
    assert c.left == Tail((1, 2), 1) and c.right == Tail((0,))


def test_empty_period_rejected():
    with pytest.raises(DomainError):
        Tail((), 0)
    with pytest.raises(DomainError, match="period must be non-empty"):
        Configuration.affine(())


def test_shift():
    c = Configuration.finite({0: 5})
    s = c.shift(3)
    assert s.height(3) == 5
    assert s.height(0) == 0
    assert equals(s.shift(-3), c)


def test_raise_by():
    c = Configuration.periodic((0, 2))
    up = c.raise_by(4)
    assert up.height(0) == 4
    assert up.height(1) == 6
    assert equals(up.raise_by(-4), c)
    # infinities are unaffected
    inf = Configuration.finite({0: PLUS_INF}).raise_by(7)
    assert inf.height(0) is PLUS_INF


def test_equality_ignores_presentation():
    a = Configuration.periodic((0, 1))
    b = Configuration.general(0, (0, 1, 0, 1), Tail((1, 0), 0), Tail((0, 1), 0))
    assert equals(a, b)
    assert a == b
    assert hash(a) == hash(b)


def test_equality_shifted_period_phase():
    a = Configuration.periodic((0, 1))
    assert equals(a.shift(2), a)
    assert not equals(a.shift(1), a)


def test_affine_shift_equals_raise():
    # translating by one period changes every height by the slope
    c = Configuration.affine((0, 2), 1)
    assert equals(c.shift(2), c.raise_by(-1))
    assert equals(c.shift(-2), c.raise_by(1))
    assert not equals(c.shift(2), c)


def test_multiplied_period_is_equal():
    a = Configuration.periodic((2, 3))
    b = Configuration.periodic((2, 3, 2, 3, 2, 3))
    assert equals(a, b)
    assert a.canonicalize().right == b.canonicalize().right


def test_canonical_form_is_stable():
    c = Configuration.general(5, (0, 0, 0), Tail((0,), 0), Tail((0,), 0))
    cc = c.canonicalize()
    assert cc.core == ()
    assert cc.left == Tail((0,), 0)
    assert cc.right == Tail((0,), 0)
    assert cc.canonicalize() is cc


def _is_globally_affine(c):
    """x_{i+p} = x_i + s everywhere, p and s read off the right tail."""
    right = c.canonicalize().right
    return naive_equals(c.shift(-len(right.values)), c.raise_by(right.slope))


def _rebuild_corpus():
    """(c, rebuilds) for seeded samples c. Each rebuild is c's canonical
    form with its core window moved into either tail or emptied and its
    tail periods written out again; the first one is c spelt out wide,
    the others need not denote c."""
    rng = Lcg64(2024)
    samples = [
        sample_configuration(rng, height=3, include_infinities=(k % 3 == 0))
        for k in range(400)
    ]
    samples += [
        Configuration.affine((2, PLUS_INF, -1), 3),
        Configuration.affine((1, 0), -2).shift(5),
        Configuration.general(4, (), ((MINUS_INF, 1), 2), ((1, 3), 0)),
        Configuration.general(-3, (), ((0,), 0), ((0, PLUS_INF), -1)),
        Configuration.general(1, (5,), ((PLUS_INF, 2, 2), 1), ((2, 2), 0)),
        Configuration.general(0, (), ((0,), 0), ((0, 0, 1), 0)),
        Configuration.general(2, (), ((0,), 0), ((0, 1), 1)),
        Configuration.general(-1, (), ((PLUS_INF,), 0), ((PLUS_INF, 3), 2)),
    ]
    for k, c in enumerate(samples):
        cc = c.canonicalize()
        a, b = cc.core_start, cc.core_end
        p = max(len(cc.left.values), len(cc.right.values))
        rebuilds = [_spelt_out(cc, a - 2, b + 2, 2, 3)]
        for d in range(-2 * p, 2 * p + 1):
            copies = (1 + k % 2, 1 + (k + d) % 3)
            rebuilds.append(_spelt_out(cc, a + d, b + 2, *copies))
            rebuilds.append(_spelt_out(cc, a - 2, b + d, *copies))
            rebuilds.append(_spelt_out(cc, a + d, a + d - 1, *copies))
        yield c, rebuilds


def test_canonical_unique_across_rebuilds():
    """Every rebuild of a sequence, its core window moved into either tail
    or emptied and its tail periods written out again, that denotes the
    same sequence has the same canonical form."""
    moved = {True: 0, False: 0}
    for c, rebuilds in _rebuild_corpus():
        cc = c.canonicalize()
        assert equals(rebuilds[0], c)
        for w in rebuilds:
            if not naive_equals(w, c):
                continue
            if not w.core and w.core_start != cc.core_start:
                moved[_is_globally_affine(c)] += 1
            got = w.canonicalize()
            assert got.core_start == cc.core_start
            assert got.core == cc.core
            assert got.left == cc.left
            assert got.right == cc.right
    # empty-core rebuilds off the canonical anchor, with and without a
    # global period (the anchor slide)
    assert moved[True] > 100 and moved[False] > 10


def test_equals_on_canonical_copies_matches_scan():
    """equals decides by canonical keys when both sides carry a cached
    canonical form and by the aligned scan otherwise; over the rebuild
    corpus, equal and unequal pairs alike, both agree with the naive scan."""
    fresh = lambda c: Configuration(c.core_start, c.core, c.left, c.right)
    seen = {True: 0, False: 0}
    for c, rebuilds in _rebuild_corpus():
        for w in rebuilds:
            want = naive_equals(w, c)
            x, y = fresh(w), fresh(c)
            assert equals(x, y) is want
            x.canonicalize()
            assert equals(x, y) is want
            y.canonicalize()
            assert equals(x, y) is want and equals(y, x) is want
            seen[want] += 1
    assert seen[True] > 1000 and seen[False] > 1000


def _fields(c):
    return (c.core_start, c.core, c.left.values, c.left.slope, c.right.values, c.right.slope)


def _fresh(c):
    return Configuration(c.core_start, c.core, c.left, c.right)


def test_canonical_form_matches_column_by_column_reference_on_rebuilds():
    """Every rebuild, whether or not it denotes its sample, canonicalizes
    to the form the per-column reference builds."""
    checked = 0
    for c, rebuilds in _rebuild_corpus():
        for w in (c, *rebuilds):
            assert _fields(_fresh(w).canonicalize()) == _fields(naive_canonical_form(w)), w
            checked += 1
    assert checked > 5000


def test_trims_by_whole_periods_keep_level_tails_and_match_the_reference():
    """Cores padded on each side by 0, 1, p or p + 1 columns that continue
    a level or sloped primitive tail of period p, around kept cores whose
    edges no tail predicts, or around no core. `_canonicalize` gives the
    reference's fields. Around a kept core it returns the input tail object
    exactly when that tail is level and was trimmed by whole periods, and
    whatever the core, a tail object it keeps has slope 0."""
    words = [(0,), (2, PLUS_INF), (1, 0, 3), (MINUS_INF, 4, 4)]
    tails = [Tail(w, s) for w in words for s in (0, 2, -1)]
    kept = 0
    for left, right in itertools.product(tails, tails[::2]):
        pl, pr = len(left.values), len(right.values)
        for core in ((), (90,), (-70, PLUS_INF, 50)):
            for kl, kr in itertools.product((0, 1, pl, pl + 1), (0, 1, pr, pr + 1)):
                wide = left.window(0, kl)[::-1] + core + right.window(0, kr)
                c = Configuration(-kl, wide, _moved(left, kl), _moved(right, kr))
                got = config._canonicalize(c)
                assert _fields(got) == _fields(naive_canonical_form(c)), c
                for t, given, k, p in ((got.left, c.left, kl, pl), (got.right, c.right, kr, pr)):
                    if t is given:
                        assert given.slope == 0, c
                        kept += 1
                    if core:
                        assert (t is given) == (given.slope == 0 and k % p == 0), c
    assert kept > 100


def _moved(tail, k):
    """The tail whose boundary sits k columns further out: a fresh object
    even when k is a whole number of periods."""
    return Tail(tail.window(k, len(tail.values)), tail.slope)


def _seeded(rng, klass):
    """A configuration of one of the four classes, with some infinities."""

    def word():
        return tuple(
            (PLUS_INF, MINUS_INF)[rng.below(2)] if rng.below(6) == 0
            else rng.int_between(-3, 3)
            for _ in range(1 + rng.below(3))
        )

    if klass == "finite":
        return Configuration(rng.int_between(-3, 3), word())
    if klass == "periodic":
        return Configuration.periodic(word())
    if klass == "affine":
        return Configuration.affine(word(), rng.int_between(-2, 2))
    return Configuration(
        rng.int_between(-3, 3), word(),
        Tail(word(), rng.int_between(-2, 2)), Tail(word(), rng.int_between(-2, 2)),
    )


def _raw_image(rule, c):
    """One step's image before canonicalization: the core widened by r and
    tails of the old periods and slopes, read through `window_image`."""
    r, a, b = rule.radius, c.core_start, c.core_end
    pl, pr = len(c.left.values), len(c.right.values)
    image = lambda lo, hi: tuple(window_image(rule, c.heights(lo - r, hi + r)))
    return Configuration(
        a - r,
        image(a - r, b + r),
        Tail(image(a - r - pl, a - r - 1)[::-1], c.left.slope),
        Tail(image(b + r + 1, b + r + pr), c.right.slope),
    )


def test_canonical_form_matches_column_by_column_reference_on_orbits():
    """40-step orbits of every zoo rule from every class: each step's raw
    image (core widened by r, tails of the old periods and slopes) has the
    canonical form of the reference, and `apply` returns that form."""
    rng = Lcg64(4040)
    infinite = 0
    for name in sorted(zoo.ZOO):
        rule = zoo.make(name)
        for klass in ("finite", "periodic", "affine", "general"):
            c = _seeded(rng, klass)
            infinite += has_infinite_column(c)
            for _ in range(40):
                raw = _raw_image(rule, c)
                want = _fields(naive_canonical_form(raw))
                assert _fields(_fresh(raw).canonicalize()) == want
                c = apply(rule, c)
                assert _fields(c) == want
    assert infinite > 5


def test_apply_builds_hashable_self_canonical_images_on_orbits():
    """12-step orbits of every zoo rule from six seeded starts of each class
    and a few built ones. `apply` builds its image without the public
    checks, so each result must still hold tuples (and hash), keep each
    tail's slope as `Tail` finds it, be its own canonical form and match the
    column-by-column reference. The built all-infinite tails are given a
    slope and read slope 0. The counts show that the orbits reach empty
    cores on both anchor branches, image tails whose primitive period
    shrinks, and radius-2 rules."""
    rng = Lcg64(1919)
    built = [
        Configuration(0, (1, 2), Tail((PLUS_INF,), 3), Tail((MINUS_INF, PLUS_INF), -2)),
        Configuration(2, (), Tail((0, 0)), Tail((5, 5, 5), 0)),
        Configuration(-1, (3,), Tail((1, 2, 1, 2), 2), Tail((MINUS_INF,) * 2, -1)),
    ]
    infinite = [t for c in built for t in (c.left, c.right)
                if all(v in (PLUS_INF, MINUS_INF) for v in t.values)]
    assert [t.slope for t in infinite] == [0, 0, 0]
    seen = dict.fromkeys(["periodic anchor", "parting anchor", "shrunk period", "radius 2"], 0)
    for name in sorted(zoo.ZOO):
        rule = zoo.make(name)
        starts = [_seeded(rng, k) for k in ("finite", "periodic", "affine", "general") * 6]
        for c in starts + built:
            for _ in range(12):
                want = _fields(naive_canonical_form(_raw_image(rule, c)))
                d = apply(rule, c)
                assert _fields(d) == want
                assert all(type(vs) is tuple for vs in (d.core, d.left.values, d.right.values))
                assert hash(d) == hash(d.canonical_key())
                assert d._canon is d
                for t, before in ((d.left, c.left), (d.right, c.right)):
                    assert t.slope == Tail(t.values, t.slope).slope
                    seen["shrunk period"] += len(t.values) < len(before.values)
                seen["radius 2"] += rule.radius == 2
                if not d.core:
                    periodic = d.left == d.right.mirror()
                    seen["periodic anchor" if periodic else "parting anchor"] += 1
                c = d
    assert min(seen.values()) > 3, seen


def test_reducible_sloped_words_reduce_as_the_reference():
    """Period-6 words that are 2 or 3 copies of a sloped word, with
    infinite entries, near misses one entry off, and all-infinite words
    with a slope, as tails of cores of several shapes."""
    tails = []
    for word, slope in (
        ((1, PLUS_INF), 2), ((0, MINUS_INF, 4), -1), ((PLUS_INF, 3, MINUS_INF), 3),
        ((PLUS_INF, MINUS_INF), 5), ((2, 2), 0), ((5,), -4),
    ):
        copies = 6 // len(word)
        long = Tail(word, slope).window(0, 6)
        tails.append(Tail(long, slope * copies))
        for k in (0, 3, 5):
            bumped = list(long)
            bumped[k] = 7 if bumped[k] in (PLUS_INF, MINUS_INF) else PLUS_INF
            tails.append(Tail(bumped, slope * copies))
    tails.append(Tail((PLUS_INF,) * 6, 3))
    for t in tails:
        got, want = _reduce_tail(t), naive_reduced_tail(t)
        assert (got.values, got.slope) == (want.values, want.slope)
    # the six spelt-out words and the all-infinite one; no near miss
    assert sum(len(_reduce_tail(t).values) < 6 for t in tails) == 7
    for left in tails[::2]:
        for right in tails[1::2] + tails[:3]:
            for start, core in ((0, ()), (-2, (1, PLUS_INF, 1)), (3, (9,))):
                c = Configuration(start, core, left, right)
                assert _fields(c.canonicalize()) == _fields(naive_canonical_form(c))


def test_reduced_tails_at_highly_composite_lengths_match_the_reference():
    """Seeded words of length 720 and 5,040 spelt out from a base word of a
    divisor length, level and sloped, with infinite entries, some of them
    one entry off the pattern."""
    pool = (-1, 0, 2, PLUS_INF, MINUS_INF)
    rng = Lcg64(2004)
    for p in (720, 5040):
        divisors = [d for d in range(1, p + 1) if p % d == 0]
        for _ in range(16):
            q = divisors[rng.below(len(divisors))]
            word = tuple(pool[rng.below(len(pool))] for _ in range(q))
            rise = rng.below(5) - 2
            values = list(Tail(word, rise).window(0, p))
            if rng.below(3) == 0:
                k = rng.below(p)
                values[k] = 7 if values[k] in (PLUS_INF, MINUS_INF) else PLUS_INF
            t = Tail(values, rise * (p // q))
            got, want = _reduce_tail(t), naive_reduced_tail(t)
            assert (got.values, got.slope) == (want.values, want.slope)


def test_reduced_tail_of_a_long_word_takes_period_time():
    """A random level word of length 720,720, which has 240 divisors, is
    reduced by stripping prime factors, not by trying every divisor."""
    rng = Lcg64(7)
    t = Tail(tuple(rng.below(3) for _ in range(720720)))
    start = time.perf_counter()
    assert _reduce_tail(t) is t
    assert time.perf_counter() - start < 0.5


def _primitive_words():
    """Seeded primitive words of length 2-64 over small alphabets of
    negatives, positives and infinities, plus words on which a least-rotation
    scan has to restart after a long partial match."""
    words = [
        (0, 0, 1, 0, 0, 1, 0, 0, 2), (0, 0, 1, 0, 0, 1, 0, 0, 0),
        (1, 0, 1, 1, 0, 1, 0), (0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0),
        (2, 2, 1, 2, 2, 1, 2, 2, 1, 2), (MINUS_INF, 0, MINUS_INF, 0, MINUS_INF, -1),
        (PLUS_INF, -3, PLUS_INF, -3, PLUS_INF, -3, PLUS_INF),
    ]
    pool = (-2, -1, 0, 1, 3, PLUS_INF, MINUS_INF)
    rng = Lcg64(1980)
    while len(words) < 400:
        alphabet = [pool[rng.below(len(pool))] for _ in range(1 + rng.below(4))]
        word = tuple(alphabet[rng.below(len(alphabet))] for _ in range(2 + rng.below(63)))
        if len(naive_reduced_tail(Tail(word)).values) == len(word):
            words.append(word)
    return words


def test_periodic_anchor_is_the_least_rotation_of_the_reference():
    """A globally periodic sequence is anchored at its least period window,
    as the reference's min over all rotations anchors it, however far it
    was shifted."""
    for word in _primitive_words():
        for k in (0, len(word) - 1, -10**15 - 7):
            c = Configuration.periodic(word).shift(k)
            assert _fields(c.canonicalize()) == _fields(naive_canonical_form(c)), c


def test_empty_core_anchor_matches_the_reference():
    """Every pair of small level and sloped tails around an empty core, so
    that the two sides agree for as long as two periods allow before they
    part, or agree everywhere."""
    checked = 0
    for alphabet, longest, slopes in (((0, 1), 5, (0, 1)), ((0, 1, MINUS_INF), 3, (0, -1))):
        words = [w for p in range(1, longest + 1) for w in itertools.product(alphabet, repeat=p)]
        for left in words:
            for right in words:
                for sl, sr in itertools.product(slopes, repeat=2):
                    c = Configuration(3, (), Tail(left, sl), Tail(right, sr))
                    assert _fields(c.canonicalize()) == _fields(naive_canonical_form(c)), c
                    checked += 1
    assert checked > 20000


def test_a_long_primitive_period_canonicalizes_at_once():
    # (0 0 1) repeated, then one 0: the least rotation starts at that last
    # 0, the one place where three 0s meet
    word = (0, 0, 1) * 33330 + (0,)
    start = time.perf_counter()
    canon = Configuration.periodic(word).canonicalize()
    assert time.perf_counter() - start < 1
    assert canon.core_start == 99990 and canon.right.values == (0,) + word[:-1]
    rng = Lcg64(99991)
    word = tuple(rng.int_between(-3, 3) for _ in range(99991))
    start = time.perf_counter()
    Configuration.periodic(word).shift(10**12).canonicalize()
    assert time.perf_counter() - start < 1


def test_canonicalizing_an_apply_image_reads_no_single_column(monkeypatch):
    """The edge trims and the tail reduction read whole windows: building
    and canonicalizing an image whose canonical core is not empty makes no
    `Tail.at` call."""
    calls = 0
    at = Tail.at

    def counted(self, j):
        nonlocal calls
        calls += 1
        return at(self, j)

    rng = Lcg64(606)
    samples = [sample_configuration(rng, height=3, include_infinities=k % 2 == 0)
               for k in range(200)]
    monkeypatch.setattr(Tail, "at", counted)
    cores = 0
    for k, c in enumerate(samples):
        rule = zoo.make(sorted(zoo.ZOO)[k % 5])
        before = calls
        image = apply(rule, c)
        if image.core:
            cores += 1
            assert calls == before, (rule, c)
    assert cores > 50


def test_tails_with_no_finite_entry_read_slope_0():
    assert Tail.__slots__ == ("values", "slope")
    # a finite entry keeps the slope, and it tells tails apart
    t = Tail((2, PLUS_INF), 3)
    assert t.slope == 3 and repr(t) == "Tail(values=(2, PLUS_INF), slope=3)"
    assert t != Tail((2, PLUS_INF), 0) and hash(t) != hash(Tail((2, PLUS_INF), 0))
    # no finite entry: every slope reads 0, so the tails are one progression
    for values in ((PLUS_INF,), (PLUS_INF, MINUS_INF)):
        steep, level = Tail(values, 5), Tail(values, 0)
        assert steep.slope == 0 and steep == level and hash(steep) == hash(level)
        assert repr(steep) == f"Tail(values={values!r}, slope=0)"
        assert steep.mirror().slope == steep.rebased(1).slope == 0
        assert steep.window(0, 3) == level.window(0, 3)


def test_constructors_store_tuples():
    x = Configuration(0, [3, 4])
    assert x.core == (3, 4) and type(x.core) is tuple
    assert equals(x, Configuration(0, (3, 4)))
    assert hash(x) == hash(Configuration(0, (3, 4)))
    assert x == Configuration.finite({0: 3, 1: 4})
    t = Tail([1, PLUS_INF], 2)
    assert type(t.values) is tuple and t == Tail((1, PLUS_INF), 2)
    assert hash(t) == hash(Tail((1, PLUS_INF), 2))
    y = Configuration(-1, [0, 5], Tail([0]), t)
    assert y == Configuration(-1, (0, 5), ZERO_TAIL, Tail((1, PLUS_INF), 2))
    core = (1, 2)
    assert Configuration(0, core).core is core


@pytest.mark.parametrize("start", [1.0, "0", True, None, (0,)])
def test_constructor_refuses_a_core_start_that_is_not_an_int(start):
    with pytest.raises(DomainError, match="core start"):
        Configuration(start, (1,))


@pytest.mark.parametrize("column", [1.5, "a", True, None])
def test_finite_refuses_a_column_that_is_not_an_int(column):
    for height in (1, 0):
        with pytest.raises(DomainError, match="column must be an int"):
            Configuration.finite({0: 2, column: height})


@pytest.mark.parametrize("column", [0.5, True, "1", None])
def test_height_reads_refuse_a_column_that_is_not_an_int(column):
    c = Configuration.finite({0: 2, 1: 3})
    for read in (lambda: c.height(column), lambda: c.heights(column, 3),
                 lambda: c.heights(0, column)):
        with pytest.raises(DomainError, match="column must be an int"):
            read()


@pytest.mark.parametrize("k", [True, False, 1.5, "1", None])
def test_shift_and_raise_refuse_an_offset_that_is_not_an_int(k):
    c = Configuration(0, (2, PLUS_INF), Tail((1,), 1))
    for move in (c.shift, c.raise_by):
        with pytest.raises(DomainError, match="offset must be an int"):
            move(k)


@pytest.mark.parametrize("left, right", [
    ((1, 0), (1, 0)), (ZERO_TAIL, [0]), (None, ZERO_TAIL), (ZERO_TAIL, ((0,), 0)),
])
def test_constructor_refuses_tails_that_are_not_tails(left, right):
    with pytest.raises(DomainError, match="Tail"):
        Configuration(0, (1,), left, right)


def test_heights_match_per_column_reads():
    """The sliced read of a window equals one height read per column, on
    windows left of the core, right of it, across it, inside it and empty."""
    rng = Lcg64(31337)
    empty_cores = 0
    for k in range(400):
        c = sample_configuration(rng, height=3, include_infinities=(k % 2 == 0))
        c = c.shift(rng.int_between(-9, 9))
        if k % 4 == 0:
            c = c.canonicalize()
        a, b = c.core_start, c.core_end
        empty_cores += not c.core
        p = max(len(c.left.values), len(c.right.values))
        windows = [
            (a - 3 * p - 4, a - 1), (a - 7, a - 3),
            (b + 1, b + 3 * p + 4), (b + 2, b + 9),
            (a - 5, b + 5), (a + 1, b - 1), (a, b),
            (a + 3, a), (b, b - 1), (a, a - 1),
        ]
        for _ in range(4):
            lo = rng.int_between(a - 12, b + 12)
            windows.append((lo, lo + rng.int_between(-2, 15)))
        for lo, hi in windows:
            assert c.heights(lo, hi) == tuple(c.height(i) for i in range(lo, hi + 1))
    assert empty_cores > 50

    # level tails (slope 0, or no finite entry) are read as period copies:
    # windows spanning several periods, starting at every phase
    level = [
        Tail((0,)), Tail((3, -1, 2)), Tail((PLUS_INF, 1), 0),
        Tail((MINUS_INF, PLUS_INF, MINUS_INF), 2), Tail((5, MINUS_INF, 0, 7), 0),
    ]
    for left in level:
        for right in level:
            c = Configuration.general(-2, (4, MINUS_INF, 1), left, right)
            a, b = c.core_start, c.core_end
            for lo in range(a - 15, a + 1):
                for hi in (lo - 1, a - 1, a + 1, b, b + 1, b + 9, b + 14):
                    want = tuple(c.height(i) for i in range(lo, hi + 1))
                    assert c.heights(lo, hi) == want
            for lo in range(b + 1, b + 6):
                assert c.heights(lo, lo + 13) == tuple(
                    c.height(i) for i in range(lo, lo + 14)
                )


def test_tail_rebased_and_mirror_laws():
    rng = Lcg64(77)
    for k in range(300):
        p = 1 + rng.below(4)
        values = tuple(
            (PLUS_INF, MINUS_INF)[rng.below(2)] if rng.below(5) == 0
            else rng.int_between(-3, 3)
            for _ in range(p)
        )
        t = Tail(values, rng.int_between(-3, 3))
        shift = rng.int_between(-9, 9)
        moved = t.rebased(shift)
        whole = Configuration(0, (), t.mirror(), t)
        for j in range(-3 * p - 2, 3 * p + 2):
            assert moved.at(j) == t.at(j + shift)
            assert whole.height(j) == t.at(j)


def test_first_difference_none_when_equal():
    a = Configuration.periodic((1, 2, 3))
    assert first_difference(a, a.shift(3)) is None


def test_first_difference_reports_a_real_difference():
    rng = Lcg64(99)
    for k in range(200):
        x = sample_configuration(rng, height=3, include_infinities=(k % 4 == 0))
        y = sample_configuration(rng, height=3, include_infinities=(k % 4 == 0))
        j = first_difference(x, y)
        if j is None:
            assert equals(x, y)
        else:
            assert x.height(j) != y.height(j)


def _spelt_out(c, lo, hi, left_copies, right_copies):
    """c rebuilt with core lo..hi and each tail period written out
    `left_copies` / `right_copies` times."""
    lp, rp = len(c.left.values) * left_copies, len(c.right.values) * right_copies
    left_step = c.left.slope * left_copies
    right_step = c.right.slope * right_copies
    return Configuration.general(
        lo,
        c.heights(lo, hi),
        Tail(tuple(c.height(lo - 1 - j) for j in range(lp)), left_step),
        Tail(tuple(c.height(hi + 1 + j) for j in range(rp)), right_step),
    )


def _equality_pairs():
    rng = Lcg64(4242)
    for k in range(300):
        infs = k % 3 == 0
        x = sample_configuration(rng, height=2, include_infinities=infs)
        yield x, sample_configuration(rng, height=2, include_infinities=infs)
        lo, hi = min(x.core_start, 0) - 2, max(x.core_end, 0) + 2
        wide = _spelt_out(x, lo, hi, 2, 3)
        yield x, wide
        # the same with one column or one tail step changed
        core = list(wide.core)
        col = rng.below(len(core))
        core[col] = 0 if core[col] != 0 else 1
        yield x, Configuration(lo, tuple(core), wide.left, wide.right)
        steeper = Tail(wide.right.values, wide.right.slope + 1)
        yield x, Configuration(lo, wide.core, wide.left, steeper)
        steeper = Tail(wide.left.values, wide.left.slope - 1)
        yield Configuration(lo, wide.core, steeper, wide.right), x
    for values, slope in (
        ((3, -1, 4), 2),
        ((0, PLUS_INF), -3),
        ((5,), 7),
        ((1, 2, 1, 2), 0),
    ):
        c = Configuration.affine(values, slope)
        p = len(values)
        yield c.shift(p).raise_by(slope), c
        yield c.shift(-2 * p).raise_by(-2 * slope), c
        yield c.shift(1), c
        yield Configuration.affine(values * 3, 3 * slope), c
        yield _spelt_out(c, -4, 5, 1, 1), c
        yield _spelt_out(c, -4, 5, 1, 1).raise_by(1), c


def test_equals_and_first_difference_match_naive_scan():
    for x, y in _equality_pairs():
        same = naive_equals(x, y)
        assert equals(x, y) is same
        assert equals(y, x) is same
        col = first_difference(x, y)
        if same:
            assert col is None
        else:
            assert col is not None and x.height(col) != y.height(col)


def test_equals_reads_only_around_the_cores(monkeypatch):
    far = 10**7
    x = Configuration.finite({far: 1, far + 1: 2})
    calls = 0
    height = Configuration.height

    def counted(self, i):
        nonlocal calls
        calls += 1
        assert calls < 100, "equals scans far beyond the cores"
        return height(self, i)

    monkeypatch.setattr(Configuration, "height", counted)
    assert equals(x, Configuration.finite({far: 1, far + 1: 2}))
    assert not equals(x, Configuration.finite({far: 1, far + 2: 2}))
    assert not equals(x.shift(3), x)


def test_first_difference_finds_a_slope_only_mismatch():
    # equal on every column of the aligned lcm windows, apart further out
    x = Configuration(1, (), Tail((0,), 0), Tail((5,), 1))
    y = Configuration(1, (), Tail((0,), 0), Tail((5, 6), 3))
    assert x.heights(-3, 2) == y.heights(-3, 2)
    assert first_difference(x, y) == 3
    assert x.height(3) != y.height(3)
    assert not equals(x, y)


def test_sum_grains():
    assert sum_grains(Configuration.finite({0: 3, 4: -1})) == 2
    assert sum_grains(Configuration.finite({})) == 0
    with pytest.raises(DomainError):
        sum_grains(Configuration.periodic((0, 1)))
    with pytest.raises(DomainError):
        sum_grains(Configuration.finite({0: PLUS_INF}))


def test_is_finite_class():
    assert is_finite_class(Configuration.finite({3: 9}))
    assert is_finite_class(Configuration.general(0, (5,), Tail((0,), 0), Tail((0,), 0)))
    assert not is_finite_class(Configuration.periodic((0, 1)))
    assert not is_finite_class(Configuration.affine((0,), 1))


def test_support_radius():
    assert support_radius(Configuration.finite({})) == 0
    assert support_radius(Configuration.finite({0: 1})) == 0
    assert support_radius(Configuration.finite({-4: 1, 2: 5})) == 4
    # cores padded with zero columns, infinite columns, cores off column 0
    assert support_radius(Configuration(-9, (0, 0, 3, 0, PLUS_INF, 0))) == 7
    assert support_radius(Configuration(4, (0, MINUS_INF, 0, 0, 2, 0))) == 8
    assert support_radius(Configuration(5, (0, 0))) == 0
    with pytest.raises(DomainError, match="support_radius needs a finite-class configuration"):
        support_radius(Configuration.periodic((0, 1)))


def test_heights_window():
    c = Configuration.finite({1: 7})
    assert c.heights(0, 2) == (0, 7, 0)
    assert c.heights(2, 1) == ()


def test_repr_round_trip_worthy():
    # repr is for debugging only, but should not raise for any class
    for c in (
        Configuration.finite({0: 1}),
        Configuration.periodic((1, -1)),
        Configuration.affine((0, 2), 1),
        Configuration.general(-1, (PLUS_INF,), Tail((0,), 0), Tail((1,), 2)),
    ):
        assert "config" in repr(c)


def test_finite_refuses_a_span_over_the_core_cap_before_building_it():
    # a child process under a 1 GB address-space limit: a core of 2 * 10**30
    # columns must be refused, not built
    code = (
        "from sandlab.config import Configuration\n"
        "from sandlab.errors import CoreBoundExceeded\n"
        "try:\n"
        "    Configuration.finite({-10**30: 2, 10**30: 1})\n"
        "except CoreBoundExceeded as e:\n"
        "    print(e)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sandlab.__file__)))
    env.pop("SANDLAB_MAX_CORE", None)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=5, preexec_fn=limit,
    )
    assert (done.returncode, done.stderr) == (0, "")
    span = 2 * 10**30 + 1
    assert done.stdout == f"finite core spans {span} columns (cap 65536)\n"


def test_heights_refuses_a_read_over_the_limit_before_building_it():
    """Spans of 10^9 and 10^40 columns are refused with no tuple built (an
    OverflowError before), and the widest read allowed still reads."""
    c = Configuration(0, (1, 2), Tail((1, 2), 1), Tail((3,), 0))
    tracemalloc.start()
    try:
        for hi in (10**9, 10**40):
            with pytest.raises(DomainError,
                               match=f"read width {hi + 1} is over the limit of {MAX_READ}$"):
                c.heights(0, hi)
            with pytest.raises(DomainError, match="read width"):
                c.heights(-hi, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    assert len(c.heights(1, MAX_READ)) == MAX_READ
    assert c.heights(5, -10**40) == ()
