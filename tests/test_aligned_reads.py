"""Aligned comparisons read in bounded blocks: `Tail.window`, `equals`,
`first_difference` and `distance` against the slow references in
`naive_scan`, plus the work they may do and the memory they may take."""

import os
import resource
import subprocess
import sys
import time

import sandlab
from sandlab import metric
from sandlab.config import BLOCK, Configuration, Tail, equals, first_difference
from sandlab.heights import MINUS_INF, PLUS_INF
from sandlab.metric import distance
from sandlab.rng import Lcg64, sample_configuration

from naive_scan import (
    naive_equals,
    naive_first_difference,
    naive_window,
    whole_window_distance,
)


def _value(rng, height=3, infinities=True):
    if infinities and rng.below(8) == 0:
        return (PLUS_INF, MINUS_INF)[rng.below(2)]
    return rng.int_between(-height, height)


def _word(rng, p, infinities=True):
    return tuple(_value(rng, 3, infinities) for _ in range(p))


def test_tail_window_matches_per_column_reads():
    rng = Lcg64(2024)
    for k in range(600):
        p = 1 + rng.below(40)
        t = Tail(_word(rng, p, infinities=k % 3 == 0), rng.int_between(-2, 2))
        for _ in range(4):
            j = rng.int_between(-3 * p - 5, 3 * p + 5)
            n = rng.below(3 * p + 4)
            assert t.window(j, n) == naive_window(t, j, n), (t, j, n)
        assert t.window(rng.int_between(-99, 99), 0) == ()
    # no finite entry: every copy repeats, whatever the slope
    t = Tail((PLUS_INF, MINUS_INF, MINUS_INF), 2)
    assert t.window(-7, 11) == naive_window(t, -7, 11)


def test_period_one_window_matches_per_column_reads():
    """A level tail of period 1 is read as its value repeated: level tails
    with any value, and all-infinite tails whatever their slope; a sloped
    finite one still rises."""
    tails = [Tail((v,), 0) for v in (0, -4, 10**30, PLUS_INF, MINUS_INF)]
    tails += [Tail((v,), s) for v in (PLUS_INF, MINUS_INF) for s in (-3, 1, 7)]
    tails += [Tail((2,), -1), Tail((0,), 5)]
    for t in tails:
        for j in (-9, -1, 0, 1, 4):
            for n in (-2, 0, 1, 2, 5, 13):
                assert t.window(j, n) == naive_window(t, j, n), (t, j, n)


def test_far_windows_match_per_column_reads():
    """A read wholly on the far side of the core hands `Tail.window` a
    negative run length, however large, which reads as empty."""
    tails = (Tail((0,)), Tail((PLUS_INF,)), Tail((-4,), 3), Tail((2, MINUS_INF, 5), -1))
    for left in tails:
        for right in tails:
            c = Configuration(-2, (7, 8, 9), left, right)
            for lo in (10**19, -10**19 - 5, 10**40, -3 * 10**40):
                assert c.heights(lo, lo + 5) == tuple(map(c.height, range(lo, lo + 6)))
            assert left.window(3, -10**19) == ()


def test_two_spellings_of_a_long_period_compare_at_once():
    # a 101-column word repeated 997 and 991 times: every lcm window has
    # 99,790,727 columns, yet equal keys decide before any of them is read
    word = _word(Lcg64(101), 101, infinities=False)
    for compare, equal in (
        (equals, True), (first_difference, None), (distance, metric.Distance.zero()),
    ):
        x, y = Configuration.periodic(word * 997), Configuration.periodic(word * 991)
        start = time.perf_counter()
        assert compare(x, y) == equal
        assert time.perf_counter() - start < 0.1


def _spelt_out(tail, copies, bump=None):
    """The same progression written with `copies` period copies, with
    entry `bump` (when given) raised by one, or a finite one if infinite."""
    values = list(naive_window(tail, 0, len(tail.values) * copies))
    if bump is not None:
        v = values[bump]
        values[bump] = 0 if v in (PLUS_INF, MINUS_INF) else v + 1
    return Tail(tuple(values), tail.slope * copies)


def _pairs():
    """Pairs of all four classes: unrelated, equal in another spelling, and
    apart only in one residue class far out, some with lcm periods that
    cross a block edge."""
    rng = Lcg64(777)
    for k in range(240):
        infs = k % 4 == 0
        x = sample_configuration(rng, height=3, include_infinities=infs)
        yield x, sample_configuration(rng, height=3, include_infinities=infs)
        copies = 2 + rng.below(3)
        wide = Configuration(x.core_start, x.core, _spelt_out(x.left, copies),
                             _spelt_out(x.right, 5 - copies))
        yield x, wide
        yield x.shift(len(x.left.values) * len(x.right.values)), x
        p = len(x.right.values) * copies
        far = _spelt_out(x.right, copies, bump=rng.below(p))
        yield x, Configuration(x.core_start, x.core, x.left, far)
        yield Configuration(x.core_start, x.core, x.left, Tail(far.values, far.slope + 1)), x
    for p, copies, bump, slope in ((67, 62, 4100, 0), (71, 60, 4095, 1), (89, 97, 8000, -2),
                                   (64, 65, 4096, 0), (97, 89, None, 2), (67, 71, None, 0)):
        word = _word(rng, p)
        core = _word(rng, 5, infinities=False)
        left, right = Tail(word[::-1], -slope), Tail(word, slope)
        x = Configuration(-2, core, left, right)
        y = Configuration(-2, core, left, _spelt_out(right, copies, bump))
        yield x, y
        yield Configuration(-2, core, _spelt_out(left, copies, bump), right), x
        # a core long enough that the span itself crosses a block edge
        long_core = _word(rng, BLOCK + 300, infinities=False)
        moved = list(long_core)
        moved[BLOCK + bump % 200 if bump else 0] += 1
        yield (Configuration(-BLOCK, long_core, left, right),
               Configuration(-BLOCK, tuple(moved), left, right))


def test_equals_and_first_difference_match_a_per_column_scan():
    count = 0
    for x, y in _pairs():
        same = naive_equals(x, y)
        assert equals(x, y) is same and equals(y, x) is same
        assert first_difference(x, y) == naive_first_difference(x, y)
        assert first_difference(y, x) == naive_first_difference(y, x)
        count += 1
    assert count > 1000


def test_distance_matches_the_whole_window_reference():
    far = 0
    for x, y in _pairs():
        d = distance(x, y)
        assert d == whole_window_distance(x, y), (x, y)
        assert d == distance(y, x)
        far += not d.is_zero and d.exponent > BLOCK
    assert far >= 4


def test_difference_reads_no_single_column(monkeypatch):
    def refused(*args):
        raise AssertionError("per-column read")

    pairs = list(_pairs())[:400]
    monkeypatch.setattr(Configuration, "height", refused)
    monkeypatch.setattr(Tail, "at", refused)
    for x, y in pairs:
        equals(x, y)
        first_difference(x, y)
    # equal lcm windows, apart by the right tails' rise
    x = Configuration(1, (), Tail((0,), 0), Tail((5,), 1))
    y = Configuration(1, (), Tail((0,), 0), Tail((5, 6), 3))
    assert first_difference(x, y) == 3


def test_distance_stops_at_its_best_candidate(monkeypatch):
    starts = []

    def counted(a0, *args):
        starts.append(a0)
        return class_minimum(a0, *args)

    class_minimum = metric._class_minimum
    monkeypatch.setattr(metric, "_class_minimum", counted)
    rng = Lcg64(5)
    tails = Tail(_word(rng, 40), 1), Tail(_word(rng, 39), -2)
    core = (1, 2, 3, 4, 5, 6, 7)
    x = Configuration(-3, core, *tails)
    # apart at column 1 of the core: no tail class can come closer
    y = Configuration(-3, core[:4] + (6,) + core[5:], *tails)
    assert distance(x, y).exponent == 1
    assert starts == []
    # apart only in the right tail's third column: no class beyond it
    right = _spelt_out(tails[1], 2, bump=2)
    d = distance(x, Configuration(-3, core, tails[0], right))
    assert d.exponent == 6 and starts and max(starts) <= d.exponent


def test_a_long_period_pair_compares_in_bounded_memory(tmp_path):
    # periods 9,973 and 9,967 (both prime): every lcm window has 99,400,891
    # columns, so reading one whole would need gigabytes
    words = [[(3 * i) % 10 for i in range(9973)], [(7 * i) % 10 for i in range(9967)]]
    files = []
    for k, word in enumerate(words):
        files.append(tmp_path / f"p{k}.cfg")
        files[-1].write_text(
            "sand-config v1\nkind: periodic\nperiod: " + " ".join(map(str, word)) + "\n"
        )
    src = os.path.dirname(os.path.dirname(sandlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    api = (
        "from sandlab.config import Configuration, equals, first_difference\n"
        "from sandlab.metric import distance\n"
        f"x, y = (Configuration.periodic(w) for w in {words!r})\n"
        "print(distance(x, y), equals(x, y), first_difference(x, y))\n"
    )
    for argv, out in (
        (["-c", api], "2^-2 False -99400890\n"),
        (["-m", "sandlab.cli", "distance", *map(str, files)], "2^-2\n"),
    ):
        done = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True,
            timeout=20, preexec_fn=limit,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == out
