"""Aligned comparisons read in bounded blocks: `Tail.window`, `equals`,
`first_difference` and `distance` against the slow references in
`naive_scan`, plus the work they may do and the memory they may take."""

import os
import resource
import subprocess
import sys
import time

from itertools import islice
from math import inf

import naive_scan
import sandlab
from sandlab import config, metric
from sandlab.config import BLOCK, Configuration, Tail, aligned_blocks, equals, first_difference
from sandlab.heights import MINUS_INF, PLUS_INF
from sandlab.metric import distance
from sandlab.rng import Lcg64, sample_configuration

from naive_scan import (
    naive_class_minimum,
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


def test_distance_matches_the_whole_window_reference(monkeypatch):
    scanned = 0

    def counted(*args):
        nonlocal scanned
        g = scan(*args)
        scanned += g is not None
        return g

    scan = naive_scan.naive_class_minimum
    monkeypatch.setattr(naive_scan, "naive_class_minimum", counted)
    far = 0
    for x, y in _pairs():
        d = distance(x, y)
        assert d == whole_window_distance(x, y), (x, y)
        assert d == distance(y, x)
        far += not d.is_zero and d.exponent > BLOCK
    assert far >= 4
    # the reference minimised that many classes by its own column scan
    assert scanned > 100


def _with_defect(base, start, width, rng):
    """The affine sequence `base` with columns start..start+width-1 written
    out as a core and one of them changed."""
    core = list(base.heights(start, start + width - 1))
    k = rng.below(width)
    core[k] = rng.int_between(-3, 3) if core[k] in (PLUS_INF, MINUS_INF) else core[k] + 1
    p, slope = len(base.right.values), base.right.slope
    left = Tail(base.heights(start - p, start - 1)[::-1], -slope)
    right = Tail(base.heights(start + width, start + width + p - 1), slope)
    return Configuration(start, tuple(core), left, right)


def _far_gap_pairs():
    """Pairs whose cores lie more than BLOCK columns apart, both on one side
    of column 0 or one on each: two defects in one affine sequence, one
    defect against the sequence itself, one side steeper past its core,
    two unrelated configurations moved apart, and two affine sequences
    spliced far from column 0, whose odd columns fall towards column 0's
    reading at two rates across the gap, so the nearest gauge lies past
    it."""
    rng = Lcg64(1717)
    for k in range(8):
        g = (-1) ** k * (BLOCK + 10 + rng.below(4000))
        rates = (1 + rng.below(3), 4 + rng.below(3))
        # even columns +inf, so the reference height is 0; odd ones start
        # near 10^6 and fall by r every two columns from column 0 towards g
        x, z = (Configuration.affine((PLUS_INF, 10**6 + rng.below(9)), -r * (-1) ** k)
                for r in rates)
        near, far = (z, x) if g > 0 else (x, z)
        yield x, Configuration(g, (), Tail(near.heights(g - 2, g - 1)[::-1], -near.right.slope),
                               Tail(far.heights(g, g + 1), far.right.slope))
    for k in range(24):
        word = _word(rng, 1 + rng.below(6), infinities=k % 3 == 0)
        base = Configuration.affine(word, rng.int_between(-2, 2))
        a = rng.int_between(-9000, 9000)
        b = a + (-1) ** rng.below(2) * (BLOCK + 10 + rng.below(4000))
        x, y = _with_defect(base, a, 1 + rng.below(5), rng), _with_defect(base, b, 3, rng)
        yield x, y
        yield x, base.shift(len(word) * (b // len(word))).raise_by(base.right.slope * (b // len(word)))
        if k % 2:
            yield x, Configuration(y.core_start, y.core, y.left, Tail(y.right.values, y.right.slope + 1))
        else:
            yield Configuration(y.core_start, y.core, Tail(y.left.values, y.left.slope - 1), y.right), x
        yield (sample_configuration(rng, 3, k % 3 == 0).shift(a),
               sample_configuration(rng, 3, k % 3 == 0).shift(b))


def test_far_gaps_match_the_per_column_references():
    count = 0
    for x, y in _far_gap_pairs():
        for u, v in ((x, y), (y, x)):
            assert first_difference(u, v) == naive_first_difference(u, v), (u, v)
            assert distance(u, v) == whole_window_distance(u, v), (u, v)
        count += 1
    assert count == 104


def _capped_reads(monkeypatch, cap=10**5):
    """Make `Configuration.heights` refuse to read more than `cap` columns
    in all, so a walk over every column of a far gap fails at once."""
    read = 0
    heights = Configuration.heights

    def capped(self, lo, hi):
        nonlocal read
        read += max(hi - lo + 1, 0)
        if read > cap:
            raise AssertionError(f"over {cap} columns read")
        return heights(self, lo, hi)

    monkeypatch.setattr(Configuration, "heights", capped)


def _far_cores():
    """(x, y, first difference, distance exponent) for cores 10^30 columns
    from column 0, on either side and on both."""
    far = 10**30
    zero = Configuration.finite({})
    for j in (far, -far):
        one = Configuration.finite({j: 1})
        yield zero, one, j, far
        yield one, zero, j, far
        yield one, Configuration.finite({-j: 2}), -far, far
    sloped = Configuration.affine((1, PLUS_INF, 3), 2)
    rng = Lcg64(30)
    x, y = _with_defect(sloped, -far, 4, rng), _with_defect(sloped, far + 7, 2, rng)
    # x's changed column is the nearest difference, and its heights, some
    # 2 * 10^30 / 3 below column 0's, separate at a gauge below |column|
    col = next(j for j in range(-far, -far + 4) if x.height(j) != sloped.height(j))
    yield x, y, col, -col


def test_far_cores_first_difference_reads_no_gap(monkeypatch):
    cases = list(_far_cores())
    _capped_reads(monkeypatch)
    for x, y, col, _ in cases:
        assert first_difference(x, y) == col
        assert x.height(col) != y.height(col)


def test_far_cores_distance_reads_no_gap(monkeypatch):
    cases = list(_far_cores())
    _capped_reads(monkeypatch)
    for x, y, _, exponent in cases:
        assert distance(x, y) == metric.Distance.dyadic(exponent)


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


def _slope_apart(rng, p=40):
    """A raised configuration with a period-p right tail, and the same one
    with that tail climbing one more per period, as in a compare pair
    apart only in its right tail's slope."""
    lift = 10**9 + rng.below(10**6)
    word = lambda n: tuple(lift + rng.int_between(-6, 6) for _ in range(n))
    core, slope = word(1 + rng.below(10)), rng.int_between(-2, 2)
    left = Tail(word(1 + rng.below(40)), rng.int_between(-2, 2))
    start, right = -rng.below(len(core)), word(p)
    return (Configuration(start, core, left, Tail(right, slope)),
            Configuration(start, core, left, Tail(right, slope + 1)))


def test_a_tail_slope_pair_minimises_at_most_one_class_in_full(monkeypatch):
    """The first class that separates sets a best candidate no later class
    of the run can beat, so each later one scores its first column only
    (one gauge) or returns at once, and builds no candidate set."""
    gauges, full = [0], []

    def counted_gauge(*args):
        gauges[0] += 1
        return separating_gauge(*args)

    def counted_class(*args):
        before = gauges[0]
        g = class_minimum(*args)
        full.append(gauges[0] - before > 1)
        return g

    separating_gauge, class_minimum = metric._separating_gauge, metric._class_minimum
    rng = Lcg64(4040)
    pairs = [_slope_apart(rng) for _ in range(30)]
    monkeypatch.setattr(metric, "_separating_gauge", counted_gauge)
    monkeypatch.setattr(metric, "_class_minimum", counted_class)
    for x, y in pairs:
        full.clear()
        d = distance(x, y)
        assert d == whole_window_distance(x, y)
        assert len(full) > 1 and sum(full) <= 1, (x, y, full)


def test_unrelated_sloped_pairs_read_one_first_block(monkeypatch):
    """Two unrelated sequences of periods 40 and 39, raised by 10^30 and
    sloped, that differ at the first column `first_difference` reads: each
    side is read once, one small first block, not a whole lcm window."""
    rng = Lcg64(3939)
    word = lambda n: tuple(10**30 + rng.int_between(-6, 6) for _ in range(n))
    pairs = []
    while len(pairs) < 20:
        x = Configuration(-2, word(4), Tail(word(40), 1), Tail(word(39), -2))
        y = Configuration(-1, word(3), Tail(word(39), 2), Tail(word(40), 1))
        j = first_difference(x, y)
        if j == min(x.canonicalize().core_start, y.canonicalize().core_start, 0) - 1560:
            pairs.append((x.canonicalize(), y.canonicalize(), j))
    reads = []
    heights = Configuration.heights

    def spied(self, lo, hi):
        reads.append((self, hi - lo + 1))
        return heights(self, lo, hi)

    monkeypatch.setattr(Configuration, "heights", spied)
    for x, y, j in pairs:
        reads.clear()
        assert first_difference(x, y) == j
        assert sorted(n for _, n in reads) == [64, 64] and {c for c, _ in reads} == {x, y}


def test_aligned_blocks_walk_first_to_last_in_bounded_blocks(monkeypatch):
    x = Configuration(-3, (5, PLUS_INF, 7), Tail((1, 2, MINUS_INF), -1), Tail((4, 0), 3))
    y = Configuration(0, (9,), Tail((2,), 0), Tail((MINUS_INF, 6, 1), 2))
    for first, last in ((0, 0), (-7, -7), (-50, 300), (300, -50), (5, 4), (4, 5), (-9000, 1000)):
        d = 1 if last >= first else -1
        cols, xs, ys = [], [], []
        for block in aligned_blocks(x, y, first, last):
            assert 0 < len(block[0]) <= BLOCK
            assert list(block[0]) == list(range(block[0][0], block[0][-1] + d, d))
            for seen, part in zip((cols, xs, ys), block):
                seen += part
        assert cols == list(range(first, last + d, d))
        assert xs == [x.height(j) for j in cols] and ys == [y.height(j) for j in cols]
    # a walk of 10^7 columns either way reads one block at a time, and
    # its blocks run on from each other without a gap
    monkeypatch.setattr(Configuration, "heights", lambda self, lo, hi: ())
    for first, last in ((0, 10**7 - 1), (5, 5 - 10**7 + 1)):
        d = 1 if last > first else -1
        walk = aligned_blocks(x, y, first, last)
        start = time.perf_counter()
        sizes = [len(cols) for cols, _, _ in islice(walk, 3)]
        assert time.perf_counter() - start < 0.1 and sizes == sorted(sizes)
        nxt = first + d * sum(sizes)
        for cols, _, _ in walk:
            assert cols[0] == nxt and len(cols) <= BLOCK
            nxt = cols[-1] + d
        assert nxt == last + d


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


def _shared_tail_pairs():
    """Pairs whose tails on one or both sides are the same at the same
    boundary, as in a compare pair apart only in its core or in one tail's
    slope: one core column moved by 1 or by 10^3..10^30, or one tail
    climbing one step faster, with infinities, periods up to 40, and both
    sides raised alike, so each side's tails are equal but distinct objects.
    A pair with an infinite column 0 stays low: raised, its classes would
    each take the per-column reference `CLASS_SCAN_STEPS` steps."""
    rng = Lcg64(2727)
    for k in range(320):
        infs = k % 3 == 0
        left = Tail(_word(rng, 1 + rng.below(40), infs), rng.int_between(-2, 2))
        right = Tail(_word(rng, 1 + rng.below(40), infs), rng.int_between(-2, 2))
        core = list(_word(rng, 1 + rng.below(10), infs))
        start = rng.int_between(-60, 50)
        x = Configuration(start, tuple(core), left, right)
        kind = k % 4
        if kind < 2:  # one core column moved by 1, or by a lot
            j = rng.below(len(core))
            lift = 1 if kind == 0 else 10 ** (3 + rng.below(28))
            core[j] = rng.int_between(-3, 3) if core[j] in (PLUS_INF, MINUS_INF) else core[j] + lift
            y = Configuration(start, tuple(core), left, right)
        elif kind == 2:  # the right tail climbs one step faster
            y = Configuration(start, tuple(core), left, Tail(right.values, right.slope + 1))
        else:  # and the left one
            y = Configuration(start, tuple(core), Tail(left.values, left.slope - 1), right)
        lift = 10 ** rng.below(31) + rng.below(10**6)
        if x.height(0) in (PLUS_INF, MINUS_INF):
            lift = rng.below(3)
        yield x.raise_by(lift), y.raise_by(lift)


def _shared_sides(x, y):
    """How many of the two outer runs of a pair are shared."""
    runs = config._runs(x, y)
    return (runs[0][2] == 0) + (runs[-1][2] == 0)


def test_shared_tails_match_the_per_column_references():
    count, shared = 0, [0, 0, 0]
    for x, y in _shared_tail_pairs():
        for u, v in ((x, y), (y, x)):
            assert first_difference(u, v) == naive_first_difference(u, v), (u, v)
            assert distance(u, v) == whole_window_distance(u, v), (u, v)
        shared[_shared_sides(x.canonicalize(), y.canonicalize())] += 1
        count += 1
    # most pairs keep one or both tails shared in canonical form, which
    # is what `distance` reads
    assert count == 320 and shared[2] > 100 and shared[1] > 100, shared


def test_a_pair_sharing_both_tails_reads_only_its_cores(monkeypatch):
    """`first_difference` and `distance` read no tail column of a pair
    whose tails are shared on both sides: every `heights` read lies in the
    cores, no tail window is read, and only `distance`'s column 0 is read
    on its own."""
    pairs = []
    for x, y in _shared_tail_pairs():
        xc, yc = x.canonicalize(), y.canonicalize()
        if _shared_sides(x, y) == 2 == _shared_sides(xc, yc) and not equals(x, y):
            pairs.append((x, y))
    assert len(pairs) > 60
    spans, columns, windows = [], [], []
    heights, height, window = Configuration.heights, Configuration.height, Tail.window

    def spied_heights(self, lo, hi):
        spans.append((lo, hi))
        return heights(self, lo, hi)

    def spied_height(self, i):
        columns.append(i)
        return height(self, i)

    def spied_window(self, j, n):
        if n > 0:
            windows.append(n)
        return window(self, j, n)

    monkeypatch.setattr(Configuration, "heights", spied_heights)
    monkeypatch.setattr(Configuration, "height", spied_height)
    monkeypatch.setattr(Tail, "window", spied_window)
    for x, y in pairs:
        a, b = x.core_start, x.core_end
        for u, v in ((x, y), (y, x)):
            for seen in (spans, columns, windows):
                seen.clear()
            first_difference(u, v)
            distance(u, v)
            assert spans and all(a <= lo <= hi <= b for lo, hi in spans), (u, v, spans)
            assert set(columns) <= {0} and windows == [], (u, v, columns, windows)


def test_class_minimum_of_a_class_equal_at_its_one_column(monkeypatch):
    """A class whose heights agree at its first column and that has no
    second column in range cannot separate, whatever its two rises:
    `_class_minimum` says so without a gauge, and a class one step longer
    still matches the column scan."""
    gauges = []
    separating_gauge = metric._separating_gauge
    monkeypatch.setattr(metric, "_separating_gauge",
                        lambda *args: gauges.append(args) or separating_gauge(*args))
    rng = Lcg64(1313)
    for _ in range(600):
        L, a0, m = 1 + rng.below(40), rng.below(200), rng.int_between(-9, 9)
        u0 = _value(rng, 10 ** rng.below(31))
        su = rng.int_between(-3, 3)
        sv = su + (-1) ** rng.below(2) * (1 + rng.below(3))
        amax = a0 + rng.below(L)
        gauges.clear()
        assert metric._class_minimum(a0, L, u0, su, u0, sv, m, amax) == inf
        assert gauges == []
        assert naive_class_minimum(a0, L, u0, su, u0, sv, m, amax) == inf
        amax = a0 + L + rng.below(3 * L)
        got = metric._class_minimum(a0, L, u0, su, u0, sv, m, amax)
        assert got == naive_class_minimum(a0, L, u0, su, u0, sv, m, amax), (a0, L, u0, su, sv, m)
        assert got == inf or a0 + L <= got
