"""Exact representation of bi-infinite column configurations.

A configuration assigns a height (int or ±infinity) to every column i in Z.
The representation is a finite explicit core window plus one ultimately
affine-periodic tail per side:

    core covers columns [core_start, core_start + len(core) - 1]
    right tail, reading outward from the core:   column core_end + 1 + j has
        height values[j mod p] + slope * (j div p)      (finite entries)
        height values[j mod p]                          (infinite entries)
    left tail mirrors this, reading outward to the left from core_start - 1.

This class of sequences is closed under shifting, uniform raising, and
under every local rule application in this package, so all operations stay
exact. Instances are immutable; all operations return new objects.

`canonicalize` computes a unique minimal representative per sequence.
Equality (`equals`, also wired to ==) of the underlying bi-infinite
sequences, whatever representation built them, compares the canonical
forms field by field; hashes are taken from the same fields' key.

`Tail.window` reads tail columns as whole period copies, and
canonicalization works on slices, never on single columns. `_tail` and
`_configuration` build unchecked from checked values (kernel outputs,
slices of checked cores and tails), so a global step builds each once.

`Configuration.finite` builds a dense core from sparse input, so this
module owns the core cap (`SANDLAB_MAX_CORE`, else `DEFAULT_MAX_CORE`):
`_core_cap` reads it, and `_check_span` refuses a core, period or block
wider than it before anything is built. The one orbit loop,
`automaton._orbit`, reads the same cap.

`first_difference` and `metric.distance` read a pair through one list of
runs (`_runs`): column runs column by column, and class runs, whose residue
classes mod an lcm period are affine progressions, one or two periods at a
time, so the columns between two far cores are never read one by one; a
shared run, in same-side tails alike in boundary, values and slope, not at all.
"""

from __future__ import annotations

import os
from math import inf, lcm

from .errors import CoreBoundExceeded, DomainError
from .heights import Height, Infinity, MINUS_INF, PLUS_INF


DEFAULT_MAX_CORE = 65536
#: the most columns one `heights` read returns
MAX_READ = 10**6


def _core_cap(cap):
    if cap is None:
        env = os.environ.get("SANDLAB_MAX_CORE")
        cap = DEFAULT_MAX_CORE if env is None else _decimal(env)
        if cap is None:
            raise DomainError(f"SANDLAB_MAX_CORE is not an integer: {env!r}")
    return _check_int("core cap", cap, 0)


def _check_span(what: str, n: int) -> None:
    """Refuse n columns over the core cap before any of them is built."""
    cap = _core_cap(None)
    if n > cap:
        raise CoreBoundExceeded(f"{what} spans {n} columns (cap {cap})")


def _check_int(what: str, v, lo=None, hi=None) -> int:
    """v when it is an int (a bool is not) in lo..hi, else a DomainError
    naming `what`: the package's one check of a scalar argument."""
    if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
        raise DomainError(f"{what} must be an int, got {v!r}")
    if lo is not None and v < lo:
        raise DomainError(f"{what} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise DomainError(f"{what} {v} is over the limit of {hi}")
    return v


def _check_height(v) -> Height:
    return v if v is PLUS_INF or v is MINUS_INF else _check_int("height", v)


def _decimal(token: str):
    """The int an ASCII decimal token [+-]?[0-9]+ spells, else None; `int`
    alone would also take `_` separators and non-ASCII digits."""
    digits = token.strip().lstrip("+-")
    try:
        return int(token) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # two signs, or over the interpreter's integer digit limit
        return None


class Value:
    """Base of the value classes: instances are read-only by contract, and
    equality, hashing and repr go by the fields named in `_fields`."""

    __slots__ = ()

    def _astuple(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Tail(Value):
    """One side of a configuration: period values plus a per-period slope.

    values[j] is the height j columns past the core boundary within the
    first period copy; every later copy of a finite entry gains `slope`.
    Infinite entries repeat unchanged, so a tail with no finite entry
    stores slope 0 whatever it is given.
    """

    __slots__ = _fields = ("values", "slope")

    def __init__(self, values: tuple, slope: int = 0):
        values = tuple(values)
        if not values:
            raise DomainError("tail period must be non-empty")
        finite = [type(v) is int or not isinstance(_check_height(v), Infinity) for v in values]
        _check_int("tail slope", slope)
        self.values, self.slope = values, slope if any(finite) else 0

    def at(self, j: int) -> Height:
        """Height j columns out from the boundary, j may be negative."""
        k, idx = divmod(j, len(self.values))
        return self.values[idx] + self.slope * k

    def window(self, j: int, n: int) -> tuple:
        """(at(j), ..., at(j + n - 1)), read as a slice of whole period
        copies with no per-column `at`: a level tail repeats its values,
        and copy q of a sloped tail is each value plus slope * q, which
        infinities absorb. An n <= 0 reads as () at once, however large."""
        p = len(self.values)
        if n <= 0 or p == 1 and not self.slope:
            return self.values * max(n, 0)
        q, s = divmod(j, p)
        copies = range(q, q + (s + n) // p + 1)
        if slope := self.slope:
            return tuple([v + slope * k for k in copies for v in self.values][s : s + n])
        return (self.values * len(copies))[s : s + n]

    def rebased(self, k: int) -> "Tail":
        """The same progression with its boundary moved k columns outward:
        rebased(k).at(j) == at(j + k)."""
        p = len(self.values)
        if not k or (k % p == 0 and not self.slope):
            return self  # whole periods of a level tail change nothing
        return _tail(self.window(k, p), self.slope)

    def mirror(self) -> "Tail":
        """The left tail that continues this right tail backwards from the
        same boundary: mirror().at(j) == at(-1 - j)."""
        p = len(self.values)
        return _tail(self.window(-p, p)[::-1], -self.slope)


def _tail(values: tuple, slope: int) -> Tail:
    """A Tail from a checked non-empty tuple and its slope, 0 if no entry is finite."""
    t = object.__new__(Tail)
    t.values, t.slope = values, slope
    return t


ZERO_TAIL = Tail((0,), 0)


class Configuration:
    """An exact bi-infinite height sequence. See module docstring.

    The four fields are read-only by contract; `_canon` caches the
    canonical form once `canonicalize` has computed it.
    """

    __slots__ = ("core_start", "core", "left", "right", "_canon")

    def __init__(self, core_start: int, core: tuple, left=ZERO_TAIL, right=ZERO_TAIL):
        _check_int("core start", core_start)
        if type(left) is not Tail or type(right) is not Tail:
            raise DomainError(f"tails must be Tail objects, got {left!r} and {right!r}")
        core = tuple(core)
        for v in core:
            if type(v) is not int:
                _check_height(v)
        self.core_start, self.core, self.left, self.right = core_start, core, left, right
        self._canon = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def finite(cls, deviations: dict) -> "Configuration":
        """Zero background with the given column -> height deviations; a
        span over the core cap raises CoreBoundExceeded."""
        devs = {_check_int("column", i): v for i, v in deviations.items()}
        devs = {i: _check_height(v) for i, v in devs.items() if v != 0}
        a, b = (min(devs), max(devs)) if devs else (0, -1)
        _check_span("finite core", b - a + 1)
        core = tuple(devs.get(i, 0) for i in range(a, b + 1))
        return cls(a, core)

    @classmethod
    def periodic(cls, values) -> "Configuration":
        """Fully periodic configuration with c_0.. anchored to `values`."""
        return cls.affine(values, 0)

    @classmethod
    def affine(cls, values, slope: int = 0) -> "Configuration":
        """Self-similar configuration: c_{i+p} = c_i + slope, anchored so
        that columns 0..p-1 carry `values`."""
        right = Tail(values, slope)
        return cls(0, (), right.mirror(), right)

    @classmethod
    def general(cls, core_start: int, core, left, right) -> "Configuration":
        """Explicit core plus a Tail or a (values, slope) pair on each side."""
        tails = []
        for t in (left, right):
            try:
                values, slope = (t.values, t.slope) if isinstance(t, Tail) else t
                tails.append(Tail(values, slope))
            except (TypeError, ValueError):
                raise DomainError(f"a tail must be a Tail or a (values, slope) pair: {t!r}") from None
        return cls(core_start, core, *tails)

    # -- basic access ------------------------------------------------------

    @property
    def core_end(self) -> int:
        """Index of the last core column; core_start - 1 when core is empty."""
        return self.core_start + len(self.core) - 1

    def height(self, i: int) -> Height:
        if type(i) is not int:
            _check_int("column", i)
        a = self.core_start
        off = i - a
        if 0 <= off < len(self.core):
            return self.core[off]
        if i > self.core_end:
            return self.right.at(i - self.core_end - 1)
        return self.left.at(a - 1 - i)

    def heights(self, lo: int, hi: int) -> tuple:
        """Heights of columns lo..hi inclusive: the left tail's columns, a
        slice of the core, then the right tail's columns. A read of more than
        MAX_READ columns is refused."""
        if type(lo) is not int or type(hi) is not int or hi - lo >= MAX_READ:
            _check_int("read width", 1 - _check_int("column", lo) + _check_int("column", hi),
                       hi=MAX_READ)
        a, b = self.core_start, self.core_end
        m, k = min(hi, a - 1), max(lo, b + 1)
        return (
            self.left.window(a - 1 - m, m - lo + 1)[::-1]
            + self.core[max(lo - a, 0) : max(hi - a + 1, 0)]
            + self.right.window(k - b - 1, hi - k + 1)
        )

    # -- structural transforms --------------------------------------------

    def shift(self, k: int) -> "Configuration":
        """Translate the whole configuration k columns: r_i = c_{i-k}."""
        k = _check_int("offset", k)
        return Configuration(self.core_start + k, self.core, self.left, self.right)

    def raise_by(self, k: int) -> "Configuration":
        """Add k grains to every finite column."""
        if _check_int("offset", k) == 0:
            return self
        lift = lambda vs: tuple(v + k for v in vs)
        tails = [Tail(lift(t.values), t.slope) for t in (self.left, self.right)]
        return Configuration(self.core_start, lift(self.core), *tails)

    # -- equality and hashing ----------------------------------------------

    def __eq__(self, other):
        return equals(self, other) if isinstance(other, Configuration) else NotImplemented

    def __hash__(self):
        return hash(self.canonical_key())

    def canonicalize(self) -> "Configuration":
        """The unique minimal representative of this sequence."""
        canon = self._canon
        if canon is None:
            canon = self._canon = _canonicalize(self)
            canon._canon = canon
        return canon

    def canonical_key(self) -> tuple:
        c = self.canonicalize()
        return (c.core_start, c.core, c.left.values, c.left.slope, c.right.values, c.right.slope)

    def __repr__(self):
        a, b = self.core_start, self.core_end
        return (
            f"<config core[{a}..{b}]={self.core!r} "
            f"left={self.left.values!r}{self.left.slope:+d} "
            f"right={self.right.values!r}{self.right.slope:+d}>"
        )


def _configuration(core_start: int, core: tuple, left: Tail, right: Tail) -> Configuration:
    """A Configuration from a checked start, core tuple and tails."""
    c = object.__new__(Configuration)
    c.core_start, c.core, c.left, c.right, c._canon = core_start, core, left, right, None
    return c


# -- sequence equality -----------------------------------------------------


def equals(x: Configuration, y: Configuration) -> bool:
    """True iff x and y denote the same bi-infinite sequence: canonical
    forms are unique per sequence, so their fields decide, read one by one
    (tails by values and slope, not as objects)."""
    x, y = x._canon or x.canonicalize(), y._canon or y.canonicalize()
    a, b, u, v = x.left, x.right, y.left, y.right
    return x is y or (x.core_start == y.core_start and x.core == y.core
                      and (a is u or a.slope == u.slope and a.values == u.values)
                      and (b is v or b.slope == v.slope and b.values == v.values))


def first_difference(x: Configuration, y: Configuration):
    """A column where x and y differ, or None when they are equal.

    With lo..hi the columns of both cores and column 0, and Ll (Lr) the lcm
    of the left (right) tail periods, it is the first difference met by
    these reads: lo-Ll..lo-1; each run of `_runs` from lo on, a class run
    cut to its first 2L columns (progressions that agree twice agree
    everywhere); then lo-Ll-1 down to lo-2Ll. That is the least differing
    column in lo-Ll..hi+Lr if any; else, if the right tails part in slope,
    the first finite column right of hi plus Lr; else the first finite column
    left of lo minus Ll. No read enters a shared run, which never differs.
    """
    if equals(x, y):
        return None
    (_, end, Ll, _, _), *runs = _runs(x, y)
    reads, first = [], end - Ll + 1
    for a, b, L, _, _ in runs:
        if b - a >= L:  # a class run ends the read after its first 2L columns
            # (the rest agree if those do), and a shared run (L = 0) before it
            reads.append(range(first, min(b, a + 2 * L - 1) + 1))
            first = b + 1
    reads.append(range(end - Ll, end - 2 * Ll, -1))
    for cols in filter(None, reads):
        for cols, xs, ys in aligned_blocks(x, y, cols[0], cols[-1]):
            if xs != ys:
                return next(j for j, u, v in zip(cols, xs, ys) if u != v)


BLOCK = 4096  # columns per aligned read: bounds the memory of a comparison


def _runs(x: Configuration, y: Configuration) -> list:
    """A pair's columns as ascending runs (a, b, L, dx, dy) of columns a..b,
    cut at column 0 and where a core starts or ends; the outer runs end at
    -inf and inf.

    A shared run lies in same-side tails of x and y alike in boundary, values
    and slope, so it never differs: L = dx = dy = 0. In a class run, an outer
    run or a stretch of more than BLOCK columns with both sequences in a tail,
    each residue class mod L is, in x (y), an affine progression rising by dx
    (dy) per L columns rightwards, or a constant infinity. In a column run, L
    is its length and dx = dy = 0, so each class is one column.
    """
    below = x.core_start if (x.core_start, x.left.values, x.left.slope) == (
        y.core_start, y.left.values, y.left.slope) else -inf
    above = x.core_end if (x.core_end, x.right.values, x.right.slope) == (
        y.core_end, y.right.values, y.right.slope) else inf
    cuts = sorted({0, x.core_start, x.core_end + 1, y.core_start, y.core_end + 1})
    runs = []
    for a, b in zip([-inf, *cuts], [c - 1 for c in cuts] + [inf]):
        tails = b - a >= BLOCK and [
            (len(c.left.values), -c.left.slope) if b < c.core_start
            else (len(c.right.values), c.right.slope) if a > c.core_end else None
            for c in (x, y)]
        if b < below or a > above:
            runs.append((a, b, 0, 0, 0))
        elif not tails or None in tails:
            runs.append((a, b, b - a + 1, 0, 0))
        else:
            (px, sx), (py, sy) = tails
            L = lcm(px, py)
            runs.append((a, b, L, sx * (L // px), sy * (L // py)))
    return runs


def aligned_blocks(x: Configuration, y: Configuration, first: int, last: int):
    """Yield (cols, xs, ys) for the columns first..last, walked from
    `first` towards `last`: `cols` is a range of columns in walk order, and
    xs, ys hold the heights of x and y at those columns. Blocks start at 64
    columns and grow eightfold up to BLOCK, so a walk that stops early reads
    little, and memory stays bounded by one BLOCK however long the walk."""
    d, n = (1 if last >= first else -1), 64
    while d * (last - first) >= 0:
        cols = range(first, last + d, d)[:n]
        a, b = sorted((first, cols[-1]))
        yield cols, x.heights(a, b)[::d], y.heights(a, b)[::d]
        first, n = first + d * n, min(8 * n, BLOCK)


# -- aggregate measures ----------------------------------------------------


def sum_grains(c: Configuration) -> int:
    """Total grain count of a configuration with zero background.

    Defined only for the finite class: both tails must be identically zero
    and no core column may be infinite.
    """
    cc = c.canonicalize()
    if not is_finite_class(cc):
        raise DomainError("sum_grains needs a zero background on both sides")
    if any(isinstance(v, Infinity) for v in cc.core):
        raise DomainError("sum_grains is undefined with infinite columns")
    return sum(cc.core)


def is_finite_class(c: Configuration) -> bool:
    """True iff all but finitely many columns are zero."""
    cc = c.canonicalize()
    return cc.left == ZERO_TAIL and cc.right == ZERO_TAIL


def support_radius(c: Configuration) -> int:
    """max |i| over nonzero columns of a finite-class configuration
    (0 for the all-zero configuration)."""
    cc = c.canonicalize()
    if not is_finite_class(cc):
        raise DomainError("support_radius needs a finite-class configuration")
    # the canonical core starts and ends on a nonzero column
    return max(abs(cc.core_start), abs(cc.core_end)) if cc.core else 0


def has_infinite_column(c: Configuration) -> bool:
    return any(isinstance(v, Infinity) for v in c.core + c.left.values + c.right.values)


# -- canonicalization ------------------------------------------------------
#
# The canonical representative: both tail periods primitive (and slope 0
# whenever no period entry is finite), the core shrunk until neither edge
# column is predicted by its adjacent tail, and for empty-core
# configurations a canonical anchor: the minimal one when the sequence is
# not globally affine-periodic, otherwise anchor 0 (slope != 0) or the
# anchor in [0, p) whose period window is lexicographically least
# (slope 0; rotations of a primitive word are pairwise distinct, so this
# is unique).
#
# Tests run on slices: a word longer than 1 is q-periodic when its last p - q
# entries equal its first p - q (raised by the slope share when sloped); both
# core edges are trimmed on one flat tuple (left period reversed, core, right
# period) with one comparison per column, an edge column going while it plus
# that tail's slope equals the column one period further out, and the new tails
# are the period-long slices next to the kept core, save that a level tail
# trimmed by whole periods (as in every finite-class step) is kept as it is; an
# empty core is anchored by one rotation scan or one pl + pr column read a side.


def _reduce_tail(tail: Tail) -> Tail:
    """The primitive period of the tail, with slope 0 when no entry is
    finite; the tail itself when it already is one.

    The periods of the word that divide p = len(values) are the multiples
    of the least one, so stripping each prime factor f of p while the word
    keeps period q // f ends at the least period after O(log p) compares."""
    vs, slope = tail.values, tail.slope
    p = q = n = len(vs)
    f = 2
    while n > 1:
        if f * f > n:
            f = n  # what is left of n is prime
        kept = True
        while n % f == 0:
            n, d = n // f, q // f
            t, frac = divmod(slope * d, p)
            kept = kept and not frac and (
                all(w == v + t for v, w in zip(vs, vs[d:])) if t
                else vs[d:] == vs[:-d])
            if kept:
                q = d
        f += 1
    return tail if q == p else _tail(vs[:q], slope * q // p)


def _canonicalize(c: Configuration) -> Configuration:
    left = c.left if len(c.left.values) == 1 else _reduce_tail(c.left)
    right = c.right if len(c.right.values) == 1 else _reduce_tail(c.right)
    pl, pr, ls, rs = len(left.values), len(right.values), left.slope, right.slope
    flat = left.values[::-1] + c.core + right.values
    lo, hi = pl, pl + len(c.core)  # the kept core is flat[lo:hi]
    while hi > lo and flat[hi - 1] + rs == flat[hi - 1 + pr]:
        hi -= 1
    while lo < hi and flat[lo] + ls == flat[lo - pl]:
        lo += 1
    start = c.core_start + lo - pl  # trimmed: lo - pl columns left, len(flat) - pr - hi right
    left = left if not ls and lo % pl == 0 else _tail(flat[lo - pl : lo][::-1], ls)
    right = right if not rs and (len(flat) - hi) % pr == 0 else _tail(flat[hi : hi + pr], rs)
    if lo < hi:
        return _configuration(start, flat[lo:hi], left, right)

    if ls == -rs and left.values == right.window(-pr, pr)[::-1]:  # left == right.mirror()
        # globally affine-periodic: anchor 0 (slope != 0) or the anchor in
        # [0, p) whose period window is least: the word at 0..p-1's least rotation
        base = 0 if right.slope else _least_rotation(right.window(-start, pr))
        right = right.rebased(base - start)
        return _configuration(base, (), right.mirror(), right)
    # not globally affine-periodic: the least valid anchor is where the two
    # sides part, within pl + pr columns left of the core (sides that agree
    # that far agree everywhere, by Fine and Wilf)
    m = pl + pr
    pairs = enumerate(zip(left.window(0, m), reversed(right.window(-m, m))))
    n = next((k for k, (u, v) in pairs if u != v), m)
    if n == m:  # pragma: no cover
        raise AssertionError("the two sides of an empty core never part")
    return _configuration(start - n, (), left.rebased(n), right.rebased(-n))


def _least_rotation(s: tuple) -> int:
    """The start of the least rotation of the primitive height word s, in
    time linear in len(s): the last Lyndon factor of s + s that starts in s
    (Duval, "Factorizing words over an ordered alphabet", J. Alg. 1983)."""
    n, s = len(s), s + s
    i = start = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start
