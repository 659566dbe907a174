"""The exact ultrametric distance between configurations.

The measuring device beta_l^m clips a height n to the window [-l, l]
around a reference height m: heights more than l above m read as +infinity,
more than l below as -infinity, and anything infinite stays infinite.
Difference vectors collect these readings for the 2l columns around a
position. Two configurations are at distance 2^-l where l is the least
gauge at which their difference vectors at position 0 disagree; equal
configurations are at distance 0.

Distances are kept exact: a Distance is a flag for zero plus the exponent
l, never a float. Equal canonical forms give 0 at once; otherwise `distance`
reads the canonical forms and scans no gauges, as the exponent grows with
the heights: a column j gives max(|j|, least gauge separating its heights).
It walks the runs of `config._runs` outward from column 0, nearest first: a
column run column by column, a class run by each residue class, minimised in
closed form from its first column up to the run's far end or the best
candidate so far, and a shared run, which never differs, not at all. A class
starting at column j never goes below |j|, so the walk stops once |j|
reaches the best candidate, and cores far apart cost no more than near ones.
No class is scored that cannot beat the best: one whose two heights agree
at its start is skipped when it is one column, never parts or has its next
column at or past the best, and `_class_minimum` returns before it builds
a candidate set when the lower bound its heights give is as large.
"""

from __future__ import annotations

from functools import total_ordering
from math import inf

from .config import Configuration, Value, _check_int, _runs, aligned_blocks, equals
from .heights import Height, Infinity


@total_ordering
class Distance(Value):
    """Exact value of the configuration distance: 0 or 2^-exponent."""

    __slots__ = _fields = ("is_zero", "exponent")

    def __init__(self, is_zero: bool, exponent: int = 0):
        self.is_zero = is_zero
        self.exponent = exponent

    @classmethod
    def zero(cls) -> "Distance":
        return cls(True, 0)

    @classmethod
    def dyadic(cls, exponent: int) -> "Distance":
        return cls(False, _check_int("distance exponent", exponent, 0))

    def __lt__(self, other):  # a larger exponent is a smaller value; 0 is least
        if not isinstance(other, Distance):
            return NotImplemented
        return not other.is_zero and (self.is_zero or self.exponent > other.exponent)

    def as_float(self) -> float:
        """Approximate float value (0.0 on underflow)."""
        return 0.0 if self.is_zero or self.exponent > 1074 else 2.0 ** -self.exponent

    def __str__(self):
        return "0" if self.is_zero else f"2^-{self.exponent}"


def _separating_gauge(u: Height, v: Height, m: int):
    """Least l >= 1 at which beta_l^m tells u and v apart, inf when u == v;
    an infinite lo is below m and an infinite hi above it."""
    if u == v:
        return inf
    lo, hi = (u, v) if u < v else (v, u)
    return lo - m if lo > m else m - hi if hi < m else 1


def distance(x: Configuration, y: Configuration) -> Distance:
    """Exact distance 2^-l, where l is the least gauge whose difference
    vectors at position 0 disagree."""
    if equals(x, y):
        return Distance.zero()
    x, y = x.canonicalize(), y.canonicalize()
    x0 = x.height(0)
    if x0 != y.height(0):
        return Distance.dyadic(0)
    m = 0 if isinstance(x0, Infinity) else x0
    # (|near end|, near end, direction, far end, L, rises outward)
    walks = sorted((-b, b, -1, a, L, -dx, -dy) if b < 0 else (a, a, 1, b, L, dx, dy)
                   for a, b, L, dx, dy in _runs(x, y) if L)  # no shared run
    best = inf
    for near, start, d, far, L, su, sv in walks:
        if near >= best:
            break
        count = min(L, abs(far - start) + 1)  # the first L columns start a class each
        for cols, xs, ys in aligned_blocks(x, y, start, start + d * (count - 1)):
            if abs(cols[0]) >= best:
                break
            if su == sv and xs == ys:
                continue  # equal starts and equal rises: no class separates
            for j, u, v in zip(cols, xs, ys):
                a, lone = abs(j), abs(far - j) < L
                if a >= best:
                    break
                if u == v and (su == sv or lone or a + L >= best):
                    continue  # a level start separates at step 1 at the soonest
                g = (max(a, _separating_gauge(u, v, m)) if lone
                     else _class_minimum(a, L, u, su, v, sv, m, min(abs(far), best - 1), best))
                if g < best:
                    best = g
    return Distance.dyadic(best)


def _class_minimum(a0, L, u0, su, v0, sv, m, amax=inf, bound=inf):
    """Minimum of max(a0 + k*L, separating gauge at column k) over k >= 0
    with a0 + k*L <= amax, for one residue class of tail columns; inf when
    no such column separates the configurations.

    The column at step k sits at absolute position a0 + k*L (a0 >= 0) and
    carries heights u(k) / v(k): constant when infinite, otherwise affine
    with the given per-step increments. A caller whose best candidate is b
    may pass amax = b - 1, as step k gives at least a0 + k*L, and bound = b,
    as it gives at least g0 - s*k too (g0 the gauge at step 0, or at step 1
    when step 0 is level, and s >= 0 the fastest approach to m): a class whose
    crossing of those two lines is >= b returns inf before it builds any
    candidate set. Either way the answer is exact when the true minimum is
    below b, and >= b else; the default bound, inf, cuts no class.
    """
    u_inf, v_inf = isinstance(u0, Infinity), isinstance(v0, Infinity)
    if u0 == v0:  # a level start: step 1 is the first that may separate
        if su == sv or u_inf:
            return inf  # and none ever does
        a0, u0, v0 = a0 + L, u0 + su, v0 + sv
    if amax < a0:
        return inf  # no column in range
    g0 = _separating_gauge(u0, v0, m)
    if u_inf or v_inf:  # an infinite height never moves: read the finite side's rate
        su = sv = sv if u_inf else su
    s = max(-min(su, sv) if min(u0, v0) > m else max(su, sv), 0)
    if a0 - (a0 - g0) * L // (L + s) >= bound:
        return inf
    kmax = inf if amax == inf else (amax - a0) // L

    def least(steps):  # the least value over the steps, clipped to amax
        return min((max(a0 + k * L, _separating_gauge(u0 + su * k, v0 + sv * k, m))
                    for k in {min(k, kmax) for k in steps}), default=inf)

    # Steps 0..2 first: a step k >= 3 gives at least a0 + 3L, so a best at
    # or below that is final, as is the best when no step past 2 is in range.
    best = min(max(a0, g0), least((1, 2)))
    if best <= a0 + 3 * L or kmax < 3:
        return best
    # Else the integer neighbourhoods of every breakpoint of the piecewise-
    # affine gauge term and of its crossings with the |column| term: the
    # true function's least value over them and steps 0..2 is exact.
    roots = [] if u_inf or v_inf else [(v0 - u0, su - sv)]  # where u and v coincide
    for w0, sw, w_inf in ((u0, su, u_inf), (v0, sv, v_inf)):
        for c0, d in () if w_inf else ((w0 - m, sw), (m - w0, -sw)):
            # where c0 + d*k changes sign, meets the clamp 1 and crosses |column|
            roots += [(-c0, d), (1 - c0, d), (c0 - a0, L - d)]
    # the steps k >= 0 among q - 1..q + 2, q = num // den
    return min(best, least(k for num, den in roots if den
                           for k in range(max(num // den - 1, 0), num // den + 3)))
