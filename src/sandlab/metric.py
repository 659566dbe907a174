"""The exact ultrametric distance between configurations.

The measuring device beta_l^m clips a height n to the window [-l, l]
around a reference height m: heights more than l above m read as +infinity,
more than l below as -infinity, and anything infinite stays infinite.
Difference vectors collect these readings for the 2l columns around a
position. Two configurations are at distance 2^-l where l is the least
gauge at which their difference vectors at position 0 disagree; equal
configurations are at distance 0.

Distances are kept exact: a Distance is a flag for zero plus the exponent
l, never a float. Equal canonical keys give 0 at once; otherwise `distance`
reads the canonical forms and scans no gauges, as the exponent grows with
the heights: a column j gives max(|j|, least gauge separating its heights).
It walks the runs of `config._runs` outward from column 0, nearest first: a
column run column by column, a class run by each residue class, minimised in
closed form from its first column up to the run's far end or the best
candidate so far, and a shared run, which never differs, not at all. A class
starting at column j never goes below |j|, so the walk stops once |j|
reaches the best candidate, and cores far apart cost no more than near ones.
"""

from __future__ import annotations

from functools import total_ordering
from math import inf

from .config import Configuration, Value, _check_int, _runs, aligned_blocks, equals
from .heights import Height, Infinity, PLUS_INF


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

    def _key(self):
        # larger exponent = smaller value; zero smallest of all
        return float("-inf") if self.is_zero else -self.exponent

    def __lt__(self, other):
        return self._key() < other._key() if isinstance(other, Distance) else NotImplemented

    def as_float(self) -> float:
        """Approximate float value (0.0 on underflow)."""
        if self.is_zero or self.exponent > 1074:
            return 0.0
        return 2.0 ** -self.exponent

    def __str__(self):
        return "0" if self.is_zero else f"2^-{self.exponent}"


def _separating_gauge(u: Height, v: Height, m: int):
    """Least l >= 1 at which beta_l^m tells u and v apart; inf when u == v,
    as no gauge does."""
    if u == v:
        return inf
    u_inf = isinstance(u, Infinity)
    v_inf = isinstance(v, Infinity)
    if u_inf and v_inf:
        return 1
    if u_inf or v_inf:
        top, w = (u, v) if u_inf else (v, u)
        return max(1, w - m if top is PLUS_INF else m - w)
    lo, hi = (u, v) if u < v else (v, u)
    return lo - m if lo > m else m - hi if hi < m else 1


def distance(x: Configuration, y: Configuration) -> Distance:
    """Exact distance 2^-l, where l is the least gauge whose difference
    vectors at position 0 disagree. Walks the canonical forms' runs
    outward from column 0, nearest first, each from its near end, up to
    the first column j with |j| >= the best candidate so far."""
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
        # the first L columns start one residue class each
        count = min(L, abs(far - start) + 1)
        for cols, xs, ys in aligned_blocks(x, y, start, start + d * (count - 1)):
            if abs(cols[0]) >= best:
                break
            if su == sv and xs == ys:
                continue  # equal starts and equal rises: no class separates
            for j, u, v in zip(cols, xs, ys):
                if abs(j) >= best:
                    break
                g = (max(abs(j), _separating_gauge(u, v, m)) if abs(far - j) < L
                     else _class_minimum(abs(j), L, u, su, v, sv, m, min(abs(far), best - 1)))
                if g < best:
                    best = g
    return Distance.dyadic(best)


def _class_minimum(a0, L, u0, su, v0, sv, m, amax=inf):
    """Minimum of max(a0 + k*L, separating gauge at column k) over k >= 0
    with a0 + k*L <= amax, for one residue class of tail columns; inf when
    no such column separates the configurations.

    The column at step k sits at absolute position a0 + k*L (a0 >= 0) and
    carries heights u(k) / v(k): constant when infinite, otherwise affine
    with the given per-step increments. As the value at step k is at least
    a0 + k*L, a caller whose best candidate is b may pass amax = b - 1: the
    clipped minimum is exact when the true one is below b, and >= b else.
    """
    u_inf, v_inf = isinstance(u0, Infinity), isinstance(v0, Infinity)
    if amax < a0 or u0 == v0 and (su == sv or u_inf or amax - a0 < L):
        return inf  # no column in range, or none in range ever separates
    if amax - a0 < L or u_inf and v_inf:
        return max(a0, _separating_gauge(u0, v0, m))  # one column decides

    # Candidate steps: small k, plus integer neighbourhoods of every
    # breakpoint of the piecewise-affine gauge term and of its crossings
    # with the |column| term, clipped to amax. Evaluating the true function
    # at all of them and taking the least value is exact.
    cands = {0, 1, 2}

    def add_root(num, den):
        if den:  # the steps k >= 0 among q - 1..q + 2, q = num // den
            q = num // den
            cands.update(range(max(q - 1, 0), q + 3))

    forms = []  # affine expressions c + d*k whose sign/clamp changes matter
    for w0, sw, w_inf in ((u0, su, u_inf), (v0, sv, v_inf)):
        if not w_inf:
            forms += [(w0 - m, sw), (m - w0, -sw)]
    if not u_inf and not v_inf:
        add_root(v0 - u0, su - sv)  # where u and v coincide
    for c0, d in forms:
        add_root(-c0, d)  # sign change of the form
        add_root(1 - c0, d)  # clamp boundary max(1, form)
        add_root(c0 - a0, L - d)  # crossing with the |column| arm

    best = inf
    for k in cands if amax == inf else {min(k, (amax - a0) // L) for k in cands}:
        u = u0 if u_inf else u0 + su * k
        v = v0 if v_inf else v0 + sv * k
        g = max(a0 + k * L, _separating_gauge(u, v, m))
        if g < best:
            best = g
    return best
