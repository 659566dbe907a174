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
Past the aligned span around column 0, each residue class of the lcm of the
primitive tail periods is minimised in closed form from its first column,
read outward in `config.BLOCK` column blocks; a class starting at column j
never goes below |j|, so each side stops once |j| reaches the best candidate.
"""

from __future__ import annotations

from functools import total_ordering

from .config import Configuration, Value, aligned_blocks, aligned_span, equals
from .errors import DomainError
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
        if exponent < 0:
            raise DomainError("distance exponent must be >= 0")
        return cls(False, exponent)

    def _key(self):
        # larger exponent = smaller value; zero smallest of all
        return float("-inf") if self.is_zero else -self.exponent

    def __lt__(self, other):
        return self._key() < other._key()

    def as_float(self) -> float:
        """Approximate float value (0.0 on underflow)."""
        if self.is_zero or self.exponent > 1074:
            return 0.0
        return 2.0 ** -self.exponent

    def __str__(self):
        return "0" if self.is_zero else f"2^-{self.exponent}"


def _separating_gauge(u: Height, v: Height, m: int):
    """Least l >= 1 at which beta_l^m tells u and v apart (None if u == v)."""
    if u == v:
        return None
    u_inf = isinstance(u, Infinity)
    v_inf = isinstance(v, Infinity)
    if u_inf and v_inf:
        return 1
    if u_inf or v_inf:
        inf, w = (u, v) if u_inf else (v, u)
        if inf is PLUS_INF:
            return max(1, w - m)
        return max(1, m - w)
    lo, hi = (u, v) if u < v else (v, u)
    if lo > m:
        return max(1, lo - m)
    if hi < m:
        return max(1, m - hi)
    return 1


def distance(x: Configuration, y: Configuration) -> Distance:
    """Exact distance 2^-l, where l is the least gauge whose difference
    vectors at position 0 disagree. Reads the canonical forms' span, then
    each side's residue classes outward in bounded blocks, up to the first
    class start j with |j| >= the best candidate so far."""
    if equals(x, y):
        return Distance.zero()
    x, y = x.canonicalize(), y.canonicalize()
    lo, hi, Ll, Lr = aligned_span(x, y)
    x0 = x.height(0)
    if x0 != y.height(0):
        return Distance.dyadic(0)
    m = 0 if isinstance(x0, Infinity) else x0

    best = min((max(abs(j), _separating_gauge(u, v, m))
                for cols, xs, ys in aligned_blocks(x, y, lo, hi) if xs != ys
                for j, u, v in zip(cols, xs, ys) if u != v), default=None)
    # Beyond lo..hi each residue class of columns is an affine progression
    # per configuration; minimise each in closed form from its first column.
    best = _outward_minimum(x, y, x.right, y.right, hi + 1, hi + Lr, m, best)
    best = _outward_minimum(x, y, x.left, y.left, lo - 1, lo - Ll, m, best)
    return Distance.dyadic(best)


def _outward_minimum(x, y, tx, ty, first, last, m, best):
    """`best` lowered by the residue classes of tails tx, ty that start at
    columns first..last (one lcm period L), walked outward: a class
    starting at column j stays >= |j|."""
    L = abs(last - first) + 1
    sx, sy = tx.step(L), ty.step(L)
    for cols, xs, ys in aligned_blocks(x, y, first, last):
        if best is not None and abs(cols[0]) >= best:
            return best
        if sx == sy and xs == ys:
            continue  # equal starts and equal steps: no class separates
        for j, u, v in zip(cols, xs, ys):
            if best is not None and abs(j) >= best:
                return best
            g = _class_minimum(abs(j), L, u, sx, v, sy, m)
            if g is not None and (best is None or g < best):
                best = g
    return best


def _class_minimum(a0, L, u0, su, v0, sv, m):
    """Minimum of max(a0 + k*L, separating gauge at column k) over k >= 0
    for one residue class of tail columns.

    The column at step k sits at absolute position a0 + k*L (a0 >= 1) and
    carries heights u(k) / v(k): constant when infinite, otherwise affine
    with the given per-step increments. Returns None when the class never
    separates the configurations.
    """
    u_inf = isinstance(u0, Infinity)
    v_inf = isinstance(v0, Infinity)
    if u_inf and v_inf:
        return None if u0 is v0 else max(a0, 1)
    if not u_inf and not v_inf and u0 == v0 and su == sv:
        return None

    # Candidate steps: small k, plus integer neighbourhoods of every
    # breakpoint of the piecewise-affine gauge term and of its crossings
    # with the |column| term. Evaluating the true function at all of them
    # and taking the least value is exact.
    cands = {0, 1, 2}

    def add_root(num, den):
        if den == 0:
            return
        q = num // den
        for k in (q - 1, q, q + 1, q + 2):
            if k >= 0:
                cands.add(k)

    forms = []  # affine expressions c + d*k whose sign/clamp changes matter
    if not u_inf:
        forms.append((u0 - m, su))
        forms.append((m - u0, -su))
    if not v_inf:
        forms.append((v0 - m, sv))
        forms.append((m - v0, -sv))
    if not u_inf and not v_inf:
        add_root(v0 - u0, su - sv)  # where u and v coincide
    for c0, d in forms:
        add_root(-c0, d)  # sign change of the form
        add_root(1 - c0, d)  # clamp boundary max(1, form)
        add_root(c0 - a0, L - d)  # crossing with the |column| arm

    best = None
    for k in sorted(cands):
        u = u0 if u_inf else u0 + su * k
        v = v0 if v_inf else v0 + sv * k
        g = _separating_gauge(u, v, m)
        if g is None:
            continue
        val = max(a0 + k * L, g)
        if best is None or val < best:
            best = val
    return best
