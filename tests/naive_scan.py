"""Slow reference scans that the tests compare the closed forms against.

The saturating reading `beta`, difference vectors and the per-column
`local_delta` are the paper's definitions, written out plainly.

They read configurations only through `height` and the tail period
lengths, so they share no logic with `equals`, `first_difference` or
`distance`; the image reference evaluates each column on its own, from
its difference vector and the first-match scan, so it shares no logic
with `window_image` or its memo.
"""

from dataclasses import dataclass
from math import lcm

from sandlab.automaton import _delta_from_entries
from sandlab.config import Configuration
from sandlab.errors import DomainError
from sandlab.heights import Height, Infinity, MINUS_INF, PLUS_INF


def beta(l: int, m: int, n: Height) -> Height:
    """Reading of height n by a size-l device calibrated at height m:
    heights more than l above m read as +infinity, more than l below as
    -infinity, and anything infinite stays infinite."""
    if l < 0:
        raise DomainError("device size must be >= 0")
    if isinstance(n, Infinity):
        return n
    if n > m + l:
        return PLUS_INF
    if n < m - l:
        return MINUS_INF
    return n - m


@dataclass(frozen=True)
class DifferenceVector:
    """The 2l beta-readings around one position (just (c_i,) when l = 0).

    `reference` is the calibration height m: the centre column's height
    when finite, else 0.
    """

    entries: tuple
    size: int
    reference: int


def diff_vector(c: Configuration, i: int, l: int) -> DifferenceVector:
    """Difference vector of c at position i with gauge l."""
    if l < 0:
        raise DomainError("gauge must be >= 0")
    centre = c.height(i)
    m = 0 if isinstance(centre, Infinity) else centre
    if l == 0:
        return DifferenceVector((centre,), 0, m)
    entries = tuple(
        beta(l, m, c.height(i + off))
        for off in (*range(-l, 0), *range(1, l + 1))
    )
    return DifferenceVector(entries, l, m)


def local_delta(automaton, dvec: DifferenceVector) -> int:
    """Delta for one column given its difference vector (first match wins)."""
    if dvec.size != automaton.radius:
        raise ValueError(
            f"difference vector of gauge {dvec.size} fed to a radius-"
            f"{automaton.radius} rule table"
        )
    return _delta_from_entries(automaton, dvec.entries)


def naive_equals(x: Configuration, y: Configuration) -> bool:
    """Compare heights over both cores plus two aligned periods per side.

    Beyond the cores every residue class modulo the lcm period is, in each
    sequence, an affine progression or a constant infinity; two of those
    that agree on two consecutive terms agree everywhere.
    """
    Ll = lcm(len(x.left.values), len(y.left.values))
    Lr = lcm(len(x.right.values), len(y.right.values))
    lo = min(x.core_start, y.core_start) - 2 * Ll
    hi = max(x.core_end, y.core_end) + 2 * Lr
    return all(x.height(i) == y.height(i) for i in range(lo, hi + 1))


def naive_distance_exponent(x: Configuration, y: Configuration, max_gauge: int):
    """Scan gauges 0..max_gauge for the least separating one (None if all
    agree). Exponential-value-blind reference used to cross-check
    `distance`; only viable for small separations."""
    for l in range(max_gauge + 1):
        if diff_vector(x, 0, l) != diff_vector(y, 0, l):
            return l
    return None


def naive_image_heights(automaton, c: Configuration, lo: int, hi: int) -> tuple:
    """Image heights of columns lo..hi, one column at a time."""
    r = automaton.radius
    out = []
    for i in range(lo, hi + 1):
        h = c.height(i)
        if not isinstance(h, Infinity):
            h += local_delta(automaton, diff_vector(c, i, r))
        out.append(h)
    return tuple(out)
