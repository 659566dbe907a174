"""Slow reference scans that the tests compare the closed forms against.

They read configurations only through `height` and the tail period
lengths, so they share no logic with `equals`, `first_difference` or
`distance`; the image reference evaluates each column on its own, from
its difference vector and the first-match scan, so it shares no logic
with `window_image` or its memo.
"""

from math import lcm

from sandlab.automaton import local_delta
from sandlab.config import Configuration
from sandlab.heights import Infinity
from sandlab.metric import diff_vector


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
