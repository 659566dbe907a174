"""Slow reference scans that the tests compare the closed forms against.

The saturating reading `beta`, difference vectors and the per-column
`local_delta` are the paper's definitions, written out plainly. The
injectivity reference enumerates candidates with the recursive
(weight, lexicographic) generators and keys each one by its whole image,
computed from scratch. The pre-image reference tries every candidate of
the bounded class in turn and checks its image column by column.

They read configurations only through `height` and the tail period
lengths, so they share no logic with `equals`, `first_difference` or
`distance`; the image reference evaluates each column on its own, from
its difference vector and the first-match scan, so it shares no logic
with `window_image` or its memo.
"""

from dataclasses import dataclass
from itertools import product
from math import lcm

from sandlab.automaton import _delta_from_entries, window_image
from sandlab.config import Configuration, Tail
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


def _tuples_by_weight(width: int, values):
    """All height tuples of the given width, ordered by (number of nonzero
    entries, lexicographic position in `values`). Total count is exactly
    len(values)^width."""
    for weight in range(width + 1):
        yield from _weighted_tuples(width, weight, values)


def _weighted_tuples(width, weight, values):
    if weight > width:
        return
    if width == 0:
        yield ()
        return
    for v in values:
        if v == 0:
            if weight <= width - 1:
                for rest in _weighted_tuples(width - 1, weight, values):
                    yield (v,) + rest
        elif weight > 0:
            for rest in _weighted_tuples(width - 1, weight - 1, values):
                yield (v,) + rest


def _primitive_root(word: tuple) -> tuple:
    p = len(word)
    for q in range(1, p):
        if p % q == 0 and word == word[:q] * (p // q):
            return word[:q]
    return word


def injective_candidates(automaton, klass: str, n_or_p: int, values):
    """(candidate, image key) for every candidate of the bounded injectivity
    class in the documented order. Class F keys are the whole image of
    pad + tup + pad; class P keys are the primitive root of the image word
    of columns 0..q-1, and non-primitive candidates are skipped."""
    r = automaton.radius
    if klass == "F":
        pad = (0,) * (2 * r)
        for tup in _tuples_by_weight(2 * n_or_p + 1, values):
            yield tup, tuple(window_image(automaton, pad + tup + pad))
        return
    for q in range(1, n_or_p + 1):
        for tup in _tuples_by_weight(q, values):
            if _primitive_root(tup) == tup:
                around = [tup[k % q] for k in range(-r, q + r)]
                yield tup, _primitive_root(tuple(window_image(automaton, around)))


def injective_reference(automaton, klass: str, n_or_p: int, values):
    """(first colliding candidate pair or None, candidates visited)."""
    seen = {}
    visited = 0
    for tup, key in injective_candidates(automaton, klass, n_or_p, values):
        visited += 1
        if key in seen:
            return (seen[key], tup), visited
        seen[key] = tup
    return None, visited


def naive_maps_onto(automaton, c: Configuration, target: Configuration) -> bool:
    """True iff the image of c is target, compared column by column.

    The image of c keeps c's tail periods beyond its core widened by r, so
    as in `naive_equals` two aligned periods per side past both cores
    settle the rest."""
    r = automaton.radius
    Ll = lcm(len(c.left.values), len(target.left.values))
    Lr = lcm(len(c.right.values), len(target.right.values))
    lo = min(c.core_start - r, target.core_start) - 2 * Ll
    hi = max(c.core_end + r, target.core_end) + 2 * Lr
    return all(
        naive_image_heights(automaton, c, i, i) == (target.height(i),)
        for i in range(lo, hi + 1)
    )


def preimage_reference(automaton, target, klass: str, n: int, h: int, inf=False):
    """The first candidate of the bounded pre-image class whose image is
    target, or None. Candidates come by period 1..n (class P) or by
    background pair (bgl, bgr) in [-h, h]^2 (class EC; (0, 0) for class F,
    words on columns -n..n), then by word, lexicographic in the value
    order -inf, -h..h, +inf (the infinities only with `inf`)."""
    values = [*range(-h, h + 1)]
    if inf:
        values = [MINUS_INF, *values, PLUS_INF]
    if klass == "P":
        candidates = (
            Configuration.periodic(word)
            for q in range(1, n + 1)
            for word in product(values, repeat=q)
        )
    else:
        bgs = range(-h, h + 1) if klass == "EC" else (0,)
        candidates = (
            Configuration(-n, word, Tail((bgl,), 0), Tail((bgr,), 0))
            for bgl, bgr in product(bgs, repeat=2)
            for word in product(values, repeat=2 * n + 1)
        )
    return next((c for c in candidates if naive_maps_onto(automaton, c, target)), None)
