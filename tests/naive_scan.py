"""Slow reference scans that the tests compare the closed forms against.

The saturating reading `beta`, difference vectors and the per-column
`local_delta` are the paper's definitions, written out plainly. The
injectivity reference enumerates candidates with the recursive
(weight, lexicographic) generators and keys each one by its whole image,
computed from scratch. The pre-image reference tries every candidate of
the bounded class in turn and checks its image column by column.

They read configurations only through `height` (or `Tail.at`) and the
tail period words and slopes, so they share no logic with `Tail.window`,
`equals`, `first_difference` or `distance`. `whole_window_distance` keeps
the closed-form class minimum of `distance` but reads every column of the
aligned window one by one, takes each tail's rise per lcm period from its
slope and finite entries, and minimises every residue class, with no
runs, no blocks and no pruning; `naive_distance_exponent` checks the
closed forms themselves. The image reference evaluates each column on its
own, from its difference vector and the first-match scan of the rule
table, so it shares no logic with `window_image`, its kernels, its memo
or the match bit sets of `_lookup`. `naive_canonical_form` reduces tails
and trims the core one `Tail.at` at a time, and builds every tail and
configuration through the checked public constructors, so it shares no
logic with the sliced period tests of `_reduce_tail`, the flat edge trim
of `_canonicalize`, the unchecked `_tail` and `_configuration` that
`apply` and `_canonicalize` build with, or `Tail.window`.

`naive_L_preimage` builds the explicit L pre-image one `height` call per
column, with a bisect over the list of variations, so it shares no logic
with the one-pass `zoo.build_L_preimage`. `naive_iterate` and
`naive_nilpotency` step an orbit with a plain `apply` loop, so they share
no logic with `automaton._orbit`.
"""

import bisect

from dataclasses import dataclass
from itertools import product
from math import inf, lcm

from sandlab.analysis import BOUND_EXCEEDED, EVIDENCE, PROOF, WITNESS_FOUND, WitnessReport
from sandlab.automaton import NEG, POS, WILDCARD, apply, window_image
from sandlab.config import Configuration, Tail, has_infinite_column
from sandlab.errors import CoreBoundExceeded, DomainError
from sandlab.heights import Height, Infinity, MINUS_INF, PLUS_INF
from sandlab.metric import Distance, _class_minimum, _separating_gauge


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


def atom_matches(atom, value: Height) -> bool:
    """Whether one pattern atom matches one reading."""
    if atom is WILDCARD:
        return True
    if atom is POS:
        return value is PLUS_INF or (not isinstance(value, Infinity) and value > 0)
    if atom is NEG:
        return value is MINUS_INF or (not isinstance(value, Infinity) and value < 0)
    return atom == value


def first_match_delta(automaton, entries) -> int:
    """Delta of the first table line whose atoms all match the readings
    `entries`, else the table's default."""
    for rule in automaton.rules:
        for atom, value in zip(rule.pattern, entries):
            if not atom_matches(atom, value):
                break
        else:
            return rule.delta
    return automaton.default_delta


def code_readings(r: int, code: int) -> tuple:
    """The 2r readings whose reading code is `code`: digit 0 is -infinity,
    digit 2r + 2 is +infinity and digit d is the reading d - r - 1."""
    top = 2 * r + 2
    out = []
    for _ in range(2 * r):
        code, digit = divmod(code, top + 1)
        out.append(
            MINUS_INF if digit == 0 else PLUS_INF if digit == top else digit - r - 1
        )
    return tuple(reversed(out))


def local_delta(automaton, dvec: DifferenceVector) -> int:
    """Delta for one column given its difference vector (first match wins)."""
    if dvec.size != automaton.radius:
        raise ValueError(
            f"difference vector of gauge {dvec.size} fed to a radius-"
            f"{automaton.radius} rule table"
        )
    return first_match_delta(automaton, dvec.entries)


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


def naive_window(tail: Tail, j: int, n: int) -> tuple:
    """tail.at(j), ..., tail.at(j + n - 1), one column at a time."""
    return tuple(tail.at(k) for k in range(j, j + n))


def _naive_rebased(tail: Tail, k: int) -> Tail:
    """The tail with its boundary moved k columns outward, read column by
    column over one period."""
    return Tail(naive_window(tail, k, len(tail.values)), tail.slope)


def _naive_mirror(tail: Tail) -> Tail:
    """The left tail continuing a right tail backwards from its boundary."""
    return Tail(naive_window(tail, -len(tail.values), len(tail.values))[::-1], -tail.slope)


def naive_reduced_tail(tail: Tail) -> Tail:
    """The tail's primitive period, found by testing each divisor q of the
    period length column by column: at(j + q) == at(j) + t for j < p - q,
    with t the slope share of q columns. Slope 0 when no entry is finite."""
    p = len(tail.values)
    finite = [v for v in tail.values if not isinstance(v, Infinity)]
    slope = tail.slope if finite else 0
    for q in range(1, p):
        if p % q or (slope * q) % p:
            continue
        t = slope * q // p
        if all(tail.at(j + q) == tail.at(j) + t for j in range(p - q)):
            return Tail(tail.values[:q], t)
    return Tail(tail.values, slope)


def naive_canonical_form(c: Configuration) -> Configuration:
    """The canonical representative `canonicalize` documents, built one
    column at a time: reduced tails, the core trimmed while an edge column
    equals its tail's next column, then for an empty core the anchor
    (least period window when globally periodic, 0 when globally affine
    with a slope, else the least valid anchor)."""
    left, right = naive_reduced_tail(c.left), naive_reduced_tail(c.right)
    core = c.core
    hi = len(core)
    while hi and core[hi - 1] == right.at(hi - 1 - len(core)):
        hi -= 1
    lo = 0
    while lo < hi and core[lo] == left.at(-1 - lo):
        lo += 1
    start = c.core_start + lo
    left, right = _naive_rebased(left, -lo), _naive_rebased(right, hi - len(core))
    if lo < hi:
        return Configuration(start, core[lo:hi], left, right)
    if left == _naive_mirror(right):
        base = 0
        if right.slope == 0:
            window = lambda b: naive_window(right, b - start, len(right.values))
            base = min(range(len(right.values)), key=window)
        right = _naive_rebased(right, base - start)
        return Configuration(base, (), _naive_mirror(right), right)
    n = 0
    while left.at(n) == right.at(-1 - n):
        n += 1
    return Configuration(start - n, (), _naive_rebased(left, n), _naive_rebased(right, -n))


def _anchored_span(x: Configuration, y: Configuration):
    """Both cores and column 0, and the lcm tail periods (Ll, Lr)."""
    lo = min(x.core_start, y.core_start, 0)
    hi = max(x.core_end, y.core_end, 0)
    Ll = lcm(len(x.left.values), len(y.left.values))
    Lr = lcm(len(x.right.values), len(y.right.values))
    return lo, hi, Ll, Lr


def naive_first_difference(x: Configuration, y: Configuration):
    """The column `first_difference` documents, one column at a time: the
    least differing column in lo-Ll..hi+Lr; else, where one side's tails
    rise by different amounts over its lcm period, the first finite column
    past the span on that side (right before left), one lcm period on."""
    lo, hi, Ll, Lr = _anchored_span(x, y)
    for j in range(lo - Ll, hi + Lr + 1):
        if x.height(j) != y.height(j):
            return j
    for edge, d, L in ((hi, 1, Lr), (lo, -1, Ll)):
        finite = [
            j for j in range(edge + d, edge + d * (L + 1), d)
            if not isinstance(x.height(j), Infinity)
        ]
        if finite:
            j, far = finite[0], finite[0] + d * L
            if x.height(far) - x.height(j) != y.height(far) - y.height(j):
                return far
    return None


def _rise(tail: Tail, L: int) -> int:
    """How much the finite entries of a tail gain over L columns, L a
    multiple of its period: one slope per period copy, or 0 when no
    entry is finite."""
    if all(isinstance(v, Infinity) for v in tail.values):
        return 0
    return tail.slope * (L // len(tail.values))


def whole_window_distance(x: Configuration, y: Configuration) -> Distance:
    """`distance` read as two whole tuples over lo-Ll..hi+Lr, with a
    closed-form minimum for every residue class past the span."""
    lo, hi, Ll, Lr = _anchored_span(x, y)
    base = lo - Ll
    xs = tuple(x.height(j) for j in range(base, hi + Lr + 1))
    ys = tuple(y.height(j) for j in range(base, hi + Lr + 1))
    x0 = xs[-base]
    if x0 != ys[-base]:
        return Distance.dyadic(0)
    m = 0 if isinstance(x0, Infinity) else x0
    cands = [max(abs(j), _separating_gauge(xs[j - base], ys[j - base], m))
             for j in range(lo, hi + 1) if j]
    for tx, ty, L, first in (
        (x.right, y.right, Lr, range(hi + 1, hi + Lr + 1)),
        (x.left, y.left, Ll, range(base, lo)),
    ):
        sx, sy = _rise(tx, L), _rise(ty, L)
        for j in first:
            u, v = xs[j - base], ys[j - base]
            cands.append(_class_minimum(abs(j), L, u, sx, v, sy, m))
    best = min(cands, default=inf)
    return Distance.zero() if best == inf else Distance.dyadic(best)


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


def naive_L_preimage(c: Configuration) -> Configuration:
    """A configuration that L maps onto c: each column undoes a +/-1 whose
    sign alternates away from the nearest height variation at or below it."""
    if has_infinite_column(c.canonicalize()):
        raise DomainError("pre-image construction needs finite heights")
    cc = c.canonicalize()
    a, b = cc.core_start, cc.core_end
    pl, pr = len(cc.left.values), len(cc.right.values)
    A = a - 2 - 2 * pl
    B = b + 2 + 2 * pr
    lo_scan = A - 2 * pl - 2
    hi_scan = B + pr + 2
    variations = [
        i for i in range(lo_scan, hi_scan + 1) if cc.height(i) != cc.height(i - 1)
    ]
    if not variations:
        return cc

    def governing(i):
        pos = bisect.bisect_right(variations, i)
        return variations[pos - 1] if pos else None

    def pre(i):
        v = governing(i)
        if v is None:
            return cc.height(i)
        ascending = cc.height(v) > cc.height(v - 1)
        even = (i - v) % 2 == 0
        return cc.height(i) + (1 if ascending == even else -1)

    core = tuple(pre(i) for i in range(A, B + 1))
    left_has = any(
        cc.height(i) != cc.height(i - 1) for i in range(a - 2 * pl, a - pl)
    )
    right_has = any(
        cc.height(i) != cc.height(i - 1) for i in range(b + 2 + pr, b + 2 + 2 * pr)
    )
    if left_has:
        left = Tail(tuple(pre(A - 1 - j) for j in range(pl)), cc.left.slope)
    else:
        left = cc.left
    if right_has:
        right = Tail(tuple(pre(B + 1 + j) for j in range(pr)), cc.right.slope)
    else:
        right = Tail((pre(B + 1), pre(B + 2)), 0)
    return Configuration(A, core, left, right).canonicalize()


def naive_iterate(automaton, c: Configuration, steps: int, cap: int):
    """`iterate` as a plain `apply` loop: the input at steps=0, else the
    last image, stopping at the first image equal to its pre-image."""
    for n in range(steps):
        c, prev = apply(automaton, c), c
        if len(c.core) > cap:
            raise CoreBoundExceeded(
                f"core grew to {len(c.core)} columns (cap {cap}) at step {n + 1}"
            )
        if naive_equals(c, prev):
            break
    return c


def naive_nilpotency(automaton, c: Configuration, steps: int, cap: int):
    """`check_nilpotent_bounded` as a plain `apply` loop."""
    zero, bounds = Configuration(0, ()), {"steps": steps}
    for step in range(steps + 1):
        if naive_equals(c, zero):
            note = "orbit reaches the all-zero configuration"
            if step == 0:
                note += (" at step 0: the input already is 0; counted as a "
                         "(degenerate) success by convention")
            return WitnessReport(WITNESS_FOUND, c.canonicalize(), bounds, note,
                                 PROOF, {"steps_to_zero": step})
        if step == steps:
            break
        nxt = apply(automaton, c)
        if len(nxt.core) > cap:
            return WitnessReport(BOUND_EXCEEDED, None, bounds,
                                 "core growth guard tripped before the step bound",
                                 EVIDENCE, {"steps_done": step + 1})
        if naive_equals(nxt, c):
            return WitnessReport(
                BOUND_EXCEEDED, None, bounds,
                "orbit reached a non-zero fixed point; it can never reach 0. "
                "Zero-reachability for all inputs stays undecidable in "
                "general, so bounded runs report BOUND_EXCEEDED",
                EVIDENCE, {"steps_done": step + 1, "fixed_point": True})
        c = nxt
    return WitnessReport(
        BOUND_EXCEEDED, None, bounds,
        "no zero configuration within the step bound; nilpotency is "
        "undecidable in general, so exceeding the bound decides nothing",
        EVIDENCE, {"steps_done": steps})
