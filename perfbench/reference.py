"""Slow, independent reference semantics used to check benchmark outputs.

Nothing here imports sandlab. Configurations are plain *specs* (tuples of
ints and the strings "+inf" / "-inf") that the benchmark both hands to
sandlab and evaluates here column by column, straight from the definitions
in the sandlab README:

    ("finite", ((column, height), ...))
    ("periodic", (v0, ..., vp-1))
    ("affine", (v0, ..., vp-1), slope)
    ("general", core_start, (core...), (left values...), left_slope,
                (right values...), right_slope)
    ("raised", k, spec)        every finite column of spec plus k
    ("shifted", k, spec)       column i holds spec's column i - k

Inside this module the infinities are the floats +-inf; finite heights stay
Python ints, so every comparison and every finite sum is exact.
"""

from __future__ import annotations

from math import lcm

PINF = float("inf")
NINF = -PINF

#: The five zoo rules as (radius, default delta, ordered (pattern, delta)
#: lines). Atoms: ints, "+inf", "-inf", "*", "pos" (> 0), "neg" (< 0).
ZOO_TABLES = {
    "S": (1, 0, [(("+inf", "-inf"), 0), (("+inf", "*"), 1), (("*", "-inf"), -1)]),
    "Sr": (1, 0, [(("+inf", "-inf"), 0), (("+inf", "*"), -1), (("*", "-inf"), 1)]),
    "L": (1, 0, [(("neg", "*"), -1), (("pos", "*"), 1)]),
    "X": (
        2,
        0,
        [
            (("+inf", "*", "*", "*"), -1),
            ((2, "*", "*", "*"), -1),
            ((1, -1, "*", "*"), -1),
            ((1, -2, "*", "*"), -1),
            ((1, "-inf", "*", "*"), -1),
            ((0, -2, "*", "*"), -1),
            ((0, "-inf", "*", "*"), -1),
        ],
    ),
    "Y": (
        2,
        0,
        [
            (("+inf", "*", "*", "*"), -1),
            ((2, "*", "*", "*"), -1),
            ((1, "*", "*", "*"), -1),
            ((0, "*", "*", "*"), -1),
            ((-1, "-inf", "*", "*"), -1),
        ],
    ),
}


def h(v):
    """Spec height to reference height."""
    if v == "+inf":
        return PINF
    if v == "-inf":
        return NINF
    return v


def is_inf(v) -> bool:
    return v == PINF or v == NINF


# -- heights of a spec ---------------------------------------------------------


def _tail_at(values, slope, j):
    k, idx = divmod(j, len(values))
    v = h(values[idx])
    return v if is_inf(v) else v + slope * k


def height(spec, i):
    kind = spec[0]
    if kind == "finite":
        for col, v in spec[1]:
            if col == i:
                return h(v)
        return 0
    if kind == "periodic":
        return h(spec[1][i % len(spec[1])])
    if kind == "affine":
        return _tail_at(spec[1], spec[2], i)
    if kind == "general":
        _, a, core, lv, ls, rv, rs = spec
        if a <= i < a + len(core):
            return h(core[i - a])
        if i >= a + len(core):
            return _tail_at(rv, rs, i - a - len(core))
        return _tail_at(lv, ls, a - 1 - i)
    if kind == "raised":
        v = height(spec[2], i)
        return v if is_inf(v) else v + spec[1]
    if kind == "shifted":
        return height(spec[2], i - spec[1])
    raise ValueError(f"unknown spec kind {kind!r}")


def extent(spec):
    """(lo, hi, left period, right period): outside [lo, hi] the spec is
    affine-periodic with those periods."""
    kind = spec[0]
    if kind == "finite":
        cols = [c for c, _ in spec[1]]
        return (min(cols), max(cols), 1, 1) if cols else (0, -1, 1, 1)
    if kind in ("periodic", "affine"):
        return 0, -1, len(spec[1]), len(spec[1])
    if kind == "general":
        _, a, core, lv, _, rv, _ = spec
        return a, a + len(core) - 1, len(lv), len(rv)
    if kind == "raised":
        return extent(spec[2])
    if kind == "shifted":
        lo, hi, pl, pr = extent(spec[2])
        return lo + spec[1], hi + spec[1], pl, pr
    raise ValueError(f"unknown spec kind {kind!r}")


def comparison_window(specs):
    """A column range [lo, hi] containing 0, both cores and two aligned
    tail periods on each side: two sequences that agree on it agree
    everywhere (equal values on one aligned window fix the values, equal
    values on the next one fix the per-window increment)."""
    ext = [extent(s) for s in specs]
    lo = min([e[0] for e in ext] + [0])
    hi = max([e[1] for e in ext] + [0])
    pl = lcm(*(e[2] for e in ext))
    pr = lcm(*(e[3] for e in ext))
    return lo - 2 * pl, hi + 2 * pr


def equal(x, y) -> bool:
    lo, hi = comparison_window((x, y))
    return all(height(x, i) == height(y, i) for i in range(lo, hi + 1))


def of_fields(core_start, core, left_values, left_slope, right_values, right_slope):
    """Spec of a configuration given by its explicit core and tails, with
    sandlab's infinities already turned into "+inf" / "-inf"."""
    return ("general", core_start, tuple(core), tuple(left_values), left_slope,
            tuple(right_values), right_slope)


# -- local rule and global step -----------------------------------------------


def reading(r, m, v):
    if is_inf(v):
        return v
    if v > m + r:
        return PINF
    if v < m - r:
        return NINF
    return v - m


def _matches(atom, v):
    if atom == "*":
        return True
    if atom == "pos":
        return v > 0
    if atom == "neg":
        return v < 0
    return h(atom) == v


def delta(table, readings):
    _, default, lines = table
    for pattern, d in lines:
        if all(_matches(a, v) for a, v in zip(pattern, readings)):
            return d
    return default


def image_of_window(table, hs):
    """Image heights of the columns of `hs` that have r neighbours inside
    it (so len(hs) - 2r values)."""
    r = table[0]
    out = []
    for i in range(r, len(hs) - r):
        c = hs[i]
        if is_inf(c):
            out.append(c)
            continue
        readings = [reading(r, c, hs[i + o]) for o in range(-r, r + 1) if o]
        out.append(c + delta(table, readings))
    return out


def iterate_window(table, spec, lo, hi, steps):
    """Heights of columns lo..hi after `steps` steps, from spec heights on
    the window widened by r columns per step on each side."""
    r = table[0]
    hs = [height(spec, i) for i in range(lo - r * steps, hi + r * steps + 1)]
    for _ in range(steps):
        hs = image_of_window(table, hs)
    return hs


def background_image(table, bg):
    """Image height of a column deep inside a constant-`bg` region."""
    return image_of_window(table, [bg] * (2 * table[0] + 1))[0]


def cyclic_image(table, word):
    """One period of the image of the periodic configuration `word`."""
    r, q = table[0], len(word)
    hs = [h(word[i % q]) for i in range(-r, q + r)]
    return image_of_window(table, hs)


class Pile:
    """A finite-height, zero-background configuration as an explicit list,
    stepped under a rule that keeps a zero background at zero."""

    def __init__(self, start, heights):
        self.start = start
        self.heights = list(heights)
        self.trim()

    def trim(self):
        hs = self.heights
        while hs and hs[-1] == 0:
            hs.pop()
        k = 0
        while k < len(hs) and hs[k] == 0:
            k += 1
        self.heights = hs[k:]
        self.start += k

    def is_zero(self):
        return not self.heights

    def step(self, table):
        r = table[0]
        pad = [0] * (2 * r)
        return Pile(self.start - r, image_of_window(table, pad + self.heights + pad))

    def key(self):
        return (self.start, tuple(self.heights)) if self.heights else ()


def nilpotent_outcome(table, start, heights, steps):
    """What a bounded zero-reachability probe must report on a pile:
    ("zero", step), ("fixed", steps_done) or ("bound", steps)."""
    cur = Pile(start, heights)
    for step in range(steps + 1):
        if cur.is_zero():
            return ("zero", step)
        if step == steps:
            break
        nxt = cur.step(table)
        if nxt.key() == cur.key():
            return ("fixed", step + 1)
        cur = nxt
    return ("bound", steps)


# -- the distance --------------------------------------------------------------


def naive_distance_exponent(x, y, max_gauge):
    """Least gauge l <= max_gauge at which the difference vectors of x and
    y at column 0 differ, or None when none does. Straight from the
    definition; quadratic in max_gauge."""
    x0, y0 = height(x, 0), height(y, 0)
    if x0 != y0:
        return 0
    m = 0 if is_inf(x0) else x0
    cols = [j for j in range(-max_gauge, max_gauge + 1) if j]
    hx = {j: height(x, j) for j in cols}
    hy = {j: height(y, j) for j in cols}
    for l in range(1, max_gauge + 1):
        for j in range(-l, l + 1):
            if j and reading(l, m, hx[j]) != reading(l, m, hy[j]):
                return l
    return None
