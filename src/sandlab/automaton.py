"""Rule tables and the exact global update map.

A rule table has a radius 1 <= r <= MAX_RADIUS and maps the 2r
beta-readings around a column (each in [-r, r] or infinite) to a grain
delta in [-r, r]. Tables are ordered: the first matching line wins, with a
table-wide default when nothing matches. Pattern atoms are exact values,
the two infinities, a wildcard, or the sign classes POS / NEG (which
include the respective infinity).

That first-match scan defines the rule, but evaluation goes through a
memo: the 2r readings of a column, left to right, are the digits of one
base-(2r+3) reading code (-infinity -> 0, d -> d + r + 1, +infinity ->
2r + 2), and each automaton keeps a dict from code to delta that the scan
fills on first use. `window_image` is the one evaluator: it maps a flat
run of heights to the images of its inner columns.

The global map adds the delta to every finite column; infinite columns
never change. `apply` realises one synchronous step exactly on the
core-plus-tails representation: tail windows shift rigidly under the map,
so the image keeps each period length and slope, and only a bounded
neighbourhood of the core needs explicit evaluation.
"""

from __future__ import annotations

import os

from .config import Configuration, Tail, Value
from .errors import CoreBoundExceeded, DomainError, RuleError
from .heights import Height, Infinity, MINUS_INF, PLUS_INF, is_finite


class _Marker:
    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


WILDCARD = _Marker("*")
POS = _Marker("pos")  # matches every height > 0, including +infinity
NEG = _Marker("neg")  # matches every height < 0, including -infinity

Atom = int | Infinity | _Marker

#: the largest radius `validate_rule` accepts; steps and searches read
#: 2r + 1 columns around each column, so a huge radius costs time and
#: memory before any rule line is looked at
MAX_RADIUS = 64


def atom_matches(atom: Atom, value: Height) -> bool:
    if atom is WILDCARD:
        return True
    if atom is POS:
        return value is PLUS_INF or (is_finite(value) and value > 0)
    if atom is NEG:
        return value is MINUS_INF or (is_finite(value) and value < 0)
    return atom == value


class Rule(Value):
    """One table line: a pattern of 2r atoms and its delta."""

    __slots__ = _fields = ("pattern", "delta")

    def __init__(self, pattern: tuple, delta: int):
        self.pattern = pattern
        self.delta = delta


class SandAutomaton(Value):
    """A radius, an ordered rule table and a default delta.

    `memo` maps reading codes to deltas, filled on first use (see
    `window_image`); equality, hashing and repr ignore it.
    """

    _fields = ("radius", "rules", "default_delta")
    __slots__ = (*_fields, "memo")

    def __init__(self, radius: int, rules: tuple = (), default_delta: int = 0):
        self.radius = radius
        self.rules = rules
        self.default_delta = default_delta
        self.memo = {}


def validate_rule(radius: int, lines, default_delta: int = 0) -> SandAutomaton:
    """Check a raw rule description and build the automaton.

    `lines` is a sequence of (pattern, delta) pairs; patterns bind the
    beta-readings of columns (i-r, ..., i-1, i+1, ..., i+r) in that order.
    """
    if isinstance(radius, bool) or not isinstance(radius, int) or radius < 1:
        raise RuleError(f"radius must be an integer >= 1, got {radius!r}", "radius")
    if radius > MAX_RADIUS:
        raise RuleError(f"radius {radius} is over the limit of {MAX_RADIUS}", "radius")
    if not isinstance(default_delta, int) or abs(default_delta) > radius:
        raise RuleError(
            f"default delta must lie in [-{radius}, {radius}], got {default_delta!r}",
            "default",
        )
    checked = []
    for idx, (pattern, delta) in enumerate(lines):
        pattern = tuple(pattern)
        if len(pattern) != 2 * radius:
            raise RuleError(
                f"rule {idx}: pattern has {len(pattern)} atoms, expected {2 * radius}",
                idx,
            )
        for atom in pattern:
            if isinstance(atom, (_Marker, Infinity)):
                continue
            if isinstance(atom, bool) or not isinstance(atom, int):
                raise RuleError(f"rule {idx}: bad atom {atom!r}", idx)
            if abs(atom) > radius:
                raise RuleError(
                    f"rule {idx}: atom {atom} outside the readable window "
                    f"[-{radius}, {radius}]",
                    idx,
                )
        if isinstance(delta, bool) or not isinstance(delta, int) or abs(delta) > radius:
            raise RuleError(
                f"rule {idx}: delta must lie in [-{radius}, {radius}], got {delta!r}",
                idx,
            )
        checked.append(Rule(pattern, delta))
    return SandAutomaton(radius, tuple(checked), default_delta)


def _delta_from_entries(automaton, entries):
    for rule in automaton.rules:
        for atom, value in zip(rule.pattern, entries):
            if not atom_matches(atom, value):
                break
        else:
            return rule.delta
    return automaton.default_delta


def _readings(r: int, code: int) -> tuple:
    """The 2r readings whose reading code is `code`."""
    top = 2 * r + 2
    out = []
    for _ in range(2 * r):
        code, digit = divmod(code, top + 1)
        out.append(
            MINUS_INF if digit == 0 else PLUS_INF if digit == top else digit - r - 1
        )
    return tuple(reversed(out))


def _lookup(automaton: SandAutomaton, code: int) -> int:
    """Delta at one reading code, scanned and memoised on first use."""
    delta = automaton.memo.get(code)
    if delta is None:
        entries = _readings(automaton.radius, code)
        delta = automaton.memo[code] = _delta_from_entries(automaton, entries)
    return delta


def same_local_rule(a: SandAutomaton, b: SandAutomaton) -> bool:
    """True iff a and b have one radius and the same delta at every reading
    code, so they define the same global map however their tables read."""
    r = a.radius
    return r == b.radius and all(
        _lookup(a, code) == _lookup(b, code) for code in range((2 * r + 3) ** (2 * r))
    )


def window_image(automaton: SandAutomaton, hs) -> list:
    """Images of the columns hs[r:-r] of a flat run of heights `hs`.

    Each finite column reads its 2r neighbours straight from the height
    differences into a reading code (module docstring) and adds the
    memoised delta; infinite columns are fixed.
    """
    r = automaton.radius
    top = 2 * r + 2
    offsets = (*range(-r, 0), *range(1, r + 1))
    memo = automaton.memo
    out = []
    for i in range(r, len(hs) - r):
        centre = hs[i]
        if isinstance(centre, Infinity):
            out.append(centre)
            continue
        code = 0
        for off in offsets:
            d = hs[i + off] - centre  # an infinity minus an int stays put
            code = code * (top + 1) + (0 if d < -r else d + r + 1 if d <= r else top)
        delta = memo.get(code)
        out.append(centre + (_lookup(automaton, code) if delta is None else delta))
    return out


def image_height(automaton: SandAutomaton, c: Configuration, i: int) -> Height:
    """Height of column i after one step. Infinite columns are fixed."""
    r = automaton.radius
    return window_image(automaton, c.heights(i - r, i + r))[0]


def apply_window(automaton: SandAutomaton, c: Configuration, lo: int, hi: int):
    """Image heights of columns lo..hi."""
    r = automaton.radius
    return tuple(window_image(automaton, c.heights(lo - r, hi + r)))


def apply(automaton: SandAutomaton, c: Configuration) -> Configuration:
    """One synchronous step of the global map, exactly.

    Tail columns further than r from the core see a window that is a rigid
    copy of the one a full period earlier (shifted by the slope, which the
    readings cancel), so their deltas repeat with the tail period and the
    image tail keeps the same length and slope. One flat read covers the
    core image, r columns either side of it, and one period of each tail
    image beyond that.
    """
    r = automaton.radius
    a = c.core_start
    b = c.core_end
    pl = len(c.left.values)
    pr = len(c.right.values)
    # img[k] is the image of column a - r - pl + k
    img = window_image(automaton, c.heights(a - 2 * r - pl, b + 2 * r + pr))
    core = tuple(img[pl : len(img) - pr])
    left = Tail(tuple(img[pl - 1 :: -1]), c.left.slope)
    right = Tail(tuple(img[len(img) - pr :]), c.right.slope)
    return Configuration(a - r, core, left, right).canonicalize()


DEFAULT_MAX_CORE = 65536


def _core_cap(max_core):
    cap = max_core
    if cap is None:
        env = os.environ.get("SANDLAB_MAX_CORE")
        try:
            cap = DEFAULT_MAX_CORE if env is None else int(env)
        except ValueError:
            raise DomainError(f"SANDLAB_MAX_CORE is not an integer: {env!r}")
    if cap < 0:
        raise DomainError(f"core cap must be >= 0, got {cap}")
    return cap


def iterate(
    automaton: SandAutomaton,
    c: Configuration,
    steps: int,
    max_core: int | None = None,
) -> Configuration:
    """steps-fold application of the global map.

    Raises CoreBoundExceeded if an intermediate canonical core outgrows
    `max_core` columns (default from SANDLAB_MAX_CORE, else 65536).
    """
    if steps < 0:
        raise DomainError("step count must be >= 0")
    cap = _core_cap(max_core)
    for n in range(steps):
        c = apply(automaton, c)
        if len(c.core) > cap:
            raise CoreBoundExceeded(
                f"core grew to {len(c.core)} columns (cap {cap}) at step {n + 1}"
            )
    return c
