"""Rule tables and the exact global update map.

A rule table has a radius 1 <= r <= MAX_RADIUS and maps the 2r
beta-readings around a column (each in [-r, r] or infinite) to a grain
delta in [-r, r]. Tables are ordered: the first matching line wins, with a
table-wide default when nothing matches. Pattern atoms are exact values,
the two infinities, a wildcard, or the sign classes POS / NEG (which
include the respective infinity).

That first-match scan defines the rule; evaluation reads it through a
memo. The 2r readings of a column, left to right, are the digits of one
base-(2r+3) reading code (-infinity -> 0, d -> d + r + 1, +infinity ->
2r + 2), and each automaton keeps one dict from code to delta (`memo`;
`zoo.make` gives one automaton per name). A miss ANDs one bit set of
matching lines per digit, built on the first miss; the lowest bit left is
the first match (`_lookup`). `window_image`, the one evaluator, maps a
flat run of heights to the images of its inner columns with a kernel
compiled once per radius (`_kernel`): one window is read in straight-line
code, and a longer run reads each height difference once, as the clipped
reading of i + t by i is the negation of that of i by i + t.

The global map adds the delta to every finite column; infinite columns
never change. `apply` realises one synchronous step exactly on the
core-plus-tails representation: tail windows shift rigidly under the map,
so the image keeps each period length and slope, and one kernel call on
the core and one period of each tail beyond r gives the whole raw image,
which is canonicalized once. `_orbit` is the one orbit loop, behind
`iterate` and the nilpotency probe; it reads the core cap once per orbit.
"""

from __future__ import annotations

from .config import Configuration, Value, _check_int, _configuration, _core_cap, _tail, equals
from .errors import CoreBoundExceeded, DomainError, RuleError
from .heights import Infinity, MINUS_INF, PLUS_INF


class _Marker:
    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


WILDCARD = _Marker("*")
POS = _Marker("pos")  # matches every height > 0, including +infinity
NEG = _Marker("neg")  # matches every height < 0, including -infinity

#: the largest radius `SandAutomaton` accepts; steps and searches read
#: 2r + 1 columns around each column, so a huge radius costs time and
#: memory before any rule line is looked at
MAX_RADIUS = 64


class Rule(Value):
    """One table line: a pattern of 2r atoms and its delta."""

    __slots__ = _fields = ("pattern", "delta")

    def __init__(self, pattern: tuple, delta: int):
        self.pattern = pattern
        self.delta = delta


class SandAutomaton(Value):
    """A radius, an ordered rule table and a default delta.

    The radius is checked here, once per automaton; the table and default
    are taken as given (`validate_rule` checks them).
    `memo` maps reading codes to deltas, filled on first use from the
    match bit sets `masks`, which the first miss builds (`_lookup`); both
    belong to this automaton, and equality, hashing and repr ignore them.
    """

    _fields = ("radius", "rules", "default_delta")
    __slots__ = (*_fields, "memo", "masks")

    def __init__(self, radius: int, rules: tuple = (), default_delta: int = 0):
        self.radius = _check_int("radius", radius, 1, MAX_RADIUS)
        self.rules = rules
        self.default_delta = default_delta
        self.memo = {}
        self.masks = None


def validate_rule(radius: int, lines, default_delta: int = 0) -> SandAutomaton:
    """Check a raw rule description and build the automaton.

    `lines` is a sequence of (pattern, delta) pairs; patterns bind the
    beta-readings of columns (i-r, ..., i-1, i+1, ..., i+r) in that order.
    A refusal is a RuleError whose `part` names the radius, the default or
    the index of the line at fault.
    """
    part = "radius"
    try:
        _check_int("radius", radius, 1, MAX_RADIUS)
        part = "default"
        _check_int("default delta", default_delta, -radius, radius)
        rules = []
        for part, line in enumerate(lines):
            try:
                pattern, delta = line
                pattern = tuple(pattern)
            except (TypeError, ValueError):
                raise DomainError(f"a rule line must be a (pattern, delta) pair: {line!r}") from None
            if len(pattern) != 2 * radius:
                raise DomainError(f"pattern has {len(pattern)} atoms, expected {2 * radius}")
            for atom in pattern:
                if not (atom is WILDCARD or atom is POS or atom is NEG
                        or atom is PLUS_INF or atom is MINUS_INF):
                    _check_int("atom", atom, -radius, radius)
            rules.append(Rule(pattern, _check_int("delta", delta, -radius, radius)))
    except DomainError as exc:
        raise RuleError(f"rule {part}: {exc}" if type(part) is int else str(exc), part) from None
    return SandAutomaton(radius, tuple(rules), default_delta)


def _build_masks(automaton: SandAutomaton) -> tuple:
    """masks[k][digit]: the bit set of the lines whose atom k matches the
    reading of that digit (a line with no atom k matches every reading).
    Readings are ints or infinities, which order against 0."""
    r, rules = automaton.radius, automaton.rules
    readings = (MINUS_INF, *range(-r, r + 1), PLUS_INF)
    rows = [[(1 << len(rules)) - 1] * len(readings) for _ in range(2 * r)]
    for i, rule in enumerate(rules):
        for row, atom in zip(rows, rule.pattern):
            for digit, v in enumerate(readings):
                if not (atom is WILDCARD or atom == v or (atom is POS and v > 0)
                        or (atom is NEG and v < 0)):
                    row[digit] &= ~(1 << i)
    automaton.masks = tuple(map(tuple, rows))
    return automaton.masks


def _lookup(automaton: SandAutomaton, code: int) -> int:
    """Delta at one reading code, memoised on first use: the lowest bit
    left in the AND of its digits' match sets is the first matching line."""
    delta = automaton.memo.get(code)
    if delta is None:
        live, rest = -1, code
        for row in reversed(automaton.masks or _build_masks(automaton)):
            rest, digit = divmod(rest, len(row))
            live &= row[digit]
        first = (live & -live).bit_length() - 1
        delta = automaton.rules[first].delta if live else automaton.default_delta
        automaton.memo[code] = delta
    return delta


def same_local_rule(a: SandAutomaton, b: SandAutomaton) -> bool:
    """True iff a and b have one radius and the same delta at every reading
    code, so they define the same global map however their tables read."""
    r = a.radius
    return r == b.radius and all(
        _lookup(a, code) == _lookup(b, code) for code in range((2 * r + 3) ** (2 * r))
    )


#: radius -> its column kernel, at most MAX_RADIUS entries (see `_kernel`)
_KERNELS = {}
_KERNEL_SOURCE = """def kernel(hs, automaton):
    memo = automaton.memo
    if len(hs) == {width}:
        {columns} = hs
        if c.__class__ is Infinity:
            return [c]
        code = {reads}
        delta = memo.get(code)
        return [c + (_lookup(automaton, code) if delta is None else delta)]
    out, runs, {carry} = [], zip(hs, {slices}), {zeros}
    append = out.append
    for _, (c, {ahead}) in zip(range({r}), runs):
        {carry} = {lent} if c.__class__ is Infinity else {pad}
    for c, {ahead} in runs:
        if c.__class__ is Infinity:
            append(c)
            {carry} = {lent}
        else:
            code = {forward}
            {carry} = {rolled}
            try:
                append(c + memo[code])
            except KeyError:
                append(c + _lookup(automaton, code))
    return out
"""


def _kernel(r: int):
    """The column kernel of radius r, compiled on first use. A reading
    clips a difference to the centre (an infinity minus an int stays put)
    to a digit less r + 1; one constant adds back the r + 1s. One window
    reads its 2r differences in straight-line code. On a longer run column
    i reads only h[i+t] - h[i], t = 1..r; the clip is odd, so column i + t
    reads i as the negation, which a_t carries, the partial code of column
    i + t. An infinite column, never subtracted from, lends (r + 1) * sign
    to the r after it. The first r columns only fill the carries."""
    if r not in _KERNELS:
        base, names, ts = 2 * r + 3, ["h%d" % k for k in range(2 * r)], range(1, r + 1)
        clip = "(%d if (d := %%s - c) < %d else d if d <= %d else %d)" % (-r - 1, -r, r, r + 1)
        one = (r + 1) * (base ** (2 * r) - 1) // (base - 1)
        reads = ["%s * %d" % (clip % h, base ** (2 * r - 1 - k)) for k, h in enumerate(names)]
        lent, pad, rolled, forward = [], [], [], ["a1"]
        for t in ts:  # a_t takes a_(t+1) (at t = r, the constant) less reading t times w
            x, w, after = "x%d" % t, base ** (r + t - 1), "a%d" % (t + 1) if t < r else one
            lent.append("%s + %d * c.sign" % (after, (r + 1) * w))
            pad.append("%s - %s * %d" % (after, clip % x, w))
            rolled.append("%s - f%d * %d" % (after, t, w))
            forward.append("(f%d := %s)" % (t, clip % x) + (" * %d" % base ** (r - t)) * (t < r))
        source = _KERNEL_SOURCE.format(
            r=r, width=2 * r + 1, columns=", ".join([*names[:r], "c", *names[r:]]),
            reads=" + ".join([*reads, str(one)]), carry=", ".join("a%d" % t for t in ts),
            ahead=", ".join("x%d" % t for t in ts), slices=", ".join("hs[%d:]" % t for t in ts),
            zeros=", ".join("0" * r), lent="(%s)" % ", ".join(lent), pad="(%s)" % ", ".join(pad),
            rolled=", ".join(rolled), forward=" + ".join(forward),
        )
        scope = {"Infinity": Infinity, "_lookup": _lookup}
        exec(compile(source, f"<sandlab kernel r={r}>", "exec"), scope)
        _KERNELS[r] = scope["kernel"]
    return _KERNELS[r]


def window_image(automaton: SandAutomaton, hs) -> list:
    """Images of the columns hs[r:-r] of a flat run of heights `hs`.

    Each finite column reads its 2r neighbours straight from the height
    differences into a reading code (module docstring, `_kernel`) and adds
    the memoised delta; infinite columns are fixed.
    """
    r = automaton.radius
    return (_KERNELS.get(r) or _kernel(r))(hs, automaton)


def apply(automaton: SandAutomaton, c: Configuration) -> Configuration:
    """One synchronous step of the global map, exactly.

    Tail columns further than r from the core see a window that is a rigid
    copy of the one a full period earlier (shifted by the slope, which the
    readings cancel), so their deltas repeat with the tail period and the
    image tail keeps the same length and slope (infinities stay put).
    One kernel call turns one flat run into one tuple: the core image, r
    columns either side and one period of each tail image, which is the
    input tail object when its word is unchanged. The raw image is built
    once from it and goes through the module-global `config._canonicalize`.
    """
    r, left, right = automaton.radius, c.left, c.right
    pl, pr = len(left.values), len(right.values)
    hs = left.window(0, 2 * r + pl)[::-1] + c.core + right.window(0, 2 * r + pr)
    img = tuple(window_image(automaton, hs))
    lw, rw = img[pl - 1 :: -1], img[-pr:]
    left = left if lw == left.values else _tail(lw, left.slope)
    right = right if rw == right.values else _tail(rw, right.slope)
    return _configuration(c.core_start - r, img[pl:-pr], left, right).canonicalize()


def _orbit(automaton: SandAutomaton, c: Configuration, steps: int, max_core):
    """Yield c, f(c), ... up to f^steps(c), ending after the first fixed
    point. The core cap is read once, before c is yielded; a core over it
    raises CoreBoundExceeded naming the step."""
    cap = _core_cap(max_core)
    yield c
    for n in range(steps):
        c, prev = apply(automaton, c), c
        if len(c.core) > cap:
            raise CoreBoundExceeded(
                f"core grew to {len(c.core)} columns (cap {cap}) at step {n + 1}"
            )
        yield c
        if equals(c, prev):
            return


def iterate(
    automaton: SandAutomaton,
    c: Configuration,
    steps: int,
    max_core: int | None = None,
) -> Configuration:
    """steps-fold application of the global map; it stops early at a
    fixed point, whose image every later step repeats.

    Raises CoreBoundExceeded if an intermediate canonical core outgrows
    `max_core` columns (default from SANDLAB_MAX_CORE, else 65536).
    """
    _check_int("step count", steps, 0)
    for c in _orbit(automaton, c, steps, max_core):
        pass
    return c
