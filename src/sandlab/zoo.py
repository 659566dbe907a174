"""A small zoo of named automata plus constructive witness builders.

The five automata; each table lives only in its bundled rule file
`witnesses/<name>.rule`, which `make(name)` reads:

  S   radius 1, the sandpile rule: a grain falls off any column that reads
      +infinity on its left and not -infinity on its right, and lands on
      any column reading the mirror situation; a column between two
      saturated readings is in free fall and keeps its height.
  Sr  radius 1, the arrow-reversed sandpile: grains climb instead of fall.
      S after Sr restores every configuration; the other order does not.
  L   radius 1, left-matching: each column moves one grain toward its left
      neighbour's height (sign classes, so any visible difference counts).
  X   radius 2, a table reading only the two left neighbours, built so
      that exactly the periodic words 0101... and 0202... collide.
  Y   radius 2, a sloped variant of X whose collisions live on affine
      configurations and nowhere in the periodic classes.

The builders at the bottom construct witness configurations: an explicit
one-step pre-image for L, the crown padding that turns a finite-class
collision into a periodic one, and the periodic splice that extracts a
periodic pre-image from an arbitrary one.
"""

from __future__ import annotations

from functools import cache

from . import witnesses
from .automaton import SandAutomaton, apply
from .config import (
    Configuration,
    Tail,
    _check_int,
    _check_span,
    equals,
    has_infinite_column,
    is_finite_class,
    support_radius,
)
from .errors import DomainError

ZOO = ("S", "Sr", "L", "X", "Y")


@cache
def make(name: str) -> SandAutomaton:
    """The named zoo automaton, read from its bundled rule file on the
    first call; every later call returns that automaton, so each name has
    one delta memo per process. An unknown name raises and is not kept."""
    if name not in ZOO:
        raise DomainError(f"unknown zoo automaton {name!r}; have {sorted(ZOO)}")
    return witnesses.load_rule(name)


# make("S") and make("Sr") under the names perfbench/workloads.py calls
def make_S() -> SandAutomaton:
    return make("S")


def make_Sr() -> SandAutomaton:
    return make("Sr")


# -- explicit pre-image for L ------------------------------------------------
#
# Under L every column moves one grain toward its left neighbour, so a
# column of the pre-image can be recovered from the target by undoing a
# +/-1 whose sign alternates away from the nearest height variation at or
# below the column; columns with no variation anywhere below are fixed.


def build_L_preimage(c: Configuration) -> Configuration:
    """A configuration that L maps onto c, built in one pass over columns."""
    cc = c.canonicalize()
    if has_infinite_column(cc):
        raise DomainError("pre-image construction needs finite heights")
    a, b = cc.core_start, cc.core_end
    pl, pr = len(cc.left.values), len(cc.right.values)

    # widened core window; margins keep tail periodicity arguments valid
    A = a - 2 - 2 * pl
    B = b + 2 + 2 * pr
    lo = A - 2 * pl - 2
    hs = cc.heights(lo - 1, B + pr + 2)  # hs[i - lo + 1] is column i
    if len(set(hs)) == 1:
        return cc  # constant configurations are their own pre-image
    # pre[i - lo]: a variation sets the sign of the +/-1, which then alternates
    pre, sign = [], 0
    for below, h in zip(hs, hs[1:]):
        sign = -sign if h == below else 1 if h > below else -1
        pre.append(h + sign)
    n = A - lo  # pre[n] is column A
    core = pre[n : n + B - A + 1]
    # a level left tail is copied below the first variation (the sign stays
    # 0); past the last one the pre-image alternates, so q >= 2 columns
    left = Tail(pre[n - pl : n][::-1], cc.left.slope)
    n += len(core)  # pre[n] is column B + 1
    q = max(pr, 2)
    right = Tail(pre[n : n + q], cc.right.slope * q // pr)
    return Configuration(A, core, left, right).canonicalize()


# -- crown padding ------------------------------------------------------------


def crown_lift(c1: Configuration, c2: Configuration, automaton: SandAutomaton):
    """Turn a finite-class collision into a periodic one.

    Given distinct finite-class c1, c2 with equal images, returns the pair
    of (2k + 2r + 1)-periodic configurations that repeat each input's
    central window [-k, k] padded with zero columns, k being the larger
    support radius. The copies are too far apart to see each other, so the
    images again agree and the pair is a periodic-class collision. A period
    longer than the core cap raises CoreBoundExceeded before it is read.
    """
    if not (is_finite_class(c1) and is_finite_class(c2)):
        raise DomainError("crown padding needs finite-class configurations")
    if equals(c1, c2):
        raise DomainError("crown padding needs distinct configurations")
    if not equals(apply(automaton, c1), apply(automaton, c2)):
        raise DomainError("crown padding needs a colliding pair")
    k = max(support_radius(c1), support_radius(c2))
    r = automaton.radius
    _check_span("crown period", 2 * (k + r) + 1)

    def lift(c):  # c is 0 past its support radius, so past k
        values = c.heights(-(k + r), k + r)
        return Configuration.periodic(values).shift(-(k + r)).canonicalize()

    return lift(c1), lift(c2)


# -- periodic splice -----------------------------------------------------------


def splice_match_indices(
    automaton: SandAutomaton, c: Configuration, c0: Configuration, period: int
) -> tuple:
    """The cut positions (k1, k2) used by `periodic_splice`: the first two
    multiples of the period at which c shows identical 2r-windows.

    A period longer than the core cap raises CoreBoundExceeded before the
    target's periodicity is tested, since that test reads a period of
    columns."""
    _check_int("period", period, 1)
    _check_span("splice period", period)
    if has_infinite_column(c.canonicalize()):
        raise DomainError("splice needs finite heights")
    if not equals(c0.shift(period), c0):
        raise DomainError(f"target is not {period}-periodic")
    if not equals(apply(automaton, c), c0):
        raise DomainError("c is not a pre-image of the target")
    r = automaton.radius
    scan_bound = (2 * r + 1) ** (2 * r) + 1
    seen = {}
    for alpha in range(scan_bound):
        k = alpha * period
        window = c.heights(k - r, k + r - 1)
        if window in seen:
            return seen[window], k
        seen[window] = k
    raise AssertionError("no repeated window within the pigeonhole bound")  # pragma: no cover


def periodic_splice(
    automaton: SandAutomaton, c: Configuration, c0: Configuration, period: int
) -> Configuration:
    """From any pre-image c of a p-periodic c0, cut out a periodic pre-image.

    Scans the multiples of p for two positions whose 2r-windows of c agree;
    repeating the block of c between them yields a periodic configuration
    whose image is still c0. Each window entry deviates from the periodic
    target by at most r, so the windows take boundedly many values and a
    repeat must appear within (2r+1)^(2r) + 1 multiples. A block longer
    than the core cap raises CoreBoundExceeded before it is read.
    """
    k1, k2 = splice_match_indices(automaton, c, c0, period)
    _check_span("splice block", k2 - k1)
    block = c.heights(k1, k2 - 1)
    return Configuration.periodic(block).shift(k1).canonicalize()
