"""Bounded decision procedures: injectivity, pre-images, nilpotency.

None of these properties is decidable in general, so every procedure here
is explicitly bounded and says what its answer is worth:

  WITNESS_FOUND         a concrete object was found and re-verified by
                        direct application of the global map (trust the
                        object, not the search);
  EXHAUSTED_NO_WITNESS  the full bounded class was enumerated and nothing
                        was found - evidence, not proof, unless a
                        conservation-style argument is supplied;
  BOUND_EXCEEDED        a resource bound (steps, core growth, search
                        nodes) stopped the run before an answer.

Reports are deterministic: the same inputs and seed produce byte-identical
text and JSON renderings. Enumeration orders are fixed and documented:
candidate height tuples are generated by (number of nonzero entries,
lexicographic) so the structurally smallest witnesses surface first.

The injectivity search walks that order as a prefix tree, one pass per
weight: a node evaluates only the image column its newest entry completes,
memoised per check on the code of the column's window. Each open depth runs
one loop over its entries; an inner entry descends and a leaf yields its
key. Image heights lie in [-h-r, h+r] or are infinite, so they are the
digits of one integer key, base 2(h+r)+4; a P key is the primitive root of
the image word read from column r. Equal keys mean equal images.

The pre-image search is one iterative depth-first walk for all three
classes over each column's candidates: every height, or at the 2r columns
a side that F and EC fix, the background. A node is one height tried at a
column the class enumerates; a window's image is checked against the
target once its last column is set, memoised per run on the window's code
unless the codes number more than WINDOW_MEMO_CAP. Which runs a target
gets is read off its canonical form alone: a periodic target's periods
are the multiples of its least period, the length of its canonical tail
word, and a target that is not periodic has no periodic pre-image.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .automaton import SandAutomaton, _orbit, apply, window_image
from .config import BLOCK, Configuration, Tail, Value, _check_int, equals, first_difference
from .errors import CoreBoundExceeded, DomainError
from .heights import MINUS_INF, PLUS_INF
from .rng import Lcg64, sample_configuration

WITNESS_FOUND = "WITNESS_FOUND"
EXHAUSTED_NO_WITNESS = "EXHAUSTED_NO_WITNESS"
BOUND_EXCEEDED = "BOUND_EXCEEDED"

#: grade for a re-verified witness or an argument-backed exhaustion
PROOF = "proof"
#: grade for a bare bounded search
EVIDENCE = "evidence"

#: the most window codes, count**(2r+1), whose images a pre-image run keeps;
#: past it every node calls the kernel, so the memo stays a few MB at most
WINDOW_MEMO_CAP = 2**16


class WitnessReport(Value):
    """Outcome of one bounded check. See module docstring for verdicts.

    `witness` is a Configuration, a pair of them, or None.
    """

    __slots__ = _fields = (
        "verdict", "witness", "bounds", "evidence_note", "grade", "details"
    )

    def __init__(self, verdict, witness=None, bounds=None, evidence_note="", grade=EVIDENCE,
                 details=None):
        self.verdict = verdict
        self.witness = witness
        self.bounds = {} if bounds is None else bounds
        self.evidence_note = evidence_note
        self.grade = grade
        self.details = {} if details is None else details

    def witness_configurations(self):
        if self.witness is None:
            return ()
        if isinstance(self.witness, Configuration):
            return (self.witness,)
        return tuple(self.witness)

    def to_dict(self) -> dict:
        """JSON-ready dictionary; configuration values are serialised by
        the formats module at the CLI layer."""
        return {
            "verdict": self.verdict,
            "witness_count": len(self.witness_configurations()),
            "bounds": dict(sorted(self.bounds.items())),
            "evidence_note": self.evidence_note,
            "grade": self.grade,
            "details": dict(sorted(self.details.items())),
        }


# -- candidate enumeration ---------------------------------------------------


def _height_values(h: int, include_infinities: bool):
    """The heights -h..h, with -inf first and +inf last when asked for, as
    (how many, a function returning a fresh ascending iterator over them);
    builds nothing."""
    finite = range(-h, h + 1)
    if include_infinities:
        return 2 * h + 3, lambda: chain((MINUS_INF,), finite, (PLUS_INF,))
    return 2 * h + 1, finite.__iter__


@lru_cache(maxsize=64)
def _units(q: int, base: int) -> list:
    """(base**d, the q/d-fold repunit of d digits) per divisor d of q."""
    return [(base**d, (base**q - 1) // (base**d - 1)) for d in range(1, q + 1) if q % d == 0]


def _root(word: int, q: int, base: int) -> int:
    """The primitive root of the q-digit base-`base` word, led by a 1."""
    for unit, repunit in _units(q, base):
        if word == word % unit * repunit:
            return unit + word % unit


def _image_keys(automaton: SandAutomaton, widths, pad: int, h: int, values):
    """Yield (image key, candidate) per candidate in the documented order
    (module docstring): words of each width, read between `pad` zero
    entries a side (class F, pad = 2r) or cyclically (class P, pad = 0)."""
    r = automaton.radius
    count, base, half = len(values), 2 * (h + r) + 4, len(values) ** (2 * r)
    span, shift, lift, mid = half * count, base ** (2 * r), 2 * r - pad, h + r + 2
    z = values.index(0)
    zero, nonzero, every = (z,), [i for i in range(count) if i != z], range(count)
    # per depth k: the code (the pad's indices into `values`, then one per
    # entry) and the key of the prefix of k entries, and how many nonzero
    # entries the rest of the word still needs
    codes, keys, needs = ([0] * (max(widths) + 1) for _ in range(3))
    codes[0] = (half - 1) // (count - 1) * z if pad else 0
    row = [0] * (2 * r + max(widths))  # 2r zeros, then the entries so far
    # window code -> the digit of its column; in class F also half**2 + the
    # code of the last 2r entries -> the image of the 2r columns after them
    memo = {}
    ends = [count ** (2 * r - 1 - j) for j in range(2 * r)]

    def image(hs):  # the image of hs[r:-r] as base-`base` digits, all > 0
        out = 0
        for y in window_image(automaton, hs):
            out = out * base + (y + mid if y.__class__ is int else 1 if y < 0 else base - 1)
        return out

    for width, weight in [(w, c) for w in widths for c in range(w + 1)]:
        needs[0] = weight
        first = zero if weight == 0 else nonzero if weight == width else every
        stack, top = [iter(first)], count**width
        while stack:
            k = len(stack)  # stack[-1] holds the entries still to try at depth k
            prefix, slot, lead = codes[k - 1] * count, 2 * r + k - 1, keys[k - 1] * base
            for i in stack[-1]:
                code = codes[k] = prefix + i
                if not pad and k == width and _root(code, k, count) != top + code:
                    continue  # a repetition of a shorter word
                row[slot], img = values[i], lead
                if k > lift:  # the newest entry completes a column
                    w = code % span
                    img += memo.get(w) or memo.setdefault(w, image(row[k - 1 : k + 2 * r]))
                if k < width:
                    keys[k] = img
                    need = needs[k] = needs[k - 1] - (i != z)
                    choice = zero if need == 0 else nonzero if need == width - k else every
                    stack.append(iter(choice))
                    break
                # a leaf: the last 2r entries, then the first 2r (the pad in
                # class F), give the 2r columns after the interior
                if pad:  # memoised on the last 2r entries, keyed above every window code
                    end = half * half + code % half
                    e = memo.get(end) or memo.setdefault(end, image(row[k:] + row[: 2 * r]))
                    img = img * shift + e
                elif k >= 2 * r:  # cyclic windows, mostly met inside earlier words
                    hs = row[k : k + 2 * r] + row[lift : lift + 2 * r]
                    cut = code % half * half + codes[lift]
                    for j, p in enumerate(ends):
                        w = cut // p % span
                        d = memo.get(w) or memo.setdefault(w, image(hs[j : j + 2 * r + 1]))
                        img = img * base + d
                else:
                    img = image([row[2 * r + t % k] for t in range(k + 2 * r)])
                yield img if pad else _root(img, k, base), tuple(row[2 * r : k + 2 * r])
            else:
                stack.pop()


# -- injectivity --------------------------------------------------------------


def check_injective_bounded(
    automaton: SandAutomaton,
    klass: str,
    n_or_p: int,
    h: int,
    include_infinities: bool = False,
    max_candidates: int = 10**7,
) -> WitnessReport:
    """Search a bounded configuration class for two inputs with one image.

    Class "F": every configuration with support inside [-n, n] and heights
    in [-h, h]. Class "P": every periodic configuration of period <= p
    (primitive value words only; repetitions denote the same sequences)
    anchored at column 0, heights in [-h, h]. Images are compared by a key
    that determines them completely, so any key collision is a real
    collision; each reported pair is nevertheless re-verified. Both
    classes refuse to start when they would enumerate more than
    `max_candidates` configurations.
    """
    if klass not in ("F", "P"):
        raise DomainError(f"class must be 'F' or 'P', got {klass!r}")
    name = "window" if klass == "F" else "period"
    bounds = {name: _check_int(name, n_or_p, 1), "height": _check_int("height", h, 1)}
    _check_int("max_candidates", max_candidates, 0)
    widths = [2 * n_or_p + 1] if klass == "F" else range(1, n_or_p + 1)
    # count >= 3, so count**bits alone passes the guard: no huge powers
    bits = max_candidates.bit_length()
    count, fresh = _height_values(h, include_infinities)
    if sum(count ** min(w, bits) for w in widths[: bits + 1]) > max_candidates:
        guard = f"enumeration of more than {max_candidates} candidates exceeds the guard"
        raise DomainError(guard)
    values = list(fresh())
    pad = 2 * automaton.radius if klass == "F" else 0
    build = (lambda word: Configuration(-n_or_p, word)) if pad else Configuration.periodic

    seen = {}
    visited = 0
    for key, word in _image_keys(automaton, widths, pad, h, values):
        visited += 1
        first = seen.setdefault(key, word)
        if first is not word:
            pair = (build(first).canonicalize(), build(word).canonicalize())
            if not verify_witness_pair(automaton, *pair):  # pragma: no cover
                raise AssertionError("image-key collision failed re-verification")
            note = ("distinct inputs share an image, re-verified by direct "
                    "application; the global map is not injective on this class")
            return WitnessReport(WITNESS_FOUND, pair, bounds, note, PROOF, {"candidates": visited})
    note = ("no two candidates in the bounded class share an image; says "
            "nothing about configurations outside the bounds")
    return WitnessReport(EXHAUSTED_NO_WITNESS, None, bounds, note, details={"candidates": visited})


# -- pre-image search ---------------------------------------------------------


def check_preimage_bounded(
    automaton: SandAutomaton,
    target: Configuration,
    klass: str,
    n: int,
    h: int,
    include_infinities: bool = False,
    max_nodes: int = 10**7,
) -> WitnessReport:
    """Search a bounded class for a configuration mapping onto `target`.

    Class "F": support in [-n, n], heights in [-h, h], zero background.
    Class "EC": same window, plus independently chosen constant left and
    right backgrounds in [-h, h]. Class "P": periodic candidates of period
    <= n anchored at 0; only the multiples q of the target's least period
    are tried, ascending, and none when the target is not periodic.
    Search is depth-first in ascending height order with prefix pruning (a
    candidate column fixes one image column, which is checked
    immediately), so the first hit is the lexicographically least
    pre-image in the class; every hit is re-verified by apply. One node is
    one height tried at a column the class enumerates; the 2r background
    columns a side are fixed and cost no node. Past `max_nodes` nodes the
    search stops with BOUND_EXCEEDED.
    """
    if klass not in ("F", "P", "EC"):
        raise DomainError(f"class must be 'F', 'P' or 'EC', got {klass!r}")
    name = "period" if klass == "P" else "window"
    bounds = {name: _check_int(name, n, 1), "height": _check_int("height", h, 1)}
    _check_int("max_nodes", max_nodes, 0)
    values = _height_values(h, include_infinities)
    r = automaton.radius
    t = target.canonicalize()
    if klass == "P":
        # a q-periodic candidate has a q-periodic image; a target is
        # periodic when its canonical form is one level word both ways, and
        # its periods are the multiples of that word's length
        p = len(t.right.values)
        periodic = not t.core and not t.right.slope and t.left == t.right.mirror()
        runs = ((0, q, {}, True) for q in (range(p, n + 1, p) if periodic else ()))
    else:
        # a constant background b has the image b + delta(0, ..., 0), so at
        # most one background per side matches the target beyond the window.
        # The target is level there when both canonical tails are one value
        # of slope 0 and the core, which starts and ends off its tails (a
        # constant target's empty one at column 0), lies inside -n-r..n+r
        drift = window_image(automaton, [0] * (2 * r + 1))[0]
        bgs = [u.values[0] - drift for u in (t.left, t.right)]
        allowed = range(0, 1) if klass == "F" else range(-h, h + 1)
        level = all(len(u.values) == 1 and not u.slope for u in (t.left, t.right))
        level = level and -n - r <= t.core_start and t.core_end <= n + r
        fits = level and all(type(b) is int and b in allowed for b in bgs)
        width, half = 2 * n + 1 + 4 * r, values[0] // 2  # 2r background columns a side
        pins = {c: ((b + half, b),) for j in range(2 * r) for c, b in zip((j, width - 1 - j), bgs)}
        runs = [(-n - 2 * r, width, pins, False)] if fits else []

    nodes = 0
    for run in runs:  # (start, width, table, periodic)
        found, used = _preimage_dfs(automaton, target, *run, values, max_nodes - nodes)
        nodes += used
        if nodes > max_nodes:
            note = "the search used up its node budget before it ended"
            return WitnessReport(BOUND_EXCEEDED, None, bounds, note, details={"nodes": max_nodes})
        if found is not None:
            canon = found.canonicalize()
            if not equals(apply(automaton, canon), target):  # pragma: no cover
                raise AssertionError("pre-image candidate failed re-verification")
            note = "applying the rule to the witness reproduces the target exactly"
            return WitnessReport(WITNESS_FOUND, canon, bounds, note, PROOF, {"nodes": nodes})
    note = ("no candidate in the bounded class maps onto the target; larger "
            "pre-images may exist outside the bounds")
    return WitnessReport(EXHAUSTED_NO_WITNESS, None, bounds, note, details={"nodes": nodes})


def _preimage_dfs(automaton, target, start, width, table, periodic, values, budget):
    """Depth-first search, without recursion, over the `width` columns from
    `start` of a pre-image of `target`. Column start + j tries the (index
    into `values`, height) pairs of `table[j]` in order, or with no entry
    every height of the lazy `values` (`_height_values`).

    From the row's (2r+1)-th entry on, each entry fixes the image of the
    column r to its left, checked at once against the target, which is read
    in blocks of 16 columns or more, up to BLOCK, as checks first need them.
    A full row is a pre-image with its ends as backgrounds or, in a periodic
    run (period `width`), once the 2r image columns around its end match
    too. Returns (configuration or None, nodes), or (None, budget + 1) on
    running out. A node is one height tried at a column with more than one
    candidate, as without the memo: the image of the newest window is
    memoised on its code, the indices into `values` of its 2r+1 entries
    (unless there are more than WINDOW_MEMO_CAP codes).
    """
    r = automaton.radius
    w = 2 * r + 1
    count, fresh = values
    cube = count**w if count**w <= WINDOW_MEMO_CAP else 1  # 1: one code, nothing kept
    lag = 0 if periodic else 2 * r  # how far the reads may trail the newest entry
    row, memo, goals, nodes = [], {}, [], 0  # goals[j]: the target at column start + r + j
    # per open depth: the entries still to try, the code before them, nodes per entry
    pairs = table.get(0)
    untried = [(enumerate(fresh()), 0, 1) if pairs is None else (iter(pairs), 0, len(pairs) > 1)]
    while untried:
        entries, parent, step = untried[-1]
        k = len(untried)  # entries go to column start + k - 1
        for i, v in entries:
            nodes += step
            if nodes > budget:
                return None, nodes
            if k > len(goals) + lag:  # read 16 columns or more, doubling up to BLOCK
                lo = start + r + len(goals)
                goals += target.heights(lo, lo + min(max(k, len(goals), 15), BLOCK))
            row.append(v)
            code = (parent * count + i) % cube
            if k >= w:  # the newest entry fixes the image of column start + k - 1 - r
                y = memo.get(code)
                if y is None:
                    y = window_image(automaton, row[-w:])[0]
                    if cube > 1:
                        memo[code] = y
                if y != goals[k - w]:
                    row.pop()
                    continue
            if k < width:
                pairs = table.get(k)
                untried.append((enumerate(fresh()), code, 1) if pairs is None
                               else (iter(pairs), code, len(pairs) > 1))
                break
            if not periodic:
                return Configuration(start, tuple(row), Tail(row[:1]), Tail(row[-1:])), nodes
            cut = width - 2 * r  # the 2r image columns around the end, read round the start
            around = [row[j % width] for j in range(cut, width + 2 * r)]
            ends = goals[cut:width] if cut >= 0 else [goals[j % width] for j in range(cut, width)]
            if window_image(automaton, around) == ends:
                return Configuration.periodic(tuple(row)), nodes
            row.pop()
        else:  # the depth and the row entry that opened it
            untried.pop()
            if untried:
                row.pop()
    return None, nodes


# -- nilpotency ---------------------------------------------------------------


def check_nilpotent_bounded(
    automaton: SandAutomaton,
    c: Configuration,
    steps: int,
    max_core: int | None = None,
) -> WitnessReport:
    """Iterate up to `steps` times looking for the all-zero configuration.

    Reaching it is conclusive for this orbit. Not reaching it within the
    bound proves nothing: whether every configuration eventually zeroes is
    undecidable in general, so a bounded run can only ever say
    BOUND_EXCEEDED. A detected non-zero fixed point is noted, since the
    orbit is then provably stuck, but the verdict stays BOUND_EXCEEDED.
    """
    _check_int("step bound", steps, 0)
    zero, bounds, last = Configuration(0, ()), {"steps": steps}, None
    try:
        for step, current in enumerate(_orbit(automaton, c, steps, max_core)):
            if equals(current, zero):
                note = "orbit reaches the all-zero configuration"
                if step == 0:
                    note += (
                        " at step 0: the input already is 0; counted as a "
                        "(degenerate) success by convention"
                    )
                witness, details = current.canonicalize(), {"steps_to_zero": step}
                return WitnessReport(WITNESS_FOUND, witness, bounds, note, PROOF, details)
            previous, last = last, current
    except CoreBoundExceeded:
        note = "core growth guard tripped before the step bound"
        details = {"steps_done": step + 1}
    else:  # the orbit ended at the step bound or after a fixed point
        if step and equals(last, previous):
            note = (
                "orbit reached a non-zero fixed point; it can never reach 0. "
                "Zero-reachability for all inputs stays undecidable in "
                "general, so bounded runs report BOUND_EXCEEDED"
            )
            details = {"steps_done": step, "fixed_point": True}
        else:
            note = (
                "no zero configuration within the step bound; nilpotency is "
                "undecidable in general, so exceeding the bound decides nothing"
            )
            details = {"steps_done": steps}
    return WitnessReport(BOUND_EXCEEDED, None, bounds, note, EVIDENCE, details)


# -- composition checks -------------------------------------------------------


def verify_witness_pair(automaton: SandAutomaton, c1: Configuration, c2: Configuration) -> bool:
    """True iff c1, c2 are distinct but share their image."""
    return not equals(c1, c2) and equals(apply(automaton, c1), apply(automaton, c2))


#: the most samples `verify_right_inverse` draws; each one costs two steps
MAX_SAMPLES = 10**6


def verify_right_inverse(
    outer: SandAutomaton,
    inner: SandAutomaton,
    samples: int,
    seed: int,
) -> WitnessReport:
    """Test equals(outer(inner(c)), c) on seeded random configurations.

    Draws `samples` configurations across all four constructor classes,
    heights up to 4 with infinities, from the documented generator and
    reports the first counterexample, or exhaustion when the composition
    restored every sample. Refuses more than MAX_SAMPLES samples.
    """
    _check_int("sample count", samples, 1, MAX_SAMPLES)
    rng = Lcg64(seed)
    height = 4
    bounds = {"samples": samples, "height": height}
    for index in range(samples):
        c = sample_configuration(rng, height, include_infinities=True)
        restored = apply(outer, apply(inner, c))
        if not equals(restored, c):
            col = first_difference(restored, c)
            note = f"composition differs from the identity at column {col} of sample {index}"
            details = {"sample_index": index, "seed": seed}
            return WitnessReport(WITNESS_FOUND, c.canonicalize(), bounds, note, PROOF, details)
    note = "composition restored every sampled configuration; random evidence only"
    return WitnessReport(EXHAUSTED_NO_WITNESS, None, bounds, note, details={"seed": seed})
