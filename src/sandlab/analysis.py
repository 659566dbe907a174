"""Bounded decision procedures: injectivity, pre-images, nilpotency.

None of these properties is decidable in general, so every procedure here
is explicitly bounded and says what its answer is worth:

  WITNESS_FOUND         a concrete object was found and re-verified by
                        direct application of the global map (trust the
                        object, not the search);
  EXHAUSTED_NO_WITNESS  the full bounded class was enumerated and nothing
                        was found - evidence, not proof, unless a
                        conservation-style argument is supplied;
  BOUND_EXCEEDED        a resource bound (steps, core growth) stopped the
                        run before an answer.

Reports are deterministic: the same inputs and seed produce byte-identical
text and JSON renderings. Enumeration orders are fixed and documented:
candidate height tuples are generated by (number of nonzero entries,
lexicographic) so the structurally smallest witnesses surface first.
"""

from __future__ import annotations

from .automaton import SandAutomaton, _core_cap, apply, window_image
from .config import Configuration, Tail, Value, equals, first_difference
from .errors import DomainError
from .heights import MINUS_INF, PLUS_INF
from .rng import Lcg64, sample_configuration

WITNESS_FOUND = "WITNESS_FOUND"
EXHAUSTED_NO_WITNESS = "EXHAUSTED_NO_WITNESS"
BOUND_EXCEEDED = "BOUND_EXCEEDED"

#: grade for a re-verified witness or an argument-backed exhaustion
PROOF = "proof"
#: grade for a bare bounded search
EVIDENCE = "evidence"


class WitnessReport(Value):
    """Outcome of one bounded check. See module docstring for verdicts.

    `witness` is a Configuration, a pair of them, or None.
    """

    __slots__ = _fields = (
        "verdict", "witness", "bounds", "evidence_note", "grade", "details"
    )

    def __init__(
        self, verdict, witness=None, bounds=None, evidence_note="", grade=EVIDENCE,
        details=None,
    ):
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
    vals = list(range(-h, h + 1))
    if include_infinities:
        return [MINUS_INF] + vals + [PLUS_INF]
    return vals


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


def _primitive_root(values: tuple) -> tuple:
    """The shortest word whose repetitions spell `values`."""
    p = len(values)
    for q in range(1, p):
        if p % q == 0 and values == values[:q] * (p // q):
            return values[:q]
    return values


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
    if n_or_p < 1 or h < 1:
        raise DomainError("bounds must be >= 1")
    values = _height_values(h, include_infinities)
    bounds = {("window" if klass == "F" else "period"): n_or_p, "height": h}

    r = automaton.radius
    if klass == "F":
        width = 2 * n_or_p + 1
        total = len(values) ** width
        candidates = _tuples_by_weight(width, values)
        pad = (0,) * (2 * r)
        key_of = lambda tup: tuple(window_image(automaton, pad + tup + pad))
        build = lambda tup: Configuration(-n_or_p, tup)
    else:
        total = sum(len(values) ** q for q in range(1, n_or_p + 1))
        candidates = (
            tup
            for q in range(1, n_or_p + 1)
            for tup in _tuples_by_weight(q, values)
            if _primitive_root(tup) == tup
        )
        # Both images are anchored at column 0, so they are equal exactly
        # when their one-period words have the same primitive root.
        key_of = lambda tup: _primitive_root(
            tuple(window_image(automaton, _cyclic_read(tup, r)))
        )
        build = Configuration.periodic
    if total > max_candidates:
        raise DomainError(
            f"enumeration of {total} candidates exceeds the guard "
            f"({max_candidates})"
        )

    seen = {}
    visited = 0
    for tup in candidates:
        visited += 1
        key = key_of(tup)
        if key in seen:
            pair = (build(seen[key]).canonicalize(), build(tup).canonicalize())
            if not verify_witness_pair(automaton, *pair):  # pragma: no cover
                raise AssertionError("image-key collision failed re-verification")
            return WitnessReport(
                WITNESS_FOUND,
                pair,
                bounds,
                "distinct inputs share an image, re-verified by direct "
                "application; the global map is not injective on this class",
                PROOF,
                {"candidates": visited},
            )
        seen[key] = tup
    return WitnessReport(
        EXHAUSTED_NO_WITNESS,
        None,
        bounds,
        "no two candidates in the bounded class share an image; says "
        "nothing about configurations outside the bounds",
        EVIDENCE,
        {"candidates": visited},
    )


def _cyclic_read(word, r):
    """Heights of columns -r..q-1+r of the periodic configuration whose
    columns 0..q-1 carry `word` (q = len(word))."""
    q = len(word)
    return [word[k % q] for k in range(-r, q + r)]


# -- pre-image search ---------------------------------------------------------


def check_preimage_bounded(
    automaton: SandAutomaton,
    target: Configuration,
    klass: str,
    n: int,
    h: int,
    include_infinities: bool = False,
) -> WitnessReport:
    """Search a bounded class for a configuration mapping onto `target`.

    Class "F": support in [-n, n], heights in [-h, h], zero background.
    Class "EC": same window, plus independently chosen constant left and
    right backgrounds in [-h, h]. Class "P": periodic candidates of period
    <= n anchored at 0. Search is depth-first in ascending height order
    with prefix pruning (a candidate column fixes one image column, which
    is checked immediately), so the first hit is the lexicographically
    least pre-image in the class; every hit is re-verified by apply.
    """
    if klass not in ("F", "P", "EC"):
        raise DomainError(f"class must be 'F', 'P' or 'EC', got {klass!r}")
    if n < 1 or h < 1:
        raise DomainError("bounds must be >= 1")
    values = _height_values(h, include_infinities)
    bounds = {("period" if klass == "P" else "window"): n, "height": h}
    nodes = 0

    def report_found(cfg):
        canon = cfg.canonicalize()
        if not equals(apply(automaton, canon), target):  # pragma: no cover
            raise AssertionError("pre-image candidate failed re-verification")
        return WitnessReport(
            WITNESS_FOUND,
            canon,
            bounds,
            "applying the rule to the witness reproduces the target exactly",
            PROOF,
            {"nodes": nodes},
        )

    if klass in ("F", "EC"):
        backgrounds = [(0, 0)] if klass == "F" else [
            (bl, br) for bl in range(-h, h + 1) for br in range(-h, h + 1)
        ]
        for bgl, bgr in backgrounds:
            found, n_nodes = _linear_preimage_dfs(
                automaton, target, n, values, bgl, bgr
            )
            nodes += n_nodes
            if found is not None:
                return report_found(found)
    else:
        for q in range(1, n + 1):
            if not equals(target.shift(q), target):
                continue  # a q-periodic candidate has a q-periodic image
            found, n_nodes = _cyclic_preimage_dfs(automaton, target, q, values)
            nodes += n_nodes
            if found is not None:
                return report_found(found)

    return WitnessReport(
        EXHAUSTED_NO_WITNESS,
        None,
        bounds,
        "no candidate in the bounded class maps onto the target; larger "
        "pre-images may exist outside the bounds",
        EVIDENCE,
        {"nodes": nodes},
    )


def _linear_preimage_dfs(automaton, target, n, values, bgl, bgr):
    """DFS over column assignments on [-n, n] with fixed backgrounds.

    Returns (configuration or None, nodes visited). Assigning column j
    fixes the image of column j - r, which is checked at once; the columns
    the window never reaches were checked against the constant background
    images up front.
    """
    r = automaton.radius
    goal = target.heights(-n - r, n + r)
    img_l = window_image(automaton, [bgl] * (2 * r + 1))[0]
    img_r = window_image(automaton, [bgr] * (2 * r + 1))[0]
    if not equals(
        target, Configuration(-n - r, goal, Tail((img_l,), 0), Tail((img_r,), 0))
    ):
        return None, 0

    # row holds columns -n-2r.., so its last 2r+1 entries are the window
    # of the column whose image the newest column fixes
    def prefix_ok(row):
        k = len(row) - 2 * r - 1
        return window_image(automaton, row[k:])[0] == goal[k]

    def complete(row):
        edge = window_image(automaton, row[-2 * r :] + [bgr] * (2 * r))
        if tuple(edge) != goal[-2 * r :]:
            return None
        return Configuration(
            -n, tuple(row[2 * r :]), Tail((bgl,), 0), Tail((bgr,), 0)
        )

    return _dfs([bgl] * (2 * r), 2 * n + 1, values, prefix_ok, complete)


def _cyclic_preimage_dfs(automaton, target, q, values):
    """DFS over one period of a q-periodic candidate (anchored at 0)."""
    r = automaton.radius
    goal = target.heights(0, q - 1)

    def prefix_ok(word):
        # columns r..q-1-r have their whole window inside the word
        i = len(word) - 1 - r
        return not r <= i <= q - 1 - r or (
            window_image(automaton, word[i - r :])[0] == goal[i]
        )

    def complete(word):
        if tuple(window_image(automaton, _cyclic_read(word, r))) != goal:
            return None
        return Configuration.periodic(tuple(word))

    return _dfs([], q, values, prefix_ok, complete)


def _dfs(prefix, width, values, prefix_ok, complete):
    """Depth-first search over `width` more entries appended to `prefix`,
    in ascending lexicographic order of `values`, without recursion.

    `prefix_ok(row)` vets the newest entry of a partial row and
    `complete(row)` turns a full row into a witness or None. Returns
    (witness or None, nodes visited).
    """
    row = list(prefix)
    nxt = [0]  # per open depth, the index in `values` to try next
    nodes = 0
    while nxt:
        k = nxt[-1]
        if k == len(values):
            nxt.pop()
            if nxt:
                row.pop()
            continue
        nxt[-1] = k + 1
        row.append(values[k])
        nodes += 1
        if prefix_ok(row):
            if len(nxt) < width:
                nxt.append(0)
                continue
            found = complete(row)
            if found is not None:
                return found, nodes
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
    if steps < 0:
        raise DomainError("step bound must be >= 0")
    cap = _core_cap(max_core)
    zero = Configuration.finite({}).canonical_key()
    bounds = {"steps": steps}
    current = c
    for step in range(steps + 1):
        # states after step 0 come from apply, canonical form cached
        if current.canonical_key() == zero:
            note = "orbit reaches the all-zero configuration"
            if step == 0:
                note += (
                    " at step 0: the input already is 0; counted as a "
                    "(degenerate) success by convention"
                )
            return WitnessReport(
                WITNESS_FOUND,
                current.canonicalize(),
                bounds,
                note,
                PROOF,
                {"steps_to_zero": step},
            )
        if step == steps:
            break
        nxt = apply(automaton, current)
        if len(nxt.core) > cap:
            return WitnessReport(
                BOUND_EXCEEDED,
                None,
                bounds,
                "core growth guard tripped before the step bound",
                EVIDENCE,
                {"steps_done": step + 1},
            )
        if equals(nxt, current):
            return WitnessReport(
                BOUND_EXCEEDED,
                None,
                bounds,
                "orbit reached a non-zero fixed point; it can never reach 0. "
                "Zero-reachability for all inputs stays undecidable in "
                "general, so bounded runs report BOUND_EXCEEDED",
                EVIDENCE,
                {"steps_done": step + 1, "fixed_point": True},
            )
        current = nxt
    return WitnessReport(
        BOUND_EXCEEDED,
        None,
        bounds,
        "no zero configuration within the step bound; nilpotency is "
        "undecidable in general, so exceeding the bound decides nothing",
        EVIDENCE,
        {"steps_done": steps},
    )


# -- composition checks -------------------------------------------------------


def verify_witness_pair(
    automaton: SandAutomaton, c1: Configuration, c2: Configuration
) -> bool:
    """True iff c1, c2 are distinct but share their image."""
    return not equals(c1, c2) and equals(
        apply(automaton, c1), apply(automaton, c2)
    )


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
    restored every sample.
    """
    if samples < 1:
        raise DomainError("sample count must be >= 1")
    rng = Lcg64(seed)
    height = 4
    bounds = {"samples": samples, "height": height}
    for index in range(samples):
        c = sample_configuration(rng, height, include_infinities=True)
        restored = apply(outer, apply(inner, c))
        if not equals(restored, c):
            col = first_difference(restored, c)
            return WitnessReport(
                WITNESS_FOUND,
                c.canonicalize(),
                bounds,
                f"composition differs from the identity at column {col} "
                f"of sample {index}",
                PROOF,
                {"sample_index": index, "seed": seed},
            )
    return WitnessReport(
        EXHAUSTED_NO_WITNESS,
        None,
        bounds,
        "composition restored every sampled configuration; random "
        "evidence only",
        EVIDENCE,
        {"seed": seed},
    )
