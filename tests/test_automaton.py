"""Tests for rule validation and exact global-map application."""

import itertools
import random
import time

import pytest

from sandlab import config
from sandlab.analysis import check_nilpotent_bounded
from sandlab.automaton import (
    MAX_RADIUS,
    NEG,
    POS,
    WILDCARD,
    SandAutomaton,
    _Marker,
    _KERNELS,
    _kernel,
    _lookup,
    apply,
    iterate,
    same_local_rule,
    validate_rule,
    window_image,
)
from sandlab.config import Configuration, Tail, equals, has_infinite_column
from sandlab.errors import CoreBoundExceeded, DomainError, RuleError
from sandlab.heights import MINUS_INF, PLUS_INF, Infinity
from sandlab.rng import Lcg64, sample_configuration
from sandlab import zoo

from naive_scan import (
    DifferenceVector,
    diff_vector,
    first_match_delta,
    local_delta,
    naive_image_heights,
    naive_iterate,
    naive_nilpotency,
    code_readings,
    random_rule,
)

ZERO = Configuration.finite({})


def images(a, c, lo, hi) -> tuple:
    """Image heights of columns lo..hi, read through `window_image`."""
    return tuple(window_image(a, c.heights(lo - a.radius, hi + a.radius)))


def test_validate_rule_builds_automaton():
    a = validate_rule(1, [((PLUS_INF, WILDCARD), 1)], 0)
    assert isinstance(a, SandAutomaton)
    assert a.radius == 1
    assert len(a.rules) == 1


def test_validate_rule_rejects_bad_radius():
    with pytest.raises(RuleError):
        validate_rule(0, [], 0)
    with pytest.raises(RuleError) as info:
        validate_rule(MAX_RADIUS + 1, [], 0)
    assert info.value.part == "radius"


def test_validate_rule_rejects_wrong_arity():
    with pytest.raises(RuleError):
        validate_rule(2, [((PLUS_INF,), -1)], 0)


def test_validate_rule_rejects_out_of_range_atom():
    with pytest.raises(RuleError):
        validate_rule(1, [((2, WILDCARD), 0)], 0)


def test_validate_rule_rejects_out_of_range_delta():
    with pytest.raises(RuleError):
        validate_rule(1, [((0, 0), 2)], 0)
    with pytest.raises(RuleError):
        validate_rule(1, [], -2)


def test_validate_rule_rejects_booleans():
    with pytest.raises(RuleError):
        validate_rule(1, [((True, WILDCARD), 0)], 0)
    # emit_rule_file would write `default: True`, which no parser reads back
    for default in (True, False):
        with pytest.raises(RuleError, match=f"default delta must be an int, got {default}") as info:
            validate_rule(1, [], default)
        assert info.value.part == "default"


def test_validate_rule_names_the_part_of_each_refusal():
    good, pair = ((PLUS_INF, WILDCARD), 1), "a rule line must be a (pattern, delta) pair"
    for args, part, message in (
        ((1, "x"), 0, f"rule 0: {pair}: 'x'"),
        ((1, [(None, 0)]), 0, f"rule 0: {pair}: (None, 0)"),
        ((1, [good, (1, 2, 3)]), 1, f"rule 1: {pair}: (1, 2, 3)"),
        ((1, [good, 5]), 1, f"rule 1: {pair}: 5"),
        ((0, []), "radius", "radius must be >= 1, got 0"),
        ((1, [], -2), "default", "default delta must be >= -1, got -2"),
        ((1, [good, ((2, 0), 0)]), 1, "rule 1: atom 2 is over the limit of 1"),
        ((1, [((1.5, 0), 0)]), 0, "rule 0: atom must be an int, got 1.5"),
        ((1, [good, good, ((0, 0), -2)]), 2, "rule 2: delta must be >= -1, got -2"),
        ((1, [((0,), 0)]), 0, "rule 0: pattern has 1 atoms, expected 2"),
    ):
        with pytest.raises(RuleError) as info:
            validate_rule(*args)
        assert (info.value.part, str(info.value)) == (part, message)


def test_validate_rule_takes_only_the_five_token_atoms():
    # a third infinity or a foreign marker would match no reading, and
    # emit_rule_file has no spelling for it
    for atom, shown in ((Infinity(1), "Infinity(1)"), (_Marker("zz"), "zz"), (_Marker("*"), "*")):
        with pytest.raises(RuleError) as info:
            validate_rule(1, [((atom, 0), 1)])
        assert (info.value.part, str(info.value)) == (0, f"rule 0: atom must be an int, got {shown}")
    tokens = (WILDCARD, POS, NEG, PLUS_INF, MINUS_INF)
    assert len(validate_rule(1, [((t, t), 0) for t in tokens]).rules) == 5


def test_local_delta_first_match_wins():
    a = validate_rule(
        1, [((POS, WILDCARD), 1), ((1, WILDCARD), -1)], 0
    )
    assert local_delta(a, diff_vector(Configuration.finite({-1: 1}), 0, 1)) == 1


def test_local_delta_rejects_wrong_gauge():
    a = zoo.make("S")
    with pytest.raises(ValueError):
        local_delta(a, diff_vector(ZERO, 0, 2))


def test_pattern_markers():
    a = validate_rule(1, [((NEG, WILDCARD), -1), ((POS, WILDCARD), 1)], 0)
    down = Configuration.finite({-1: -3})
    up = Configuration.finite({-1: PLUS_INF})
    assert images(a, down, 0, 0) == (-1,)
    assert images(a, up, 0, 0) == (1,)
    assert images(a, ZERO, 0, 0) == (0,)


def test_infinite_columns_are_fixed():
    S = zoo.make("S")
    c = Configuration.finite({0: PLUS_INF, 1: MINUS_INF})
    img = apply(S, c)
    assert img.height(0) is PLUS_INF
    assert img.height(1) is MINUS_INF


def test_image_height_matches_apply():
    S = zoo.make("S")
    c = Configuration.finite({0: 3, 2: -2})
    img = apply(S, c)
    for i in range(-4, 6):
        assert images(S, c, i, i) == (img.height(i),)


def test_apply_window_matches_apply():
    for name in ("S", "Sr", "L", "X", "Y"):
        a = zoo.make(name)
        rng = Lcg64(hash(name) & 0xFFFF)
        for k in range(150):
            c = sample_configuration(rng, height=3, include_infinities=(k % 4 == 0))
            img = apply(a, c)
            cc = c.canonicalize()
            lo = cc.core_start - 2 * len(cc.left.values) - 3
            hi = cc.core_end + 2 * len(cc.right.values) + 3
            want = naive_image_heights(a, c, lo, hi)
            assert images(a, c, lo, hi) == want
            assert img.heights(lo, hi) == want


def _atoms(r):
    return [*range(-r, r + 1), PLUS_INF, MINUS_INF, WILDCARD, POS, NEG]


def _random_lines(rnd, r, count, atoms):
    return [
        (tuple(rnd.choice(atoms) for _ in range(2 * r)), rnd.randint(-r, r))
        for _ in range(count)
    ]


def _random_table(rnd, r):
    lines = _random_lines(rnd, r, rnd.randint(0, 8), _atoms(r))
    return validate_rule(r, lines, rnd.randint(-r, r))


def test_lookup_matches_first_match_scan_at_every_reading():
    rnd = random.Random(20031)
    tables = [zoo.make(name) for name in ("S", "Sr", "L", "X", "Y")]
    tables += [_random_table(rnd, r) for r in (1, 1, 2, 2, 3)]
    # 64 lines of exact readings match at most 64 of the 2401 codes, so
    # most codes first match past one machine word of the match bit sets
    exact = [*range(-2, 3), PLUS_INF, MINUS_INF]
    wide = _random_lines(rnd, 2, 64, exact) + _random_lines(rnd, 2, 12, _atoms(2))
    tables.append(validate_rule(2, wide, 1))
    for a in tables:
        r = a.radius
        readings = [MINUS_INF, *range(-r, r + 1), PLUS_INF]
        # a saturated reading comes from an infinite column or from a
        # finite one out of range
        offsets = [{v: v for v in readings} for _ in range(6)]
        for m in range(3, 6):
            offsets[m].update({MINUS_INF: -r - m + 2, PLUS_INF: r + m - 2})
        for k, entries in enumerate(itertools.product(readings, repeat=2 * r)):
            centre = k % 7 - 3
            offset = offsets[k % 6]
            hs = [centre + offset[v] for v in entries]
            hs.insert(r, centre)
            want = local_delta(a, DifferenceVector(entries, r, centre))
            assert window_image(a, hs) == [centre + want]
        if r <= 2:
            cold = SandAutomaton(r, a.rules, a.default_delta)
            for code in range((2 * r + 3) ** (2 * r)):
                want = first_match_delta(a, code_readings(r, code))
                assert _lookup(cold, code) == want


def _random_run(rnd, r, length):
    """Heights around a random base, spread past the readable window, with
    an infinity in about one column of six."""
    base = rnd.randint(-10**6, 10**6)
    return [
        rnd.choice((PLUS_INF, MINUS_INF)) if rnd.random() < 1 / 6
        else base + rnd.randint(-3 * r - 2, 3 * r + 2)
        for _ in range(length)
    ]


#: where `_placed_run` puts infinities: a run past one window carries each
#: column's negated forward readings r columns on, and an infinite entry
#: lends a saturated reading in their place
PLACES = ("first", "centre", "last", "pair", "pad", "scattered")


def _placed_run(rnd, r, length, place):
    """A run of finite heights around a random base, spread past the
    readable window, with infinities at one kind of place: the first entry,
    one centre (a column whose image is asked for), the last entry, two
    adjacent entries, one entry of the left pad of r, or about one entry in
    six anywhere."""
    if place == "scattered":
        return _random_run(rnd, r, length)
    base = rnd.randint(-10**6, 10**6)
    hs = [base + rnd.randint(-3 * r - 2, 3 * r + 2) for _ in range(length)]
    k = {"first": 0, "centre": rnd.randrange(r, length - r), "last": length - 1,
         "pair": rnd.randrange(length - 1), "pad": rnd.randrange(r)}[place]
    for j in (k, k + 1) if place == "pair" else (k,):
        hs[j] = rnd.choice((PLUS_INF, MINUS_INF))
    return hs


def test_window_image_matches_column_by_column_reference():
    """Short runs under random tables, then runs of 2r + 1 to 2r + 40
    entries at radii 1, 2, 3 and 6 under the zoo rules and seeded tables,
    with infinities at every kind of place: each image column, read once
    per difference with carried readings past one window, is the image the
    reference reads from all 2r neighbours."""
    rnd = random.Random(77)
    seen = set()
    for r in (1, 2, 3):
        for _ in range(40):
            a = _random_table(rnd, r)
            for length in (0, 2 * r, 2 * r + 1, 2 * r + 2, 2 * r + 13):
                hs = _random_run(rnd, r, length)
                c = Configuration(-r, tuple(hs))
                want = naive_image_heights(a, c, 0, length - 2 * r - 1)
                assert tuple(window_image(a, hs)) == want
                seen.update(
                    (k == r, type(h).__name__) for k, h in enumerate(hs[: 2 * r + 1])
                )
    # infinities sat in both the centre and the neighbour positions
    assert {(True, "Infinity"), (False, "Infinity")} <= seen
    rnd = random.Random(2003)
    checked = dict.fromkeys(PLACES, 0)
    for r in (1, 2, 3, 6):
        tables = [zoo.make(name) for name in zoo.ZOO if zoo.make(name).radius == r]
        tables += [random_rule(rnd, r) for _ in range(5 - len(tables))]
        for a in tables:
            for length in range(2 * r + 1, 2 * r + 41):
                for place in PLACES:
                    hs = _placed_run(rnd, r, length, place)
                    c = Configuration(-r, tuple(hs))
                    want = naive_image_heights(a, c, 0, length - 2 * r - 1)
                    assert tuple(window_image(a, hs)) == want, (r, place, hs)
                    assert tuple(window_image(a, tuple(hs))) == want
                    checked[place] += 1
    assert checked == dict.fromkeys(PLACES, 4 * 5 * 40)


def test_window_image_at_the_largest_radius():
    r = MAX_RADIUS
    rnd = random.Random(64)
    hs = _random_run(rnd, r, 2 * r + 1)
    hs[r - 1], hs[r + 3] = PLUS_INF, MINUS_INF
    c = Configuration(-r, tuple(hs))
    entries = diff_vector(c, 0, r).entries
    # a line that misses at one position, then one that matches with a
    # mix of exact, sign and wildcard atoms
    miss = list(entries)
    miss[2 * r - 1] = MINUS_INF if entries[2 * r - 1] is PLUS_INF else PLUS_INF
    hit = [
        WILDCARD if k % 3 == 0
        else v if k % 3 == 1
        else POS if v is PLUS_INF or (v != MINUS_INF and v > 0)
        else NEG if v is MINUS_INF or v < 0
        else 0
        for k, v in enumerate(entries)
    ]
    a = validate_rule(r, [(miss, -5), (hit, 7)], 3)
    centre = hs[r]
    assert window_image(a, hs) == list(naive_image_heights(a, c, 0, 0)) == [centre + 7]
    assert window_image(a, [centre] * (2 * r + 1)) == [centre + 3]
    hs[r] = PLUS_INF
    c = Configuration(-r, tuple(hs))
    assert window_image(a, hs) == list(naive_image_heights(a, c, 0, 0)) == [PLUS_INF]


def test_kernels_run_only_for_a_checked_radius():
    """The radius is refused when the automaton is built, so no kernel is
    ever compiled, or window read, for a bad one."""
    for bad in (0, -1, MAX_RADIUS + 1, 10**40, True, 1.0, "1", None):
        with pytest.raises(DomainError, match="radius"):
            SandAutomaton(bad)
        with pytest.raises(RuleError, match="radius") as info:
            validate_rule(bad, [])
        assert info.value.part == "radius"
    assert _kernel(1) is _kernel(1)
    assert set(_KERNELS) <= set(range(1, MAX_RADIUS + 1))


def test_same_local_rule_compares_the_function():
    L = zoo.make("L")
    spelt_out = validate_rule(
        1, [((MINUS_INF, WILDCARD), -1), ((NEG, WILDCARD), -1), ((POS, WILDCARD), 1)], 0
    )
    assert spelt_out != L
    assert same_local_rule(spelt_out, L)
    assert not same_local_rule(zoo.make("S"), L)
    assert not same_local_rule(validate_rule(2, [], 0), validate_rule(1, [], 0))


def test_shift_and_vertical_invariance():
    for name in ("S", "Sr", "L", "X", "Y"):
        a = zoo.make(name)
        rng = Lcg64(1 + (hash(name) & 0xFF))
        for k in range(100):
            c = sample_configuration(rng, height=3, include_infinities=(k % 4 == 0))
            img = apply(a, c)
            assert equals(apply(a, c.shift(3)), img.shift(3))
            assert equals(apply(a, c.raise_by(-2)), img.raise_by(-2))


def test_infiniteness_conserved():
    for name in ("S", "Sr", "L", "X", "Y"):
        a = zoo.make(name)
        rng = Lcg64(50 + (hash(name) & 0xFF))
        for k in range(100):
            c = sample_configuration(rng, height=3, include_infinities=True)
            img = apply(a, c)
            cc = c.canonicalize()
            for i in range(cc.core_start - 4, cc.core_end + 5):
                hv = c.height(i)
                if hv is PLUS_INF or hv is MINUS_INF:
                    assert img.height(i) is hv
                else:
                    assert img.height(i) not in (PLUS_INF, MINUS_INF)
            assert has_infinite_column(img) == has_infinite_column(c)


def test_deltas_bounded_by_radius():
    for name in ("S", "Sr", "L", "X", "Y"):
        a = zoo.make(name)
        rng = Lcg64(90 + (hash(name) & 0xFF))
        for k in range(100):
            c = sample_configuration(rng, height=3, include_infinities=(k % 3 == 0))
            img = apply(a, c)
            cc = c.canonicalize()
            for i in range(cc.core_start - 3, cc.core_end + 4):
                hv = c.height(i)
                if hv is PLUS_INF or hv is MINUS_INF:
                    continue
                assert abs(img.height(i) - hv) <= a.radius


def test_centre_column_depends_only_on_local_window():
    # two configurations that agree on [-2r, 2r] produce the same centre
    # column image
    for name in ("S", "X"):
        a = zoo.make(name)
        r = a.radius
        rng = Lcg64(7)
        for _ in range(100):
            x = sample_configuration(rng, height=2, include_infinities=False)
            patch = {i: x.height(i) for i in range(-2 * r, 2 * r + 1)}
            y = Configuration.finite(patch)
            assert images(a, x, 0, 0) == images(a, y, 0, 0)


def test_iterate_zero_steps_returns_input():
    S = zoo.make("S")
    c = Configuration.finite({0: 2})
    assert equals(iterate(S, c, 0), c)


def test_iterate_matches_repeated_apply():
    S = zoo.make("S")
    c = Configuration.finite({0: 5, 3: -2})
    manual = c
    for _ in range(6):
        manual = apply(S, manual)
    assert equals(iterate(S, c, 6), manual)


def test_iterate_stops_at_a_fixed_point():
    S = zoo.make("S")
    start = time.perf_counter()
    assert iterate(S, ZERO, 10**11).canonical_key() == apply(S, ZERO).canonical_key()
    pile = iterate(S, Configuration.finite({0: 100}), 200)
    assert iterate(S, pile, 10**11).canonical_key() == pile.canonical_key()
    assert time.perf_counter() - start < 1


def test_iterate_rejects_negative_steps():
    with pytest.raises(DomainError):
        iterate(zoo.make("S"), ZERO, -1)


def test_iterate_core_bound():
    S = zoo.make("S")
    big = Configuration.finite({0: 100})
    with pytest.raises(CoreBoundExceeded):
        iterate(S, big, 60, max_core=5)
    with pytest.raises(DomainError):
        iterate(S, big, 1, max_core=-1)
    # generous cap: runs to the staircase fixed point
    final = iterate(S, big, 200, max_core=1000)
    assert equals(apply(S, final), final)


def test_step_counts_and_core_caps_must_be_ints():
    """A bool is not a count: True is not one step, nor a cap of 1."""
    S = zoo.make("S")
    c = Configuration.finite({0: 3})
    for bad in (True, False, 2.5, "1", None):
        with pytest.raises(DomainError, match="step count must be an int"):
            iterate(S, c, bad)
    for bad in (True, 2.5, "5"):
        with pytest.raises(DomainError, match="core cap must be an int"):
            iterate(S, c, 3, max_core=bad)
        with pytest.raises(DomainError, match="core cap must be an int"):
            check_nilpotent_bounded(S, c, 3, max_core=bad)


def test_orbit_matches_a_plain_apply_loop():
    # seeded configurations under every zoo rule, with caps small enough to
    # trip the core guard: the same nilpotency report, the same iterate
    # result or cap message, the input itself at steps=0 and else the
    # canonical image that apply returned, also at a fixed point
    rng, notes = Lcg64(11), set()
    fields = lambda x: (x.core_start, x.core, x.left, x.right)
    for name in zoo.ZOO:
        automaton = zoo.make(name)
        for _ in range(60):
            c = sample_configuration(rng, height=3)
            for steps, cap in ((0, 0), (1, 0), (5, 4), (12, 9)):
                report = check_nilpotent_bounded(automaton, c, steps, cap)
                assert report == naive_nilpotency(automaton, c, steps, cap)
                notes.add(report.evidence_note.split(" at step 0")[0].split(";")[0])
                try:
                    want = naive_iterate(automaton, c, steps, cap)
                except CoreBoundExceeded as e:
                    with pytest.raises(CoreBoundExceeded) as got:
                        iterate(automaton, c, steps, cap)
                    assert str(got.value) == str(e)
                    continue
                got = iterate(automaton, c, steps, cap)
                if steps == 0:
                    assert got is c
                else:
                    assert got.canonicalize() is got
                    assert fields(got) == fields(want)
    assert notes == {
        "orbit reaches the all-zero configuration",
        "core growth guard tripped before the step bound",
        "orbit reached a non-zero fixed point",
        "no zero configuration within the step bound",
    }


def test_each_step_goes_through_the_module_global_canonicalize(monkeypatch):
    """The benchmark's core-width probe wraps `config._canonicalize`; each
    `apply` must call it exactly once, on its raw image, or the probe's
    peak core width and canonicalization count go blind."""
    seen = []
    canonicalize = config._canonicalize

    def probe(c):
        seen.append(c)
        return canonicalize(c)

    monkeypatch.setattr(config, "_canonicalize", probe)
    rng = Lcg64(19)
    for name in zoo.ZOO:
        automaton = zoo.make(name)
        for c in [sample_configuration(rng, height=3) for _ in range(4)]:
            for _ in range(10):
                before = len(seen)
                c, prev = apply(automaton, c), c
                assert len(seen) == before + 1
                assert seen[-1] is not prev and seen[-1]._canon is c
    assert len(seen) == 10 * 4 * len(zoo.ZOO)


def test_core_bound_env_variable(monkeypatch):
    S = zoo.make("S")
    big = Configuration.finite({0: 100})
    monkeypatch.setenv("SANDLAB_MAX_CORE", "5")
    with pytest.raises(CoreBoundExceeded):
        iterate(S, big, 60)
    for bad in ("not-a-number", "-1", "1_000", "\u0663", "+-5"):
        monkeypatch.setenv("SANDLAB_MAX_CORE", bad)
        with pytest.raises(DomainError):
            iterate(S, big, 1)
        with pytest.raises(DomainError):
            check_nilpotent_bounded(S, big, 5)


def test_parameter_overrides_env(monkeypatch):
    S = zoo.make("S")
    big = Configuration.finite({0: 100})
    monkeypatch.setenv("SANDLAB_MAX_CORE", "5")
    final = iterate(S, big, 200, max_core=10**6)
    assert equals(apply(S, final), final)
    # an explicit cap never reads the variable, even an unreadable one
    monkeypatch.setenv("SANDLAB_MAX_CORE", "not-a-number")
    assert equals(iterate(S, big, 200, max_core=10**6), final)
    assert check_nilpotent_bounded(S, big, 5, max_core=10**6).details == {"steps_done": 5}


def test_sandpile_on_tails():
    # the rule acts correctly inside periodic tails, not just on the core
    S = zoo.make("S")
    c = Configuration.periodic((1, -1))
    assert equals(apply(S, c), ZERO)
    d = Configuration.affine((0, 2), 1)
    img = apply(S, d)
    for i in range(-6, 7):
        assert images(S, d, i, i) == (img.height(i),)
