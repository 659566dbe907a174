"""Tests for the bounded decision procedures and witness reports."""

import tracemalloc
from itertools import product

import pytest

from sandlab.analysis import (
    BOUND_EXCEEDED,
    EVIDENCE,
    EXHAUSTED_NO_WITNESS,
    PROOF,
    WITNESS_FOUND,
    check_injective_bounded,
    check_nilpotent_bounded,
    check_preimage_bounded,
    verify_right_inverse,
    verify_witness_pair,
)
from sandlab import analysis, automaton
from sandlab.automaton import apply, validate_rule, window_image
from sandlab.config import Configuration, _core_cap, equals
from sandlab.errors import DomainError
from sandlab.heights import MINUS_INF, PLUS_INF
from sandlab.rng import Lcg64, sample_configuration
from sandlab import zoo

from naive_scan import preimage_reference

ZERO = Configuration.finite({})
IDENTITY = validate_rule(1, [], 0)


def test_injective_finds_sandpile_pair():
    r = check_injective_bounded(zoo.make("S"), "F", 1, 1)
    assert r.verdict == WITNESS_FOUND
    assert r.grade == PROOF
    w1, w2 = r.witness
    assert equals(w1, ZERO)
    assert equals(w2, Configuration.finite({0: 1, 1: -1}))
    assert verify_witness_pair(zoo.make("S"), w1, w2)


def test_injective_exhausts_for_mirror():
    r = check_injective_bounded(zoo.make("Sr"), "F", 2, 2)
    assert r.verdict == EXHAUSTED_NO_WITNESS
    assert r.grade == EVIDENCE
    assert r.witness is None
    # full candidate space enumerated: (2h+1)^(2n+1)
    assert r.details["candidates"] == 5**5


def test_injective_periodic_finds_comb_pair():
    r = check_injective_bounded(zoo.make("X"), "P", 2, 2)
    assert r.verdict == WITNESS_FOUND
    w1, w2 = r.witness
    assert equals(w1, Configuration.periodic((0, 1)))
    assert equals(w2, Configuration.periodic((0, 2)))


def test_injective_periodic_counts_primitive_tuples():
    r = check_injective_bounded(zoo.make("Y"), "P", 3, 3)
    assert r.verdict == EXHAUSTED_NO_WITNESS
    # periods 1..3 over 7 height values, non-primitive tuples skipped
    assert r.details["candidates"] == 7 + (49 - 7) + (343 - 7)


def test_injective_periodic_key_is_one_primitive_word():
    S = zoo.make("S")
    small = check_injective_bounded(S, "P", 4, 1)
    tracemalloc.start()
    try:
        large = check_injective_bounded(S, "P", 14, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert large.verdict == small.verdict == WITNESS_FOUND
    assert large.witness == small.witness
    assert large.details["candidates"] == small.details["candidates"] == 8
    # an lcm(1..14)-long key would hold 360,360 entries per candidate
    assert peak < 1 << 20


def test_injective_rejects_bad_class():
    with pytest.raises(DomainError):
        check_injective_bounded(zoo.make("S"), "EC", 1, 1)


def test_bounded_checks_refuse_bools_and_non_int_bounds():
    S, Sr, two = zoo.make("S"), zoo.make("Sr"), Configuration.finite({0: 2})
    refused = [
        lambda: check_injective_bounded(S, "F", 1, True),
        lambda: check_injective_bounded(S, "P", True, 1),
        lambda: check_injective_bounded(S, "F", 1.5, 1),
        lambda: check_injective_bounded(S, "F", 1, 1, max_candidates=2.0),
        lambda: check_injective_bounded(S, "F", 1, 1, max_candidates=-1),
        lambda: check_preimage_bounded(S, two, "F", 2.0, 1),
        lambda: check_preimage_bounded(S, two, "EC", 1, True),
        lambda: check_preimage_bounded(S, two, "F", 1, 1, max_nodes=True),
        lambda: check_preimage_bounded(S, two, "F", 1, 1, max_nodes=-5),
        lambda: check_nilpotent_bounded(S, two, True),
        lambda: check_nilpotent_bounded(S, two, 2.5),
        lambda: verify_right_inverse(S, Sr, True, 1),
        lambda: verify_right_inverse(S, Sr, 5.0, 1),
        lambda: verify_right_inverse(S, Sr, 5, True),
        lambda: verify_right_inverse(S, Sr, 5, 1.5),
    ]
    for call in refused:
        with pytest.raises(DomainError):
            call()
    # a zero budget is a bound, not an error
    assert check_preimage_bounded(S, two, "F", 1, 1, max_nodes=0).details == {"nodes": 0}


def test_injective_guard_on_candidate_count():
    with pytest.raises(DomainError):
        check_injective_bounded(zoo.make("S"), "F", 8, 8, max_candidates=1000)
    with pytest.raises(DomainError):
        check_injective_bounded(zoo.make("S"), "P", 8, 2, max_candidates=1000)


def test_injective_guard_builds_nothing_first():
    # each of these would raise a huge power, sum powers or list 2*10^11
    # heights if the guard came after the enumeration's set-up
    S = zoo.make("S")
    for args in (("F", 30_000_000, 1), ("P", 3_000_000, 1), ("F", 3, 10**11)):
        with pytest.raises(DomainError, match="exceeds the guard"):
            check_injective_bounded(S, *args)
    # the guard counts exactly: 3^3 fits a guard of 27, not one of 26, and
    # 3 + 9 + 27 fits 39, not 38
    for klass, bound, total in (("F", 1, 27), ("P", 3, 39)):
        check_injective_bounded(S, klass, bound, 1, max_candidates=total)
        with pytest.raises(DomainError):
            check_injective_bounded(S, klass, bound, 1, max_candidates=total - 1)


def test_preimage_found_and_reverified():
    two = Configuration.finite({0: 2})
    r = check_preimage_bounded(zoo.make("S"), two, "F", 2, 3)
    assert r.verdict == WITNESS_FOUND
    assert r.grade == PROOF
    assert equals(apply(zoo.make("S"), r.witness), two)


def test_preimage_search_reaches_a_window_of_600():
    # 1,201 columns deep: the search must not recurse once per column
    S = zoo.make("S")
    target = apply(S, Configuration.finite({-600: 1, -3: -1, 0: 1, 1: 1, 600: 1}))
    r = check_preimage_bounded(S, target, "F", 600, 1)
    assert r.verdict == WITNESS_FOUND
    assert equals(apply(S, r.witness), target)


def test_preimage_exhausts_for_mirror_target():
    two = Configuration.finite({0: 2})
    r = check_preimage_bounded(zoo.make("Sr"), two, "F", 3, 4)
    assert r.verdict == EXHAUSTED_NO_WITNESS
    assert r.details["nodes"] > 0


def test_preimage_node_budget():
    S = zoo.make("S")
    two = Configuration.finite({0: 2})
    full = check_preimage_bounded(S, two, "F", 2, 3)
    used = full.details["nodes"]
    assert check_preimage_bounded(S, two, "F", 2, 3, max_nodes=used).details == {
        "nodes": used
    }
    short = check_preimage_bounded(S, two, "F", 2, 3, max_nodes=used - 1)
    assert short.verdict == BOUND_EXCEEDED
    assert short.witness is None
    assert short.details == {"nodes": used - 1}
    # heights are read lazily: a huge height bound only costs nodes
    huge = check_preimage_bounded(S, two, "F", 1, 10**11, max_nodes=1000)
    assert huge.verdict == BOUND_EXCEEDED
    periodic = check_preimage_bounded(S, ZERO, "P", 3, 10**11, max_nodes=50)
    assert periodic.verdict == BOUND_EXCEEDED


def test_preimage_ec_tries_only_the_matching_backgrounds():
    # every other background pair fails the check beyond the window, so
    # the report equals a scan of all (2h+1)^2 pairs
    for rule, target in (
        ("S", Configuration.general(0, (), zoo.Tail((0,), 0), zoo.Tail((1,), 0))),
        ("Sr", Configuration.general(0, (2,), zoo.Tail((-1,), 0), zoo.Tail((1,), 0))),
        ("L", Configuration.finite({0: 1})),
        ("X", Configuration.periodic((0, 1))),
    ):
        automaton = zoo.make(rule)
        r = automaton.radius
        level = lambda b: zoo.Tail((window_image(automaton, [b] * (2 * r + 1))[0],), 0)
        inside = target.heights(-2 - r, 2 + r)
        values = analysis._height_values(2, False)
        nodes, found = 0, None
        for bgl, bgr in product(range(-2, 3), repeat=2):
            # beyond the window the image is the backgrounds' own image
            edges = level(bgl), level(bgr)
            if not equals(target, Configuration(-2 - r, inside, *edges)):
                continue
            found, n_nodes = analysis._preimage_dfs(
                automaton, target, -2, 5, bgl, bgr, values, 10**7
            )
            nodes += n_nodes
            if found is not None:
                break
        report = check_preimage_bounded(automaton, target, "EC", 2, 2)
        assert report.details["nodes"] == nodes
        assert (report.witness is None) == (found is None)
        if found is not None:
            assert equals(report.witness, found)
    # 4001^2 pairs would be 16 M tuples
    r = check_preimage_bounded(zoo.make("S"), Configuration.finite({0: 1}), "EC", 1, 2000)
    assert r.verdict == WITNESS_FOUND


def test_level_beyond_matches_a_column_scan():
    rng = Lcg64(17)
    for _ in range(3000):
        c = sample_configuration(rng, 1, rng.below(4) == 0)
        lo = rng.int_between(-8, 8)
        hi = lo + rng.below(8) - 1
        scan = all(c.height(j) == c.height(lo - 1) for j in range(lo - 40, lo)) and all(
            c.height(j) == c.height(hi + 1) for j in range(hi + 1, hi + 41)
        )
        assert analysis._level_beyond(c, lo, hi) == scan, (c, lo, hi)


def test_preimage_periodic_tries_one_period_test(monkeypatch):
    # the periods come from the target's least period, not from one
    # equals test per q <= n
    calls = []

    def counted(x, y):
        calls.append(1)
        assert len(calls) <= 10, "one equals call per candidate period"
        return equals(x, y)

    monkeypatch.setattr(analysis, "equals", counted)
    S = zoo.make("S")
    two = Configuration.finite({0: 2})
    r = check_preimage_bounded(S, two, "P", 10**12, 1)
    assert (r.verdict, r.details, len(calls)) == (EXHAUSTED_NO_WITNESS, {"nodes": 0}, 1)
    calls.clear()
    comb = Configuration.periodic((0, 3))
    r = check_preimage_bounded(S, comb, "P", 10**9, 1, max_nodes=10**5)
    assert (r.verdict, r.details, len(calls)) == (BOUND_EXCEEDED, {"nodes": 10**5}, 1)


@pytest.mark.parametrize("klass", ["F", "EC", "P"])
@pytest.mark.parametrize("rule", ["S", "Sr", "L", "X", "Y"])
def test_preimage_matches_the_brute_force_reference(rule, klass):
    automaton = zoo.make(rule)
    rng = Lcg64(sum(map(ord, rule + klass)))
    n, h = (3, 1) if klass == "P" else (1, 1)
    for k in range(6):
        inf = k % 3 == 2
        values = [*range(-h, h + 1)] + ([MINUS_INF, PLUS_INF] if inf else [])
        pick = lambda: values[rng.below(len(values))]
        if k % 2:
            target = sample_configuration(rng, 2, inf)
        elif klass == "P":
            target = apply(automaton, Configuration.periodic(
                [pick() for _ in range(1 + rng.below(n))]
            ))
        else:
            bgs = [rng.int_between(-h, h) if klass == "EC" else 0 for _ in "lr"]
            member = Configuration(
                -n, tuple(pick() for _ in range(2 * n + 1)),
                *(zoo.Tail((b,), 0) for b in bgs),
            )
            target = apply(automaton, member)
        report = check_preimage_bounded(automaton, target, klass, n, h, inf)
        want = preimage_reference(automaton, target, klass, n, h, inf)
        verdict = EXHAUSTED_NO_WITNESS if want is None else WITNESS_FOUND
        assert report.verdict == verdict
        assert want is None or equals(report.witness, want)


def test_preimage_periodic_class():
    # the all-zero target has the alternating ridge as a periodic pre-image
    r = check_preimage_bounded(zoo.make("S"), ZERO, "P", 2, 1)
    assert r.verdict == WITNESS_FOUND
    img = apply(zoo.make("S"), r.witness)
    assert equals(img, ZERO)


def test_preimage_periodic_skips_impossible_periods():
    # a q-periodic candidate has a q-periodic image, so a non-periodic
    # target exhausts without enumerating anything
    r = check_preimage_bounded(zoo.make("S"), Configuration.finite({0: 1}), "P", 2, 1)
    assert r.verdict == EXHAUSTED_NO_WITNESS
    assert r.details["nodes"] == 0


def test_preimage_ec_finds_mirror_image():
    S, Sr = zoo.make("S"), zoo.make("Sr")
    c = Configuration.finite({0: 1})
    r = check_preimage_bounded(S, c, "EC", 3, 2)
    assert r.verdict == WITNESS_FOUND
    assert equals(apply(S, r.witness), c)
    # for this target the first witness is exactly the mirror's output
    assert equals(r.witness, apply(Sr, c))


def test_preimage_ec_nonzero_backgrounds():
    # a two-level step needs unequal backgrounds on the two sides
    step = Configuration.general(0, (), zoo.Tail((0,), 0), zoo.Tail((1,), 0))
    r = check_preimage_bounded(zoo.make("S"), step, "EC", 2, 2)
    assert r.verdict == WITNESS_FOUND
    assert equals(apply(zoo.make("S"), r.witness), step)


def test_nilpotency_zero_start():
    for name in ("S", "Sr", "L", "X", "Y"):
        r = check_nilpotent_bounded(zoo.make(name), ZERO, 0)
        assert r.verdict == WITNESS_FOUND
        assert r.details["steps_to_zero"] == 0


def test_nilpotency_reaches_zero():
    # the grain-and-hole pair collapses to flat in one step
    r = check_nilpotent_bounded(
        zoo.make("S"), Configuration.finite({0: 1, 1: -1}), 10
    )
    assert r.verdict == WITNESS_FOUND
    assert r.grade == PROOF
    assert r.details["steps_to_zero"] == 1


def test_nilpotency_bound_exceeded_on_fixed_point():
    r = check_nilpotent_bounded(zoo.make("S"), Configuration.finite({0: 3}), 100)
    assert r.verdict == BOUND_EXCEEDED
    assert r.grade == EVIDENCE
    assert r.details.get("fixed_point") is True


def test_nilpotency_probe_reads_the_core_cap_once(monkeypatch):
    calls = []

    def counting_cap(max_core):
        calls.append(max_core)
        return _core_cap(max_core)

    # the probe reads the cap only through the one orbit loop
    monkeypatch.setattr(automaton, "_core_cap", counting_cap)
    r = check_nilpotent_bounded(zoo.make("S"), Configuration.finite({0: 100}), 30)
    assert r.details == {"steps_done": 30}
    assert calls == [None]


def test_nilpotency_zero_test_stays_near_a_drifting_orbit(monkeypatch):
    # under L this pair drifts one column per step; the zero test must not
    # scan the columns between the orbit and column 0
    reads = []
    height = Configuration.height

    def counted(self, i):
        reads.append(i)
        return height(self, i)

    monkeypatch.setattr(Configuration, "height", counted)
    r = check_nilpotent_bounded(
        zoo.make("L"), Configuration.finite({0: 3, 1: 1}), 400
    )
    assert len(reads) < 20 * 400
    assert r.verdict == BOUND_EXCEEDED
    assert r.grade == EVIDENCE
    assert r.witness is None
    assert r.bounds == {"steps": 400}
    assert r.details == {"steps_done": 400}
    assert r.evidence_note.startswith("no zero configuration within the step bound")


def test_nilpotency_identity_rule_never_resolves():
    r = check_nilpotent_bounded(IDENTITY, Configuration.finite({0: 1}), 50)
    assert r.verdict == BOUND_EXCEEDED


def test_right_inverse_sandpile_pair():
    r = verify_right_inverse(zoo.make("S"), zoo.make("Sr"), 500, 1)
    assert r.verdict == EXHAUSTED_NO_WITNESS
    assert r.grade == EVIDENCE


def test_right_inverse_reversed_composition_fails():
    r = verify_right_inverse(zoo.make("Sr"), zoo.make("S"), 500, 1)
    assert r.verdict == WITNESS_FOUND
    assert r.grade == PROOF
    c = r.witness
    S, Sr = zoo.make("S"), zoo.make("Sr")
    assert not equals(apply(Sr, apply(S, c)), c)


def test_right_inverse_identity_on_identity():
    r = verify_right_inverse(IDENTITY, IDENTITY, 10, 3)
    assert r.verdict == EXHAUSTED_NO_WITNESS


def test_right_inverse_refuses_more_than_max_samples():
    S, Sr = zoo.make("S"), zoo.make("Sr")
    with pytest.raises(DomainError, match=f"limit of {analysis.MAX_SAMPLES}"):
        verify_right_inverse(S, Sr, analysis.MAX_SAMPLES + 1, 1)
    with pytest.raises(DomainError, match=">= 1"):
        verify_right_inverse(S, Sr, 0, 1)


def test_right_inverse_deterministic_in_seed():
    a = verify_right_inverse(zoo.make("Sr"), zoo.make("S"), 50, 4)
    b = verify_right_inverse(zoo.make("Sr"), zoo.make("S"), 50, 4)
    assert a.to_dict() == b.to_dict()


def test_verify_witness_pair():
    S = zoo.make("S")
    assert verify_witness_pair(S, ZERO, Configuration.finite({0: 1, 1: -1}))
    assert not verify_witness_pair(S, ZERO, Configuration.finite({0: 2}))
    assert not verify_witness_pair(S, ZERO, ZERO)


def test_crown_consistency_with_periodic_search():
    # an F-collision lifts to a periodic collision that the P-search finds
    S = zoo.make("S")
    r = check_injective_bounded(S, "F", 1, 1)
    assert r.verdict == WITNESS_FOUND
    d1, d2 = zoo.crown_lift(r.witness[0], r.witness[1], S)
    assert equals(apply(S, d1), apply(S, d2))
    period = len(d2.canonicalize().right.values)
    rp = check_injective_bounded(S, "P", period, 1)
    assert rp.verdict == WITNESS_FOUND


def test_report_to_dict_shape():
    r = check_injective_bounded(zoo.make("S"), "F", 1, 1)
    d = r.to_dict()
    assert d["verdict"] == WITNESS_FOUND
    assert d["grade"] == PROOF
    assert d["witness_count"] == 2
    assert isinstance(d["bounds"], dict)


def test_infinity_flag_widens_enumeration():
    rf = check_injective_bounded(zoo.make("Sr"), "F", 1, 1)
    ri = check_injective_bounded(zoo.make("Sr"), "F", 1, 1, include_infinities=True)
    assert ri.details["candidates"] > rf.details["candidates"]
