"""Differential tests: the prefix-tree injectivity walk against the plain
enumeration in naive_scan, which evaluates every candidate's whole image
from scratch."""

import random

import pytest

from naive_scan import (
    _tuples_by_weight, injective_candidates, injective_reference, random_rule,
)
from sandlab import zoo
from sandlab.analysis import (
    EXHAUSTED_NO_WITNESS,
    WITNESS_FOUND,
    _height_values,
    _image_keys,
    check_injective_bounded,
)
from sandlab.automaton import validate_rule, window_image
from sandlab.config import Configuration

RULES = ("S", "Sr", "L", "X", "Y")
#: seeded tables of radius 1, 2 and 3
TABLES = [random_rule(random.Random(seed), r) for seed, r in ((7, 1), (8, 2), (9, 2), (10, 3))]

#: (class, window or period, height, with infinities); periods of 5 give
#: radius-2 rules interior columns, and periods below 4 the short words
SMALL = (
    ("F", 1, 1, False), ("F", 1, 1, True), ("F", 2, 1, False),
    ("F", 1, 2, False), ("P", 5, 1, False), ("P", 3, 1, True),
    ("P", 3, 2, False),
)

#: the injectivity sweep of the benchmark's search workload
SWEEP = (
    ("F", 1, 1, False), ("F", 1, 2, False), ("F", 2, 1, False),
    ("F", 2, 2, False), ("F", 3, 1, False), ("F", 1, 1, True),
    ("F", 1, 2, True), ("F", 2, 1, True),
    ("P", 4, 1, False), ("P", 6, 1, False), ("P", 4, 2, False),
    ("P", 3, 1, True),
)


def values_of(h, inf):
    return list(_height_values(h, inf)[1]())


def assert_keys_match(walk, ref):
    """The walk's (key, word) pairs come in the reference's order of (word,
    whole image) pairs, with equal keys exactly where the images agree."""
    walk = list(walk)
    assert [tup for _, tup in walk] == [tup for tup, _ in ref]
    key_of_image = {}
    image_of_key = {}
    for (key, _), (_, image) in zip(walk, ref):
        assert key_of_image.setdefault(image, key) == key
        assert image_of_key.setdefault(key, image) == image


def check_walk(automaton, klass, n, h, inf):
    values = values_of(h, inf)
    if klass == "F":
        widths, pad = [2 * n + 1], 2 * automaton.radius
    else:
        widths, pad = range(1, n + 1), 0
    walk = _image_keys(automaton, widths, pad, h, values)
    assert_keys_match(walk, list(injective_candidates(automaton, klass, n, values)))


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("klass,n,h,inf", SMALL)
def test_walk_order_and_keys_match_the_whole_image(rule, klass, n, h, inf):
    check_walk(zoo.make(rule), klass, n, h, inf)


@pytest.mark.parametrize("index", range(len(TABLES)))
def test_seeded_tables_key_their_whole_images(index):
    # for radius 2 and 3, periods up to 2r give words shorter than 2r and
    # of exactly 2r; the window 3 of radius 3 gives words of 2r + 1
    automaton = TABLES[index]
    r = automaton.radius
    for klass, n, h, inf in (("F", 1, 1, True), ("F", r, 1, False), ("P", 2 * r, 1, False),
                             ("P", 3, 1, True)):
        check_walk(automaton, klass, n, h, inf)
        report = check_injective_bounded(automaton, klass, n, h, inf)
        got = [w.canonical_key() for w in report.witness_configurations()]
        want = reference_report(automaton, klass, n, h, inf)
        assert (report.verdict, got, report.details["candidates"]) == want


@pytest.mark.parametrize("automaton", [zoo.make("S"), zoo.make("Y"), *TABLES])
def test_words_of_one_entry_key_their_whole_images(automaton):
    # one entry between 2r zeros a side, or repeated
    r = automaton.radius
    for h, inf in ((1, False), (2, True)):
        values = values_of(h, inf)
        words = list(_tuples_by_weight(1, values))
        between = [(w, tuple(window_image(automaton, (0,) * 2 * r + w + (0,) * 2 * r)))
                   for w in words]
        assert_keys_match(_image_keys(automaton, [1], 2 * r, h, values), between)
        repeated = [(w, tuple(window_image(automaton, w * (2 * r + 1)))) for w in words]
        assert_keys_match(_image_keys(automaton, [1], 0, h, values), repeated)


def test_a_witness_on_the_first_leaf_of_a_pass():
    # a lone -1 between zeros reads (+1, +1) and rises to 0: the first word
    # of the weight-1 pass, (-1, 0, 0), maps where the all-zero word does
    automaton = validate_rule(1, [((1, 1), 1)], 0)
    for klass, n in (("F", 1), ("F", 2)):
        report = check_injective_bounded(automaton, klass, n, 1)
        assert report.verdict == WITNESS_FOUND and report.details == {"candidates": 2}
        got = [w.canonical_key() for w in report.witness_configurations()]
        assert (report.verdict, got, 2) == reference_report(automaton, klass, n, 1, False)


def reference_report(automaton, klass, n, h, inf):
    pair, visited = injective_reference(automaton, klass, n, values_of(h, inf))
    if pair is None:
        return EXHAUSTED_NO_WITNESS, [], visited
    build = (lambda t: Configuration(-n, t)) if klass == "F" else Configuration.periodic
    return WITNESS_FOUND, [build(t).canonical_key() for t in pair], visited


@pytest.mark.parametrize(
    "rule,klass,n,h,inf",
    [(rule, *e) for rule in RULES for e in SWEEP]
    + [("Sr", "F", 3, 2, False), ("X", "F", 3, 2, False)],
)
def test_reports_match_the_reference_check(rule, klass, n, h, inf):
    automaton = zoo.make(rule)
    report = check_injective_bounded(automaton, klass, n, h, inf)
    got = (
        report.verdict,
        [w.canonical_key() for w in report.witness_configurations()],
        report.details["candidates"],
    )
    assert got == reference_report(automaton, klass, n, h, inf)
