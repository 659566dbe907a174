"""Differential tests: the prefix-tree injectivity walk against the plain
enumeration in naive_scan, which evaluates every candidate's whole image
from scratch."""

import pytest

from naive_scan import injective_candidates, injective_reference
from sandlab import zoo
from sandlab.analysis import (
    EXHAUSTED_NO_WITNESS,
    WITNESS_FOUND,
    _height_values,
    _image_keys,
    check_injective_bounded,
)
from sandlab.config import Configuration

RULES = ("S", "Sr", "L", "X", "Y")

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
    return list(_height_values(h, inf)())


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("klass,n,h,inf", SMALL)
def test_walk_order_and_keys_match_the_whole_image(rule, klass, n, h, inf):
    automaton = zoo.make(rule)
    values = values_of(h, inf)
    if klass == "F":
        widths, pad = [2 * n + 1], 2 * automaton.radius
    else:
        widths, pad = range(1, n + 1), 0
    walk = [(tup, key) for key, tup in _image_keys(automaton, widths, pad, h, values)]
    ref = list(injective_candidates(automaton, klass, n, values))
    assert [tup for tup, _ in walk] == [tup for tup, _ in ref]
    # equal keys exactly where the whole images agree
    key_of_image = {}
    image_of_key = {}
    for (_, key), (_, image) in zip(walk, ref):
        assert key_of_image.setdefault(image, key) == key
        assert image_of_key.setdefault(key, image) == image


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
