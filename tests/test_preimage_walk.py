"""Differential tests: the memoised pre-image walk against the walk that
calls the kernel once per node (naive_scan.naive_preimage_dfs), report by
report: verdict, node count and witness. Then what the memo costs: kernel
calls bounded by the window cube, and no memo past WINDOW_MEMO_CAP."""

import random
import tracemalloc

import pytest

from naive_scan import naive_preimage_dfs, random_rule
from sandlab import analysis, zoo
from sandlab.analysis import BOUND_EXCEEDED, WINDOW_MEMO_CAP, check_preimage_bounded
from sandlab.automaton import apply, window_image
from sandlab.config import Configuration, Tail
from sandlab.heights import MINUS_INF, PLUS_INF


RULES = [zoo.make(name) for name in ("S", "Sr", "L", "X", "Y")] + [
    random_rule(random.Random(seed), r) for seed, r in ((1, 1), (2, 1), (3, 2), (4, 2))
]


def word(rng, n, h, inf):
    heights = [*range(-h, h + 1), *((MINUS_INF, PLUS_INF) if inf else ())]
    return tuple(rng.choice(heights) for _ in range(n))


def targets(rng, automaton, klass, n, h, inf):
    """The image of a random member of the class, then that image with one
    finite column moved by one grain."""
    r = automaton.radius
    if klass == "P":
        q = rng.randint(1, n)
        image = apply(automaton, Configuration.periodic(word(rng, q, h, inf)))
        lo, hi, edges = 0, q - 1, None
    else:
        bl, br = (0, 0) if klass == "F" else (rng.randint(-h, h), rng.randint(-h, h))
        member = Configuration(-n, word(rng, 2 * n + 1, h, inf), Tail((bl,), 0), Tail((br,), 0))
        image = apply(automaton, member)
        lo, hi = -n - r, n + r
        level = lambda b: Tail((window_image(automaton, [b] * (2 * r + 1))[0],), 0)
        edges = level(bl), level(br)
    moved = list(image.heights(lo, hi))
    finite = [j for j, v in enumerate(moved) if type(v) is int]
    if finite:
        moved[rng.choice(finite)] += 1
    if edges is None:
        return image, Configuration.periodic(tuple(moved))
    return image, Configuration(lo, tuple(moved), *edges)


def outcome(report):
    witnesses = [w.canonical_key() for w in report.witness_configurations()]
    return report.verdict, report.details, witnesses


def reference(monkeypatch, *args):
    """The report of the same check run on the walk without a memo."""
    # (automaton, target, start, width, bgl, bgr, values, budget), where the
    # walk's `values` is (how many, iterator factory) and the naive one's
    # the factory
    naive = lambda *a: naive_preimage_dfs(*a[:6], a[6][1], a[7])
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_preimage_dfs", naive)
        return check_preimage_bounded(*args)


#: (class, window or period, height, with infinities)
PLANS = (
    ("F", 1, 1, False), ("F", 2, 1, True), ("F", 1, 2, False), ("F", 1, 2, True),
    ("EC", 1, 1, False), ("EC", 1, 2, True), ("P", 4, 1, False), ("P", 3, 2, True),
)


@pytest.mark.parametrize("index", range(len(RULES)))
def test_reports_match_the_walk_without_a_memo(index, monkeypatch):
    automaton = RULES[index]
    rng = random.Random(index)
    for klass, n, h, inf in PLANS:
        for target in targets(rng, automaton, klass, n, h, inf):
            for budget in (37, 10**7):
                args = (automaton, target, klass, n, h, inf, budget)
                got = outcome(check_preimage_bounded(*args))
                assert got == outcome(reference(monkeypatch, *args)), (klass, n, h, inf, budget)


def wide_target(rng, automaton, n):
    """The image of a sparse member of class F with window n."""
    member = {c: rng.randint(-1, 1) for c in range(-n, n + 1) if rng.random() < 0.1}
    return apply(automaton, Configuration.finite(member))


def test_kernel_calls_are_bounded_by_the_window_cube(monkeypatch):
    S = zoo.make("S")
    target = wide_target(random.Random(5), S, 600)
    calls = []
    spy = lambda automaton, hs: calls.append(len(hs)) or window_image(automaton, hs)
    monkeypatch.setattr(analysis, "window_image", spy)
    report = check_preimage_bounded(S, target, "F", 600, 1)
    monkeypatch.undo()
    assert outcome(report) == outcome(reference(monkeypatch, S, target, "F", 600, 1))
    assert report.details["nodes"] > 2000
    # the drift, at most 3**3 windows, and the 2r-column end checks
    windows, ends = calls.count(3), calls.count(4)
    assert windows <= 1 + 27 and ends < 20


def test_a_huge_height_keeps_no_memo():
    S = zoo.make("S")
    assert (2 * 10**11 + 1) ** 3 > WINDOW_MEMO_CAP
    tracemalloc.start()
    try:
        report = check_preimage_bounded(
            S, Configuration.finite({0: 2}), "F", 1, 10**11, max_nodes=10**5
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == BOUND_EXCEEDED and report.details == {"nodes": 10**5}
    assert peak < 10**6


#: rules of radius 1 and 2, and the classes whose budgets are cut
CUT_RULES = [zoo.make(name) for name in ("S", "X")] + RULES[-3:]
CUTS = (("F", 2, 1, False), ("EC", 1, 1, True), ("P", 3, 1, True))


@pytest.mark.parametrize("index", range(len(CUT_RULES)))
def test_every_budget_cut_matches_the_walk_without_a_memo(index, monkeypatch):
    automaton = CUT_RULES[index]
    rng = random.Random(100 + index)
    for klass, n, h, inf in CUTS:
        for target in targets(rng, automaton, klass, n, h, inf):
            nodes = check_preimage_bounded(automaton, target, klass, n, h, inf).details["nodes"]
            for budget in range(nodes + 2):
                args = (automaton, target, klass, n, h, inf, budget)
                got = outcome(check_preimage_bounded(*args))
                assert got == outcome(reference(monkeypatch, *args)), (klass, budget)


def test_a_run_that_fits_one_block_reads_its_target_once(monkeypatch):
    # the first block is 16 columns; every run here needs at most 5 + 2r
    reads, per_run = [], []
    heights, walk = Configuration.heights, analysis._preimage_dfs

    def counted(*args):
        reads.clear()
        found = walk(*args)
        per_run.append(len(reads))
        return found

    spy = lambda c, lo, hi: reads.append(lo) or heights(c, lo, hi)
    monkeypatch.setattr(Configuration, "heights", spy)
    monkeypatch.setattr(analysis, "_preimage_dfs", counted)
    for name in ("S", "Sr", "X"):
        automaton = zoo.make(name)
        rng = random.Random(name)
        for klass, n, h, inf in PLANS:
            for target in targets(rng, automaton, klass, n, h, inf):
                check_preimage_bounded(automaton, target, klass, n, h, inf)
    assert per_run and max(per_run) == 1
