"""Equal rule tables share one memo of deltas and one set of match bit
sets, process-wide and bounded; tables that differ, tables past radius 2
and automata built directly keep their own, and sharing changes no
answer: not a delta, not a report."""

import random

from naive_scan import code_readings, first_match_delta
from sandlab import zoo
from sandlab.analysis import check_injective_bounded, check_preimage_bounded
from sandlab.automaton import (
    POS,
    TABLE_CAP,
    WILDCARD,
    SandAutomaton,
    _lookup,
    _shared,
    validate_rule,
)
from sandlab.formats import emit_rule_file, parse_rule_file
from sandlab.heights import PLUS_INF

from test_preimage_walk import PLANS, targets


def lines_of(a):
    return [(rule.pattern, rule.delta) for rule in a.rules]


def test_equal_tables_share_one_memo_and_one_set_of_masks():
    x = zoo.make("X")
    again, parsed = zoo.make("X"), parse_rule_file(emit_rule_file(x))
    assert again.memo is x.memo and parsed.memo is x.memo
    assert again.masks is x.masks and parsed.masks is x.masks
    assert validate_rule(2, lines_of(x), 0).memo is x.memo


def test_tables_that_differ_anywhere_do_not_share():
    x = zoo.make("X")
    lines = lines_of(x)
    (pattern, delta), rest = lines[0], lines[1:]
    variants = [
        validate_rule(2, [(pattern, delta + 1), *rest], 0),  # one delta
        validate_rule(2, [((POS, *pattern[1:]), delta), *rest], 0),  # one atom
        validate_rule(2, lines, 1),  # the default
    ]
    for a in variants:
        assert a != x and a.memo is not x.memo and a.masks is not x.masks
    r1, r2 = validate_rule(1, [], 0), validate_rule(2, [], 0)  # the radius
    assert r1.memo is not r2.memo and r1.masks != r2.masks


def test_a_radius_3_table_and_a_direct_build_keep_private_memos():
    lines = [((PLUS_INF, *[WILDCARD] * 5), 1)]
    a, b = validate_rule(3, lines, 0), validate_rule(3, lines, 0)
    assert a == b and a.memo is not b.memo and a.masks is None is b.masks
    s = zoo.make("S")
    direct = SandAutomaton(1, s.rules, 0)
    assert direct == s and direct.memo is not s.memo and direct.masks is None


def test_the_cache_keeps_at_most_its_cap_and_an_evicted_table_stays_right():
    first = validate_rule(1, [((1, -1), 1), ((POS, WILDCARD), -1)], 0)
    for code in range(0, 25, 3):
        _lookup(first, code)
    held = dict(first.memo)
    # TABLE_CAP tables used after `first`, each unequal to it
    for k in range(TABLE_CAP):
        validate_rule(1, [((k % 3 - 1, k // 3 % 3 - 1), k // 9 - 1)], 0)
        assert _shared.cache_info().currsize <= TABLE_CAP
    assert validate_rule(1, lines_of(first), 0).memo is not first.memo
    assert first.memo == held and first.masks is not None
    for code in range(25):
        _lookup(first, code)
    for code, delta in first.memo.items():
        assert delta == first_match_delta(first, code_readings(1, code)), code
    assert len(first.memo) == 25


def test_cold_private_and_warm_shared_automata_give_the_same_reports():
    sweep = [("F", w, h, inf) for w in (1, 2) for h in (1, 2) for inf in (False, True)]
    sweep += [("P", p, 1, inf) for p in (2, 4) for inf in (False, True)]
    for name in zoo.ZOO:
        warm = zoo.make(name)
        cold = lambda: SandAutomaton(warm.radius, warm.rules, warm.default_delta)
        for klass, n, h, inf in sweep:
            check_injective_bounded(warm, klass, n, h, inf)
            report = check_injective_bounded(warm, klass, n, h, inf)
            assert report == check_injective_bounded(cold(), klass, n, h, inf), (name, klass, n, h)
        rng = random.Random(name)
        for klass, n, h, inf in PLANS:
            for target in targets(rng, warm, klass, n, h, inf):
                check_preimage_bounded(warm, target, klass, n, h, inf)
                report = check_preimage_bounded(warm, target, klass, n, h, inf)
                assert report == check_preimage_bounded(cold(), target, klass, n, h, inf)
