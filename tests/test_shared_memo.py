"""The zoo hands out one automaton per name, so every use of a name shares
one memo of deltas and one set of match bit sets per process; a table
parsed or validated apart, or an automaton built directly, keeps its own,
builds its masks once, on its first miss, and gives the same answers:
not a delta, not a report."""

import random

import pytest

from naive_scan import code_readings, first_match_delta
from sandlab import automaton as automaton_module
from sandlab import zoo
from sandlab.analysis import check_injective_bounded, check_preimage_bounded
from sandlab.automaton import POS, WILDCARD, SandAutomaton, _lookup, validate_rule
from sandlab.errors import DomainError
from sandlab.formats import emit_rule_file, parse_rule_file
from sandlab.heights import PLUS_INF

from test_preimage_walk import PLANS, targets

SWEEP = [("F", w, h, inf) for w in (1, 2) for h in (1, 2) for inf in (False, True)]
SWEEP += [("P", p, 1, inf) for p in (2, 4) for inf in (False, True)]


def lines_of(a):
    return [(rule.pattern, rule.delta) for rule in a.rules]


def test_each_zoo_name_gives_one_automaton():
    for name in zoo.ZOO:
        assert zoo.make(name) is zoo.make(name)
    held = zoo.make.cache_info().currsize
    with pytest.raises(DomainError):
        zoo.make("Z")
    assert zoo.make.cache_info().currsize == held  # a refused name is not kept
    assert zoo.make("S").radius == 1 and zoo.make.cache_info().currsize == held


def test_a_second_sweep_over_fresh_zoo_calls_adds_no_memo_entry():
    def memo_sizes():
        for name in zoo.ZOO:
            for klass, n, h, inf in SWEEP[:5]:
                check_injective_bounded(zoo.make(name), klass, n, h, inf)
        return [len(zoo.make(name).memo) for name in zoo.ZOO]

    first = memo_sizes()
    assert all(first)
    assert memo_sizes() == first == memo_sizes()


def test_a_parsed_or_validated_table_equals_the_zoo_automaton_and_keeps_its_own_memo():
    for name in zoo.ZOO:
        a = zoo.make(name)
        _lookup(a, 0)
        parsed = parse_rule_file(emit_rule_file(a))
        rebuilt = validate_rule(a.radius, lines_of(a), a.default_delta)
        for b in (parsed, rebuilt):
            assert b == a and b.memo is not a.memo and b.memo == {} and b.masks is None
            assert _lookup(b, 0) == a.memo[0] and b.masks == a.masks
            assert b.masks is not a.masks and zoo.make(name) is a
    assert {zoo.make(name).radius for name in zoo.ZOO} == {1, 2}


def test_tables_that_differ_anywhere_do_not_share():
    x = zoo.make("X")
    _lookup(x, 0)
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
    assert r1.memo is not r2.memo and r1.masks is None is r2.masks
    _lookup(r1, 0), _lookup(r2, 0)
    assert r1.memo is not r2.memo and r1.masks != r2.masks


def test_a_radius_3_table_and_a_direct_build_keep_private_memos():
    lines = [((PLUS_INF, *[WILDCARD] * 5), 1)]
    a, b = validate_rule(3, lines, 0), validate_rule(3, lines, 0)
    assert a == b and a.memo is not b.memo and a.masks is None is b.masks
    s = zoo.make("S")
    direct = SandAutomaton(1, s.rules, 0)
    assert direct == s and direct.memo is not s.memo and direct.masks is None


def test_a_validated_table_memoises_exact_deltas_of_its_own():
    first = validate_rule(1, [((1, -1), 1), ((POS, WILDCARD), -1)], 0)
    for code in range(0, 25, 3):
        _lookup(first, code)
    held = dict(first.memo)
    for k in range(16):  # other tables, one of them equal to `first`
        other = validate_rule(1, [((k % 3 - 1, k // 3 % 3 - 1), k // 9 - 1)], 0)
        for code in range(25):
            _lookup(other, code)
    assert validate_rule(1, lines_of(first), 0).memo is not first.memo
    assert first.memo == held and first.masks is not None
    for code in range(25):
        _lookup(first, code)
    for code, delta in first.memo.items():
        assert delta == first_match_delta(first, code_readings(1, code)), code
    assert len(first.memo) == 25


def test_masks_are_built_at_most_once_per_automaton(monkeypatch):
    builds, build = [], automaton_module._build_masks
    monkeypatch.setattr(automaton_module, "_build_masks", lambda a: builds.append(a) or build(a))
    validated = [
        validate_rule(a.radius, lines_of(a), a.default_delta) for a in map(zoo.make, zoo.ZOO)
    ]
    validated.append(validate_rule(3, [((PLUS_INF, *[WILDCARD] * 5), 1)], 0))
    for a in [*map(zoo.make, zoo.ZOO), *validated] * 2:
        for klass, n, h, inf in SWEEP[:4]:
            check_injective_bounded(a, klass, n, h, inf)
    counts = [sum(b is a for b in builds) for a in [*map(zoo.make, zoo.ZOO), *validated]]
    assert max(counts) <= 1 and counts[len(zoo.ZOO):] == [1] * len(validated), counts


def test_cold_private_and_warm_shared_automata_give_the_same_reports():
    for name in zoo.ZOO:
        warm = zoo.make(name)
        cold = lambda: SandAutomaton(warm.radius, warm.rules, warm.default_delta)
        for klass, n, h, inf in SWEEP:
            check_injective_bounded(warm, klass, n, h, inf)
            report = check_injective_bounded(warm, klass, n, h, inf)
            assert report == check_injective_bounded(cold(), klass, n, h, inf), (name, klass, n, h)
        rng = random.Random(name)
        for klass, n, h, inf in PLANS:
            for target in targets(rng, warm, klass, n, h, inf):
                check_preimage_bounded(warm, target, klass, n, h, inf)
                report = check_preimage_bounded(warm, target, klass, n, h, inf)
                assert report == check_preimage_bounded(cold(), target, klass, n, h, inf)
