"""Tests for the text formats: rule files, configuration files, dumps,
and the ASCII renderer."""

import sys

import pytest

from sandlab.automaton import MAX_RADIUS, validate_rule
from sandlab.config import Configuration, Tail, equals
from sandlab.errors import DomainError, ParseError
from sandlab.formats import (
    emit_config_file,
    emit_dump,
    emit_rule_file,
    parse_config_file,
    parse_dump,
    parse_rule_file,
    render_ascii,
)
from sandlab.heights import MINUS_INF, PLUS_INF
from sandlab.rng import Lcg64, sample_configuration
from sandlab import zoo


def test_rule_round_trip_for_all_zoo_rules():
    for name in ("S", "Sr", "L", "X", "Y"):
        a = zoo.make(name)
        text = emit_rule_file(a)
        assert parse_rule_file(text) == a


def test_rule_file_ignores_comments_and_blanks():
    text = """# a comment
sand-rule v1

radius: 1   # trailing comment
default: 0
rule: (+inf, *) -> 1
"""
    a = parse_rule_file(text)
    assert a.radius == 1
    assert len(a.rules) == 1


def test_rule_file_missing_header():
    with pytest.raises(ParseError):
        parse_rule_file("radius: 1\n")


def test_rule_file_arity_error_carries_line_number():
    text = "sand-rule v1\nradius: 2\nrule: (+inf) -> -1\n"
    with pytest.raises(ParseError) as info:
        parse_rule_file(text)
    assert "4 atoms" in str(info.value) or "expected 4" in str(info.value)
    assert info.value.line == 3
    with pytest.raises(ParseError) as info:
        parse_rule_file("sand-rule v1\nradius: 1\nrule: () -> 0\n")
    assert "pattern has 0 atoms, expected 2" in str(info.value)
    assert info.value.line == 3


def test_rule_file_refuses_a_rule_line_without_an_arrow():
    with pytest.raises(ParseError, match=r"rule needs '\(pattern\) -> delta'") as info:
        parse_rule_file("sand-rule v1\nradius: 1\nrule: (0, 0) 1\n")
    assert info.value.line == 3


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", int)() < 5000,
                    reason="this interpreter reads a 5,000-digit integer")
def test_rule_file_refuses_a_radius_over_the_integer_digit_limit():
    digits = "9" * 5000  # past the interpreter's limit, so `int` itself refuses it
    with pytest.raises(ParseError, match="bad integer '999") as info:
        parse_rule_file(f"sand-rule v1\nradius: {digits}\n")
    assert info.value.line == 2


def test_rule_file_bad_delta():
    with pytest.raises(ParseError):
        parse_rule_file("sand-rule v1\nradius: 1\nrule: (0, 0) -> 5\n")


def test_rule_file_validation_errors_carry_line_numbers():
    cases = (
        ("sand-rule v1\nradius: 1\n# a comment\nrule: (0, 0) -> 5\n", 4),
        ("sand-rule v1\n\nradius: 0\n", 3),
        ("sand-rule v1\nradius: 0\nrule: (0, 0) -> 0\n", 2),
        ("sand-rule v1\nradius: 1\ndefault: 3\n", 3),
        # an empty atom is refused, not dropped
        ("sand-rule v1\nradius: 1\nrule: (1, , 0) -> 0\n", 3),
        ("sand-rule v1\nradius: 1\n# x\nrule: (,1,,0,) -> 1\n", 4),
        ("sand-rule v1\nradius: 1\nrule: (0, 0,) -> 1\n", 3),
    )
    for text, line in cases:
        with pytest.raises(ParseError) as info:
            parse_rule_file(text)
        assert info.value.line == line


def test_rule_file_unknown_line():
    with pytest.raises(ParseError) as info:
        parse_rule_file("sand-rule v1\nradius: 1\nwat: 3\n")
    assert info.value.line == 3


def test_config_round_trip_finite():
    c = Configuration.finite({0: 2, 3: -1, -2: PLUS_INF})
    assert equals(parse_config_file(emit_config_file(c)), c)
    assert "kind: finite" in emit_config_file(c)


def test_config_round_trip_periodic():
    c = Configuration.periodic((1, -1, 0, 0, 0))
    text = emit_config_file(c)
    assert "kind: periodic" in text
    assert equals(parse_config_file(text), c)


def test_config_round_trip_affine():
    c = Configuration.affine((0, 2), 1)
    text = emit_config_file(c)
    assert "kind: affine" in text
    assert "slope: 1" in text
    assert equals(parse_config_file(text), c)


def test_config_round_trip_general():
    c = Configuration.general(0, (), Tail((0,), 0), Tail((3, 1), 0))
    text = emit_config_file(c)
    assert "kind: general" in text
    assert equals(parse_config_file(text), c)


def test_config_round_trip_random():
    rng = Lcg64(123)
    for k in range(300):
        c = sample_configuration(rng, height=4, include_infinities=(k % 3 == 0))
        assert equals(parse_config_file(emit_config_file(c)), c)


def test_emit_is_canonical_and_deterministic():
    a = Configuration.periodic((0, 1))
    b = Configuration.general(4, (0, 1, 0, 1), Tail((1, 0), 0), Tail((0, 1), 0))
    assert equals(a, b)
    assert emit_config_file(a) == emit_config_file(b)


def test_config_file_errors():
    with pytest.raises(ParseError):
        parse_config_file("sand-config v1\n")  # missing kind
    with pytest.raises(ParseError):
        parse_config_file("sand-config v1\nkind: nope\n")
    with pytest.raises(ParseError) as info:
        parse_config_file("sand-config v1\nkind: finite\nat 0\n")
    assert info.value.line == 3
    with pytest.raises(ParseError):
        parse_config_file("sand-config v1\nkind: affine\nperiod: 0 2\n")


def test_config_file_refuses_stray_and_repeated_lines():
    head = "sand-config v1\n"
    cases = (
        # each kind takes only its own lines
        ("kind: periodic\nperiod: 0 1\nslope: 2\n", 4, "'slope'"),
        ("kind: periodic\nperiod: 0 1\nwat: 9\n", 4, "'wat'"),
        ("kind: periodic\nat 5 7\nperiod: 0 1\n", 3, "'at'"),
        ("kind: finite\nat 0 1\nperiod: 1\n", 4, "'period'"),
        ("core: 1\nkind: affine\nperiod: 0\nslope: 1\n", 2, "'core'"),
        # a key line may appear once
        ("kind: finite\nkind: periodic\nperiod: 1\n", 3, "repeated 'kind:'"),
        ("kind: periodic\nperiod: 0 1\nperiod: 2\n", 4, "repeated 'period:'"),
        ("kind: general\ncore-start: 0\ncore-start: 1\n", 4, "repeated"),
        ("kind: nope\n", 2, "unknown kind"),
        # `at` is written without a colon; an `at:` line is not dropped
        ("kind: finite\nat: 5\n", 3, "unrecognised line 'at: 5'"),
        ("kind: finite\nat 0 3\nat: 5\n", 4, "unrecognised line"),
    )
    for body, line, needle in cases:
        with pytest.raises(ParseError) as info:
            parse_config_file(head + body)
        assert info.value.line == line, body
        assert needle in str(info.value), body
    # `at` lines repeat; the later one for a column wins
    c = parse_config_file(head + "kind: finite\nat 0 1\nat 0 2\n")
    assert equals(c, Configuration.finite({0: 2}))


def test_rule_file_refuses_repeated_lines():
    for body, line, key in (
        ("radius: 1\nradius: 2\n", 3, "radius"),
        ("radius: 1\ndefault: 0\n# note\ndefault: 1\n", 5, "default"),
    ):
        with pytest.raises(ParseError) as info:
            parse_rule_file("sand-rule v1\n" + body)
        assert info.value.line == line
        assert f"repeated '{key}:' line" in str(info.value)


def test_rule_file_radius_cap():
    assert parse_rule_file(f"sand-rule v1\nradius: {MAX_RADIUS}\n").radius == MAX_RADIUS
    for radius in (MAX_RADIUS + 1, 10**11):
        with pytest.raises(ParseError) as info:
            parse_rule_file(f"sand-rule v1\n# big\nradius: {radius}\n")
        assert info.value.line == 3
        assert f"over the limit of {MAX_RADIUS}" in str(info.value)


def test_integers_are_ascii_decimals():
    # `int` also reads `_` separators and other scripts' digits; such
    # files would not round-trip, so every integer field refuses them
    assert parse_rule_file("sand-rule v1\nradius: +1\ndefault: -0\n").radius == 1
    for text, line, needle in (
        ("sand-rule v1\nradius: 1_0\n", 2, "bad integer '1_0'"),
        ("sand-rule v1\nradius: 1\nrule: (\u0661, 0) -> 0\n", 3, "bad height"),
        ("sand-config v1\nkind: finite\nat 0 \u0661\u0662\n", 3, "bad height"),
        ("sand-config v1\nkind: finite\n# x\nat 1_0 1\n", 4, "bad integer"),
        ("sand-config v1\nkind: affine\nperiod: 0\nslope: \uff12\n", 4, "bad integer"),
        ("sand-config v1\nkind: periodic\nperiod: 0 -\n", 3, "bad height '-'"),
    ):
        parse = parse_rule_file if text.startswith("sand-rule") else parse_config_file
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == line, text
        assert needle in str(info.value), text
    with pytest.raises(ParseError) as info:
        parse_dump("dump v1\nwindow: 0 0\nheights: \u0663\n")
    assert info.value.line == 3


def test_parse_accepts_infinity_heights():
    c = parse_config_file("sand-config v1\nkind: finite\nat 0 +inf\nat 1 -inf\n")
    assert c.height(0) is PLUS_INF
    assert c.height(1) is MINUS_INF


def test_render_flat():
    z = Configuration.finite({})
    art = render_ascii(z, -2, 2)
    lines = art.splitlines()
    assert lines[1] == "-----"
    assert "0" in lines[-1]


def test_render_column_heights():
    c = Configuration.finite({0: 2, 1: -1})
    art = render_ascii(c, -1, 2)
    lines = art.splitlines()
    # two rows above ground: column 0 has two grains
    assert lines[0] == " #  "
    assert lines[1] == " #  "
    assert lines[2] == "----"
    assert lines[3] == "  # "
    assert lines[4].index("0") == 1


def test_render_infinities():
    c = Configuration.finite({0: PLUS_INF, 1: MINUS_INF})
    art = render_ascii(c, 0, 1)
    lines = art.splitlines()
    assert "^" in lines[0]
    assert any("v" in ln for ln in lines[2:])


def test_render_rejects_bad_window():
    with pytest.raises(Exception):
        render_ascii(Configuration.finite({}), 3, 1)


def test_dump_round_trip():
    c = Configuration.general(-1, (1, PLUS_INF, 2), Tail((0,), 0), Tail((-3,), 0))
    text = emit_dump(c, -4, 4)
    lo, hi, heights = parse_dump(text)
    assert (lo, hi) == (-4, 4)
    assert heights == c.heights(-4, 4)


def test_emit_dump_writes_only_windows_parse_dump_reads():
    c = Configuration.finite({0: 2})
    assert parse_dump(emit_dump(c, 1, 0)) == (1, 0, ())
    for lo, hi in ((5, 0), (1, -1), (0, -10**20)):
        with pytest.raises(DomainError, match=f"window {lo}..{hi} has a negative width"):
            emit_dump(c, lo, hi)


def test_render_and_dump_windows_must_be_ints():
    c = Configuration.finite({0: 2})
    for lo, hi, what in ((0.5, 3, "start"), (0, 2.5, "end"), (True, 3, "start"),
                         ("0", 2, "start"), (0, None, "end"), (0, 2.0, "end")):
        with pytest.raises(DomainError, match=f"window {what} must be an int"):
            render_ascii(c, lo, hi)
        with pytest.raises(DomainError, match=f"window {what} must be an int"):
            emit_dump(c, lo, hi)
    assert parse_dump(emit_dump(c, -1, 1)) == (-1, 1, (0, 2, 0))


def test_dump_length_validation():
    with pytest.raises(ParseError):
        parse_dump("dump v1\nwindow: 0 3\nheights: 1 2\n")


def test_dump_refuses_repeated_and_unknown_lines():
    for body, line, needle in (
        ("window: 0 0\nheights: 1\nwindow: 0 0\n", 4, "repeated 'window:'"),
        ("heights: 1\nheights: 1\nwindow: 0 0\n", 3, "repeated 'heights:'"),
        ("window: 0 0\nheights: 1\nslope: 1\n", 4, "unrecognised"),
        ("window: 0\nheights: 1\n", 2, "two bounds"),
        ("window: 5 0\nheights: 1\n", 2, "window 5..0 has a negative width"),
        ("heights: 1 2\n# x\nwindow: 0 3\n", 2, "expected 4 heights for window 0..3"),
    ):
        with pytest.raises(ParseError) as info:
            parse_dump("dump v1\n" + body)
        assert info.value.line == line
        assert needle in str(info.value)

    # an empty window, hi == lo - 1, is a valid dump
    assert parse_dump("dump v1\nwindow: 1 0\nheights:\n") == (1, 0, ())


@pytest.mark.parametrize("parse, text, spelled", [
    (parse_rule_file, "sand-rule v1\nradius : 1\nrule\t: (0, 0) -> 1\n",
     "sand-rule v1\nradius: 1\nrule: (0, 0) -> 1\n"),
    (parse_config_file, "sand-config v1\nkind : general\ncore-start : 0\n"
     "left-period  : 0\nright-period : 1 2\n",
     "sand-config v1\nkind: general\ncore-start: 0\nleft-period: 0\nright-period: 1 2\n"),
    (parse_dump, "dump v1\nwindow : 0 1\nheights :+inf 2\n",
     "dump v1\nwindow: 0 1\nheights: +inf 2\n"),
], ids=["rule", "config", "dump"])
def test_a_key_is_the_text_before_its_colon_stripped(parse, text, spelled):
    # one grammar: a space before the colon spells the same key in every format
    value, expected = parse(text), parse(spelled)
    assert equals(value, expected) if parse is parse_config_file else value == expected
