"""Grammar fuzzing of the three text formats.

Files are built line by line from each format's grammar: valid lines,
malformed lines, repeated key lines and lines of another kind or format.
Every parse must either return or raise a SandlabError, and whatever parses
must round-trip emit -> parse -> emit byte for byte. Runs are derandomized,
so every run tries the same inputs.
"""

import operator

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from sandlab.config import Configuration, equals  # noqa: E402
from sandlab.errors import ParseError, SandlabError  # noqa: E402
from sandlab.formats import (  # noqa: E402
    CONFIG_HEADER,
    DUMP_HEADER,
    RULE_HEADER,
    emit_config_file,
    emit_dump,
    emit_rule_file,
    parse_config_file,
    parse_dump,
    parse_rule_file,
)
from sandlab.rng import Lcg64, sample_configuration  # noqa: E402

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)

INT = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)).map(str)
HEIGHT = st.one_of(INT, st.sampled_from(["+inf", "-inf"]))
HEIGHTS = st.lists(HEIGHT, min_size=1, max_size=4).map(" ".join)
#: spellings `int` reads as decimals that are not ASCII [+-]?[0-9]+: `_`
#: separators and digits of other scripts, alone or after a sign
NOT_ASCII_DECIMAL = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.one_of(
        st.integers(0, 10**6).map("{}_0".format),
        st.text(st.characters(categories=["Nd"], exclude_characters="0123456789"),
                min_size=1, max_size=3),
    ),
).map("".join)
#: tokens no integer or height field accepts
BAD = st.sampled_from(["x", "1.5", "inf", "--1", "+-inf", "1e3", "0x10"]) | NOT_ASCII_DECIMAL
#: lines that are comments or blank, allowed anywhere after the header
QUIET = st.sampled_from(["", "# note", "   # indented note"])


def _insert(draw, lines, extra):
    """Insert each of `extra` at a drawn position; returns the positions."""
    at = []
    for line in extra:
        k = draw(st.integers(0, len(lines)))
        lines.insert(k, line)
        at = [a + (a >= k) for a in at] + [k]
    return at


def _text(header, lines):
    return "\n".join([header, *lines]) + "\n"


def _named_lines(lines, k):
    """The line numbers a refusal of the inserted line lines[k] may name:
    its own, or the later copy's when it repeats a key line."""
    key, colon, _ = lines[k].partition(":")
    copies = [i for i, ln in enumerate(lines) if ln.partition(":")[0] == key]
    return {k + 2, max(copies) + 2} if colon and key != "rule" else {k + 2}


@st.composite
def edited(draw, body, extra, header):
    """(text, clean): a file of `body`'s lines after up to two edits (a
    line dropped, a line repeated, or a line of `extra` inserted), under
    `header` or a wrong one; clean when it has neither."""
    lines = draw(body)
    edits = draw(st.integers(0, 2))
    head = draw(st.sampled_from([header] * 4 + [header[:-1] + "0", ""]))
    for _ in range(edits):
        edit = draw(st.sampled_from(["drop", "repeat", "insert"]))
        if edit == "drop" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif edit == "repeat" and lines:
            _insert(draw, lines, [draw(st.sampled_from(lines))])
        else:
            _insert(draw, lines, [draw(extra)])
    return _text(head, lines), not edits and head == header


def _parses_or_is_refused(case, parse, emit, same):
    """A clean file parses, any other parses or raises a SandlabError, and
    whatever parses round-trips emit -> parse -> emit byte for byte."""
    text, clean = case
    try:
        value = parse(text)
    except SandlabError:
        assert not clean, text
        return
    first = emit(value)
    again = parse(first)
    assert same(again, value) and emit(again) == first


# -- rule files ---------------------------------------------------------------


@st.composite
def rule_bodies(draw):
    """The lines of a valid rule file after its header."""
    r = draw(st.integers(1, 2))
    marks = st.sampled_from(["+inf", "-inf", "*", "pos", "neg"])
    atom = st.integers(-r, r).map(str) | marks
    rule = st.builds(
        "rule: ({}) -> {}".format,
        st.lists(atom, min_size=2 * r, max_size=2 * r).map(", ".join),
        st.integers(-r, r),
    )
    lines = draw(st.lists(st.one_of(rule, QUIET), max_size=5))
    keys = [f"radius: {r}"]
    if draw(st.booleans()):
        keys.append(f"default: {draw(st.integers(-r, r))}")
    _insert(draw, lines, keys)
    return lines


#: lines no rule file takes: malformed, of another format, or a bad radius
BAD_RULE_LINE = st.one_of(
    BAD.map("radius: {}".format),
    BAD.map("default: {}".format),
    BAD.map("rule: ({}, 0) -> 0".format),
    st.sampled_from([
        "rule: 0, 0 -> 0", "rule: (0, 0) 0", "rule: (0) -> 0", "rule: (0, 0, 0) -> 0",
        "rule: (9, 0) -> 0", "rule: (0, 0) -> 9", "rule: (0, , 0) -> 0",
        "rule: (,0,,0,) -> 0", "rule: (0, 0,) -> 0", "radius: 0", "radius: 65",
        "radius: 100000000000", "default: 9", "kind: finite", "at 0 1", "wat: 3",
        "radius 1", CONFIG_HEADER,
    ]),
)


@FUZZ
@given(rule_bodies(), BAD_RULE_LINE, st.data())
def test_a_bad_rule_line_is_refused_at_its_line(lines, bad, data):
    (k,) = _insert(data.draw, lines, [bad])
    with pytest.raises(ParseError) as info:
        parse_rule_file(_text(RULE_HEADER, lines))
    assert info.value.line in _named_lines(lines, k)


@FUZZ
@given(edited(rule_bodies(), BAD_RULE_LINE | rule_bodies().flatmap(st.sampled_from),
              RULE_HEADER))
def test_rule_files_parse_or_are_refused(case):
    _parses_or_is_refused(case, parse_rule_file, emit_rule_file, operator.eq)


# -- configuration files ------------------------------------------------------

KINDS = ("finite", "periodic", "affine", "general")


def _kind_lines(draw, kind):
    """The key lines of a valid file of `kind`, `kind:` line first."""
    if kind == "finite":
        cells = st.tuples(st.integers(-8, 8), HEIGHT)
        return ["kind: finite"] + [
            f"at {col} {h}" for col, h in draw(st.lists(cells, min_size=1, max_size=4))
        ]
    if kind in ("periodic", "affine"):
        lines = [f"kind: {kind}", f"period: {draw(HEIGHTS)}"]
        return lines + ([f"slope: {draw(INT)}"] if kind == "affine" else [])
    lines = ["kind: general", f"core-start: {draw(INT)}"]
    lines += [f"left-period: {draw(HEIGHTS)}", f"right-period: {draw(HEIGHTS)}"]
    for key, value in (("core", HEIGHTS | st.just("")), ("left-slope", INT),
                       ("right-slope", INT)):
        if draw(st.booleans()):
            lines.append(f"{key}: {draw(value)}")
    return lines


@st.composite
def config_bodies(draw, kind=st.sampled_from(KINDS)):
    """The lines of a valid configuration file after its header."""
    lines = draw(st.lists(QUIET, max_size=2))
    _insert(draw, lines, draw(st.permutations(_kind_lines(draw, draw(kind)))))
    return lines


#: the key lines each kind takes
OWN_KEYS = {
    "finite": {"kind", "at"},
    "periodic": {"kind", "period"},
    "affine": {"kind", "period", "slope"},
    "general": {"kind", "core-start", "core", "left-period", "left-slope",
                "right-period", "right-slope"},
}


#: lines no configuration file takes
MALFORMED_CONFIG_LINE = st.one_of(
    BAD.map("at 0 {}".format),
    BAD.map("at {} 0".format),
    st.sampled_from([
        "at 1", "at 1 2 3", "at: 5", "period", "wat: 9", "kind: nope", "sand-config v1",
        RULE_HEADER, "radius: 1",
    ]),
)


@FUZZ
@given(st.sampled_from(KINDS), st.data())
def test_a_stray_or_repeated_config_line_is_refused(kind, data):
    lines = data.draw(config_bodies(st.just(kind)))
    other = data.draw(st.sampled_from([k for k in KINDS if k != kind]))
    # key lines of this file (to repeat) and of another kind's (if foreign)
    mine = [ln for ln in lines if ":" in ln and not ln.startswith("#")]
    foreign = [ln for ln in _kind_lines(data.draw, other)
               if ln.replace(":", " ").split()[0] not in OWN_KEYS[kind]]
    bad = data.draw(st.one_of(
        st.sampled_from(foreign or mine), st.sampled_from(mine), MALFORMED_CONFIG_LINE
    ))
    (k,) = _insert(data.draw, lines, [bad])
    with pytest.raises(ParseError) as info:
        parse_config_file(_text(CONFIG_HEADER, lines))
    assert info.value.line in _named_lines(lines, k)


@FUZZ
@given(edited(config_bodies(),
              MALFORMED_CONFIG_LINE | config_bodies().flatmap(st.sampled_from),
              CONFIG_HEADER))
def test_config_files_parse_or_are_refused(case):
    _parses_or_is_refused(case, parse_config_file, emit_config_file, equals)


@FUZZ
@given(st.integers(0, 2**64 - 1), st.integers(0, 6), st.booleans())
def test_sampled_configurations_round_trip(seed, height, infinities):
    c = sample_configuration(Lcg64(seed), height, infinities)
    first = emit_config_file(c)
    again = parse_config_file(first)
    assert equals(again, c) and emit_config_file(again) == first


# -- dumps ----------------------------------------------------------------------


#: lines no dump takes
DUMP_LINE = st.sampled_from(["window: 0", "heights: x", "wat: 1", "window 0 0"])


@st.composite
def dump_lines(draw):
    """The lines of a valid dump after its header."""
    hs = draw(st.lists(HEIGHT, max_size=6))
    lo = int(draw(INT))
    keys = [f"window: {lo} {lo + len(hs) - 1}", "heights: " + " ".join(hs)]
    lines = draw(st.lists(QUIET, max_size=2))
    _insert(draw, lines, draw(st.permutations(keys)))
    return lines


def _emit_dump(dump):
    lo, hi, heights = dump
    return emit_dump(Configuration.general(lo, heights, ((0,), 0), ((0,), 0)), lo, hi)


@FUZZ
@given(edited(dump_lines(), DUMP_LINE | dump_lines().flatmap(st.sampled_from),
              DUMP_HEADER))
def test_dumps_parse_or_are_refused(case):
    _parses_or_is_refused(case, parse_dump, _emit_dump, operator.eq)
