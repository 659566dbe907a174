"""Versioned text formats for rules, configurations and dumps, plus rendering.

The formats are line-oriented, diff-friendly, and round-trip exactly:
emitting a parsed file and re-parsing it reproduces the same structure.

Rule files:

    sand-rule v1
    radius: 1
    default: 0
    rule: (+inf, -inf) -> 0
    rule: (+inf, *) -> 1

Atoms are integers, `+inf`, `-inf`, the wildcard `*`, and the sign
classes `pos` / `neg`. Patterns bind the readings of columns
(i-r, ..., i-1, i+1, ..., i+r) in order; the first matching rule wins.

Configuration files:

    sand-config v1
    kind: finite          | periodic | affine | general
    at 0 2                # finite: nonzero columns, spanning at most
                          # the core cap (SANDLAB_MAX_CORE, else 65536)
    period: 0 2           # periodic/affine: values at columns 0..p-1
    slope: 1              # affine only
    core-start: -1        # general: explicit core plus two tails
    core: 0 5 0
    left-period: 0
    left-slope: 0
    right-period: 3 1
    right-slope: 0

One grammar serves all three formats, dumps (`emit_dump`) included: `#`
starts a comment, blank lines are ignored, the first line left is the
header, and every other line is `key: value`, keyed by the text before its
first colon with spaces stripped, or `at col height`. Only `rule:` and `at`
lines repeat (a later `at` line for a column wins), and a configuration
file takes only its kind's lines. Anything else is a ParseError naming its
line. Refusals come in order: the header, each line as read, then missing
lines, then values (a configuration checks its kind, then each field).
"""

from __future__ import annotations

from .automaton import NEG, POS, SandAutomaton, WILDCARD, validate_rule
from .config import Configuration, _check_int, _decimal, is_finite_class
from .errors import DomainError, ParseError, RuleError
from .heights import Infinity, MINUS_INF, PLUS_INF

RULE_HEADER = "sand-rule v1"
CONFIG_HEADER = "sand-config v1"
DUMP_HEADER = "dump v1"
MAX_RENDER_CELLS = 10**6


def _keyed_lines(text, header, keys=None, repeats=()):
    """Yield (line number, key, value) lazily for the lines after `header`;
    refuse a repeated key not in `repeats`, and one not in `keys` if given."""
    lines = ((num, line) for num, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].strip()))
    num, line = next(lines, (1, ""))
    if line != header:
        raise ParseError(f"missing header {header!r}", num)
    seen = set()
    for num, line in lines:
        key, colon, value = line.partition(":")
        key = key.strip() if colon and key.strip() != "at" else None
        if line.startswith("at "):  # the one key written without a colon
            key, value = "at", line[3:]
        if key is None or (keys is not None and key not in keys):
            raise ParseError(f"unrecognised line {line!r}", num)
        if key in seen and key not in repeats:
            raise ParseError(f"repeated '{key}:' line", num)
        seen.add(key)
        yield num, key, value.strip()


#: the tokens that are not integers; heights take only the infinities
_TOKENS = {"+inf": PLUS_INF, "-inf": MINUS_INF, "*": WILDCARD, "pos": POS, "neg": NEG}
_SPELLINGS = {value: token for token, value in _TOKENS.items()}


def _parse_height(token, line, tokens=("+inf", "-inf")):
    """A height token, or with `tokens=_TOKENS` a rule atom token."""
    return _TOKENS[token] if token in tokens else _parse_int(token, line, "height")


def format_height(value) -> str:
    """The token of a height or a rule atom."""
    return str(value) if isinstance(value, int) else _SPELLINGS[value]


# -- rule files ---------------------------------------------------------------


def parse_rule_file(text: str) -> SandAutomaton:
    values = {"default": 0}
    raw_rules = []
    where = {}  # RuleError.part -> line number
    for num, key, value in _keyed_lines(text, RULE_HEADER, ("radius", "default", "rule"),
                                        ("rule",)):
        if key == "rule":
            raw_rules.append((num, value))
        else:
            values[key] = _parse_int(value, num)
            where[key] = num
    if "radius" not in values:
        raise ParseError("missing 'radius:' line")
    rules = []
    for idx, (num, body) in enumerate(raw_rules):
        where[idx] = num
        if "->" not in body:
            raise ParseError("rule needs '(pattern) -> delta'", num)
        pat_text, delta_text = body.rsplit("->", 1)
        pat_text = pat_text.strip()
        if not (pat_text.startswith("(") and pat_text.endswith(")")):
            raise ParseError("pattern must be parenthesised", num)
        atoms = pat_text[1:-1].split(",") if pat_text[1:-1].strip() else []
        pattern = tuple(_parse_height(t.strip(), num, _TOKENS) for t in atoms)
        rules.append((pattern, _parse_int(delta_text, num)))
    try:
        return validate_rule(values["radius"], rules, values["default"])
    except RuleError as exc:
        raise ParseError(str(exc), where.get(exc.part))


def _parse_int(token, line, what="integer"):
    """An ASCII decimal token (`config._decimal`), the one spelling that
    round-trips."""
    value = _decimal(token)
    if value is None:
        raise ParseError(f"bad {what} {token.strip()!r}", line)
    return value


def emit_rule_file(automaton: SandAutomaton) -> str:
    out = [RULE_HEADER, f"radius: {automaton.radius}", f"default: {automaton.default_delta}"]
    for rule in automaton.rules:
        atoms = ", ".join(map(format_height, rule.pattern))
        out.append(f"rule: ({atoms}) -> {rule.delta}")
    return "\n".join(out) + "\n"


# -- configuration files -------------------------------------------------------


#: the lines each kind of configuration file takes besides its header
_KIND_KEYS = {
    "finite": ("kind", "at"),
    "periodic": ("kind", "period"),
    "affine": ("kind", "period", "slope"),
    "general": ("kind", "core-start", "core", "left-period", "left-slope",
                "right-period", "right-slope"),
}


def parse_config_file(text: str) -> Configuration:
    fields = {}  # key -> (value, line number) of its first line
    ats = []
    for num, key, value in _keyed_lines(text, CONFIG_HEADER, repeats=("at",)):
        if key == "at":
            parts = value.split()
            if len(parts) != 2:
                raise ParseError("'at' needs a column and a height", num)
            ats.append((_parse_int(parts[0], num), _parse_height(parts[1], num)))
        fields.setdefault(key, (value, num))

    def field(key, parse, default=None):
        if key in fields:
            return parse(*fields[key])
        if default is None:
            raise ParseError(f"missing '{key}:' line")
        return default

    kind, num = field("kind", lambda kind, num: (kind, num))
    if kind not in _KIND_KEYS:
        raise ParseError(f"unknown kind {kind!r}", num)
    for key, (_, num) in fields.items():
        if key not in _KIND_KEYS[kind]:
            raise ParseError(f"kind {kind} takes no {key!r} line", num)

    def heights(value, num):
        return tuple(_parse_height(t, num) for t in value.split())

    if kind == "finite":
        return Configuration.finite(dict(ats))  # a later line for a column wins
    if kind != "general":  # a periodic file is an affine one of slope 0
        period = field("period", heights)
        slope = field("slope", _parse_int, 0 if kind == "periodic" else None)
        return Configuration.affine(period, slope)
    return Configuration.general(
        field("core-start", _parse_int),
        field("core", heights, ()),
        (field("left-period", heights), field("left-slope", _parse_int, 0)),
        (field("right-period", heights), field("right-slope", _parse_int, 0)),
    )


def emit_config_file(c: Configuration) -> str:
    """Canonical text form: the simplest kind that reproduces the sequence."""
    cc = c.canonicalize()
    out = [CONFIG_HEADER]
    if is_finite_class(cc):
        out.append("kind: finite")
        out += (f"at {cc.core_start + off} {format_height(v)}"
                for off, v in enumerate(cc.core) if v != 0)
    elif not cc.core and cc.left == cc.right.mirror():
        # globally affine-periodic sequences can be anchored anywhere, so
        # read one period off columns 0..q-1 and emit the friendly kind
        slope = cc.right.slope
        period = cc.right.rebased(-cc.core_start).values
        out.append("kind: affine" if slope else "kind: periodic")
        out.append("period: " + " ".join(map(format_height, period)))
        if slope:
            out.append(f"slope: {slope}")
    else:
        out.append("kind: general")
        out.append(f"core-start: {cc.core_start}")
        out.append(("core: " + " ".join(map(format_height, cc.core))).rstrip())
        out.append("left-period: " + " ".join(map(format_height, cc.left.values)))
        out.append(f"left-slope: {cc.left.slope}")
        out.append("right-period: " + " ".join(map(format_height, cc.right.values)))
        out.append(f"right-slope: {cc.right.slope}")
    return "\n".join(out) + "\n"


# -- rendering -----------------------------------------------------------------


def _check_render_size(rows: int, columns: int) -> None:
    if rows * columns > MAX_RENDER_CELLS:
        raise DomainError(
            f"render of {rows} row(s) x {columns} columns is over the limit "
            f"of {MAX_RENDER_CELLS} cells"
        )


def render_ascii(c: Configuration, lo: int, hi: int) -> str:
    """Draw columns lo..hi as grain stacks.

    Positive heights pile `#` above the ground line, negative ones hang
    below it, `^` and `v` mark infinite columns, and a marker row flags
    column 0 when it is inside the window. Pictures of more than
    MAX_RENDER_CELLS cells are refused.
    """
    lo, hi = _check_int("window start", lo), _check_int("window end", hi)
    if lo > hi:
        raise DomainError("empty render window")
    _check_render_size(1, hi - lo + 1)
    heights = c.heights(lo, hi)
    finite = [h for h in heights if not isinstance(h, Infinity)]
    top = max([1] + [h for h in finite if h > 0])
    bottom = min([-1] + [h for h in finite if h < 0])
    _check_render_size(top - bottom + 1 + (lo <= 0 <= hi), len(heights))

    def cell(h, level):
        if isinstance(h, Infinity):
            if h is PLUS_INF:
                return "^" if level > 0 else " "
            return "v" if level < 0 else " "
        if level > 0:
            return "#" if h >= level else " "
        return "#" if h <= level else " "

    rows = []
    for level in range(top, 0, -1):
        rows.append("".join(cell(h, level) for h in heights))
    rows.append("-" * len(heights))
    for level in range(-1, bottom - 1, -1):
        rows.append("".join(cell(h, level) for h in heights))
    if lo <= 0 <= hi:
        rows.append(" " * (0 - lo) + "0")
    return "\n".join(rows) + "\n"


def emit_dump(c: Configuration, lo: int, hi: int) -> str:
    """Lossless companion block for columns lo..hi; hi == lo - 1 gives an
    empty window, a narrower one is refused as `parse_dump` would."""
    lo, hi = _check_int("window start", lo), _check_int("window end", hi)
    if hi < lo - 1:
        raise DomainError(f"window {lo}..{hi} has a negative width")
    _check_render_size(1, hi - lo + 1)
    values = " ".join(format_height(h) for h in c.heights(lo, hi))
    return f"{DUMP_HEADER}\nwindow: {lo} {hi}\nheights: {values}\n"


def parse_dump(text: str):
    """(lo, hi, heights) from an emit_dump block."""
    fields = {key: (num, value.split())
              for num, key, value in _keyed_lines(text, DUMP_HEADER, ("window", "heights"))}
    if len(fields) != 2:
        raise ParseError("dump needs 'window:' and 'heights:' lines")
    num, parts = fields["window"]
    if len(parts) != 2:
        raise ParseError("window needs two bounds", num)
    lo, hi = (_parse_int(t, num) for t in parts)
    if hi < lo - 1:
        raise ParseError(f"window {lo}..{hi} has a negative width", num)
    num, tokens = fields["heights"]
    heights = tuple(_parse_height(t, num) for t in tokens)
    if len(heights) != hi - lo + 1:
        raise ParseError(f"expected {hi - lo + 1} heights for window {lo}..{hi}, "
                         f"got {len(heights)}", num)
    return lo, hi, heights
