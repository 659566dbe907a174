"""Versioned text formats for rules and configurations, plus rendering.

Both formats are line-oriented, diff-friendly, and round-trip exactly:
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

`#` starts a comment; blank lines are ignored. A `key:` line may appear
once, and a configuration file takes only the lines of its kind; only
`rule:` and `at` lines repeat (a later `at` line for a column wins).
Anything else is a ParseError that names its line.
"""

from __future__ import annotations

from .automaton import NEG, POS, SandAutomaton, WILDCARD, _core_cap, validate_rule
from .config import ZERO_TAIL, Configuration
from .errors import CoreBoundExceeded, DomainError, ParseError, RuleError
from .heights import Infinity, MINUS_INF, PLUS_INF

RULE_HEADER = "sand-rule v1"
CONFIG_HEADER = "sand-config v1"
DUMP_HEADER = "dump v1"
MAX_RENDER_CELLS = 10**6


def _strip_lines(text):
    """(line_number, content) for every meaningful line."""
    out = []
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((num, line))
    return out


def _parse_height(token, line):
    if token == "+inf":
        return PLUS_INF
    if token == "-inf":
        return MINUS_INF
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad height {token!r}", line)


def format_height(value) -> str:
    if value is PLUS_INF:
        return "+inf"
    if value is MINUS_INF:
        return "-inf"
    return str(value)


# -- rule files ---------------------------------------------------------------

_ATOM_MARKERS = {"*": WILDCARD, "pos": POS, "neg": NEG}


def _parse_atom(token, line):
    if token in _ATOM_MARKERS:
        return _ATOM_MARKERS[token]
    return _parse_height(token, line)


def _format_atom(atom) -> str:
    if atom is WILDCARD:
        return "*"
    if atom is POS:
        return "pos"
    if atom is NEG:
        return "neg"
    return format_height(atom)


def parse_rule_file(text: str) -> SandAutomaton:
    lines = _strip_lines(text)
    if not lines or lines[0][1] != RULE_HEADER:
        raise ParseError(f"missing header {RULE_HEADER!r}", lines[0][0] if lines else 1)
    values = {"default": 0}
    raw_rules = []
    where = {}  # RuleError.part -> line number
    for num, line in lines[1:]:
        if line.startswith(("radius:", "default:")):
            key, value = line.split(":", 1)
            if key in where:
                raise ParseError(f"repeated '{key}:' line", num)
            values[key] = _parse_int(value, num)
            where[key] = num
        elif line.startswith("rule:"):
            raw_rules.append((num, line[len("rule:"):].strip()))
        else:
            raise ParseError(f"unrecognised line {line!r}", num)
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
        tokens = [t.strip() for t in pat_text[1:-1].split(",") if t.strip()]
        pattern = tuple(_parse_atom(t, num) for t in tokens)
        rules.append((pattern, _parse_int(delta_text, num)))
    try:
        return validate_rule(values["radius"], rules, values["default"])
    except RuleError as exc:
        raise ParseError(str(exc), where.get(exc.part))


def _parse_int(token, line):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad integer {token!r}", line)


def emit_rule_file(automaton: SandAutomaton) -> str:
    out = [RULE_HEADER, f"radius: {automaton.radius}", f"default: {automaton.default_delta}"]
    for rule in automaton.rules:
        atoms = ", ".join(_format_atom(a) for a in rule.pattern)
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
    lines = _strip_lines(text)
    if not lines or lines[0][1] != CONFIG_HEADER:
        raise ParseError(
            f"missing header {CONFIG_HEADER!r}", lines[0][0] if lines else 1
        )
    fields = {}
    ats = []
    keyed = []  # (line number, key) of every line, "at" for an 'at' line
    for num, line in lines[1:]:
        if line.startswith("at "):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("'at' needs a column and a height", num)
            ats.append(
                (_parse_int(parts[1], num), _parse_height(parts[2], num))
            )
            keyed.append((num, "at"))
        elif ":" in line:
            key, value = line.split(":", 1)
            key = key.strip()
            if key in fields:
                raise ParseError(f"repeated '{key}:' line", num)
            fields[key] = (num, value.strip())
            keyed.append((num, key))
        else:
            raise ParseError(f"unrecognised line {line!r}", num)
    if "kind" not in fields:
        raise ParseError("missing 'kind:' line")
    num, kind = fields["kind"]
    if kind not in _KIND_KEYS:
        raise ParseError(f"unknown kind {kind!r}", num)
    for num, key in keyed:
        if key not in _KIND_KEYS[kind]:
            raise ParseError(f"kind {kind} takes no {key!r} line", num)

    def field(key, parse, default=None):
        if key not in fields:
            if default is None:
                raise ParseError(f"missing '{key}:' line")
            return default
        num, value = fields[key]
        return parse(value, num)

    def heights(value, num):
        return tuple(_parse_height(t, num) for t in value.split())

    if kind == "finite":
        devs = dict(ats)  # a later line for a column wins
        cols = [col for col, value in devs.items() if value != 0]
        span = max(cols) - min(cols) + 1 if cols else 0
        cap = _core_cap(None)
        if span > cap:
            raise CoreBoundExceeded(f"finite core spans {span} columns (cap {cap})")
        return Configuration.finite(devs)
    if kind == "periodic":
        return Configuration.periodic(field("period", heights))
    if kind == "affine":
        period = field("period", heights)
        return Configuration.affine(period, field("slope", _parse_int))
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
    if cc.left == ZERO_TAIL and cc.right == ZERO_TAIL:
        out.append("kind: finite")
        for off, v in enumerate(cc.core):
            if v != 0:
                out.append(f"at {cc.core_start + off} {format_height(v)}")
        return "\n".join(out) + "\n"
    if not cc.core and cc.left == cc.right.mirror():
        # globally affine-periodic sequences can be anchored anywhere, so
        # read one period off columns 0..q-1 and emit the friendly kind
        slope = cc.right.slope
        period = cc.right.rebased(-cc.core_start).values
        out.append("kind: affine" if slope else "kind: periodic")
        out.append("period: " + " ".join(format_height(v) for v in period))
        if slope:
            out.append(f"slope: {slope}")
        return "\n".join(out) + "\n"
    out.append("kind: general")
    out.append(f"core-start: {cc.core_start}")
    out.append(("core: " + " ".join(format_height(v) for v in cc.core)).rstrip())
    out.append("left-period: " + " ".join(format_height(v) for v in cc.left.values))
    out.append(f"left-slope: {cc.left.slope}")
    out.append(
        "right-period: " + " ".join(format_height(v) for v in cc.right.values)
    )
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
    if lo > hi:
        raise ParseError("empty render window")
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
    """Lossless companion block for a rendered window."""
    _check_render_size(1, hi - lo + 1)
    values = " ".join(format_height(h) for h in c.heights(lo, hi))
    return f"{DUMP_HEADER}\nwindow: {lo} {hi}\nheights: {values}\n"


def parse_dump(text: str):
    """(lo, hi, heights) from an emit_dump block."""
    lines = _strip_lines(text)
    if not lines or lines[0][1] != DUMP_HEADER:
        raise ParseError(f"missing header {DUMP_HEADER!r}", lines[0][0] if lines else 1)
    fields = {}
    for num, line in lines[1:]:
        key, sep, value = line.partition(":")
        if not sep or key not in ("window", "heights"):
            raise ParseError(f"unrecognised line {line!r}", num)
        if key in fields:
            raise ParseError(f"repeated '{key}:' line", num)
        fields[key] = (num, value.split())
    if len(fields) != 2:
        raise ParseError("dump needs 'window:' and 'heights:' lines")
    num, parts = fields["window"]
    if len(parts) != 2:
        raise ParseError("window needs two bounds", num)
    lo, hi = (_parse_int(t, num) for t in parts)
    num, tokens = fields["heights"]
    heights = tuple(_parse_height(t, num) for t in tokens)
    if len(heights) != hi - lo + 1:
        raise ParseError(
            f"expected {hi - lo + 1} heights for window {lo}..{hi}, "
            f"got {len(heights)}"
        )
    return lo, hi, heights
