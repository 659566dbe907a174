"""Command-line front end.

One table, COMMANDS, declares each subcommand once: its help line, its
handler and its options, which build the parser and name the inputs of
its report. Every verdict report is written by one helper: a header with
the subcommand and the sorted inputs that fully determine the report, so
identical invocations produce byte-identical output, then the report as
text or JSON. Exit codes:

    0  clean outcome for the subcommand (simulation done, check exhausted
       with nothing to find, witness verified, pre-image produced, ...)
    3  the opposite verdict (collision found, no pre-image, pair invalid)
    4  a resource bound was exceeded (steps, core growth)
    1  domain or rule errors
    2  parse and I/O errors

Modules that only some subcommands need (analysis, metric, json) are
imported inside the handlers that use them, so a cold start pays only for
what it runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import formats, zoo
from .automaton import apply, iterate, same_local_rule
from .config import Configuration, _decimal, equals
from .errors import CoreBoundExceeded, DomainError, ParseError, SandlabError
from .zoo import ZOO

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_VERDICT = 3
EXIT_BOUND = 4


def _read(path: str) -> str:
    """The text of a rule or configuration file, which must be UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path!r} is not UTF-8 text (byte {exc.start})")


def _load_rule(name_or_path: str):
    """A rule argument is a file path or a zoo name (file wins if both)."""
    if os.path.exists(name_or_path):
        return formats.parse_rule_file(_read(name_or_path))
    if name_or_path in ZOO:
        return zoo.make(name_or_path)
    raise ParseError(f"no rule file {name_or_path!r} and no such zoo automaton")


def _load_config(path: str) -> Configuration:
    return formats.parse_config_file(_read(path))


def _render(args, c: Configuration) -> str:
    """The ASCII picture of c over `args.window` (by default the core and
    column 0, two columns wider a side), then its dump under `args.dump`."""
    if args.window is not None:
        lo, hi = args.window
    else:
        cc = c.canonicalize()
        lo, hi = min(cc.core_start, 0) - 2, max(cc.core_end, 0) + 2
    out = formats.render_ascii(c, lo, hi)
    return out + formats.emit_dump(c, lo, hi) if args.dump else out


def _report(args, report, clean_verdicts, unused=None) -> tuple:
    """(exit code, text) of a verdict report.

    A header names `args.subcommand` and, sorted, the value of each option
    it declares but `--json`, `--max-core` and `unused`; then comes
    `report`, a WitnessReport or verify-witness's bool, as text or, under
    `args.json`, as JSON. Exit 4 on a bound, 0 on a clean verdict, else 3.
    """
    from .analysis import BOUND_EXCEEDED
    inputs = {
        flag[2:]: getattr(args, kwargs.get("dest", flag[2:].replace("-", "_")))
        for flag, kwargs in COMMANDS[args.subcommand][2]
        if flag not in ("--json", "--max-core", unused)
    }
    if type(report) is bool:
        verdict, body, lines = report, {"valid_pair": report}, [f"valid pair: {report}"]
    else:
        verdict = report.verdict
        witnesses = list(map(formats.emit_config_file, report.witness_configurations()))
        body = {"report": report.to_dict(), "witnesses": witnesses}
        lines = [f"verdict: {verdict}", f"grade: {report.grade}"]
        for name, pairs in (("bounds", report.bounds), ("details", report.details)):
            if pairs:
                items = sorted(pairs.items())
                lines.append(f"{name}: " + " ".join(f"{k}={v}" for k, v in items))
        lines.append(f"note: {report.evidence_note}")
        for idx, w in enumerate(witnesses):
            lines += [f"witness {chr(ord('a') + idx)}:", w.rstrip("\n")]
    if args.json:
        import json
        inputs = {k: str(v) for k, v in inputs.items()}
        body["manifest"] = {"subcommand": args.subcommand, "inputs": inputs}
        text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    else:
        header = [f"subcommand: {args.subcommand}"]
        header += [f"{k}: {v}" for k, v in sorted(inputs.items())]
        text = "\n".join(header + [""] + lines) + "\n"
    if verdict == BOUND_EXCEEDED:
        return EXIT_BOUND, text
    return (EXIT_OK if verdict in clean_verdicts else EXIT_VERDICT), text


# -- subcommand handlers -------------------------------------------------------


def _cmd_simulate(args):
    automaton = _load_rule(args.rule)
    c = iterate(automaton, _load_config(args.config), args.steps, args.max_core)
    return EXIT_OK, _render(args, c) if args.render else formats.emit_config_file(c)


def _cmd_render(args):
    return EXIT_OK, _render(args, _load_config(args.config))


def _cmd_distance(args):
    from .metric import distance
    a = _load_config(args.config_a)
    b = _load_config(args.config_b)
    return EXIT_OK, str(distance(a, b)) + "\n"


def _cmd_zoo(args):
    return EXIT_OK, formats.emit_rule_file(zoo.make(args.name))


def _cmd_preimage(args):
    automaton = _load_rule(args.automaton)
    if not same_local_rule(automaton, zoo.make("L")):
        raise DomainError(
            "the explicit pre-image construction is specific to the "
            "left-matching rule; pass --automaton L"
        )
    c = _load_config(args.config)
    pre = zoo.build_L_preimage(c)
    if not equals(apply(automaton, pre), c):  # pragma: no cover
        raise AssertionError("constructed pre-image failed re-verification")
    return EXIT_OK, formats.emit_config_file(pre)


def _cmd_crown(args):
    automaton = _load_rule(args.rule)
    c1 = _load_config(args.config_a)
    c2 = _load_config(args.config_b)
    d1, d2 = zoo.crown_lift(c1, c2, automaton)
    emit = formats.emit_config_file
    return EXIT_OK, "# crown a\n" + emit(d1) + "# crown b\n" + emit(d2)


def _cmd_splice(args):
    automaton = _load_rule(args.rule)
    c = _load_config(args.config)
    target = _load_config(args.target)
    spliced = zoo.periodic_splice(automaton, c, target, args.period)
    return EXIT_OK, formats.emit_config_file(spliced)


def _cmd_check_injective(args):
    from . import analysis
    # argparse allows F and P; the header lists only the bound the class uses
    name, unused = ("window", "period") if args.klass == "F" else ("period", "window")
    bound = getattr(args, name)
    if bound is None:
        raise DomainError(f"--class {args.klass} needs --{name}")
    automaton = _load_rule(args.rule)
    report = analysis.check_injective_bounded(
        automaton, args.klass, bound, args.height, args.with_infinities
    )
    return _report(args, report, {analysis.EXHAUSTED_NO_WITNESS}, "--" + unused)


def _cmd_check_surjective(args):
    from . import analysis
    automaton = _load_rule(args.rule)
    target = _load_config(args.target)
    report = analysis.check_preimage_bounded(
        automaton, target, args.klass, args.window, args.height, args.with_infinities
    )
    return _report(args, report, {analysis.WITNESS_FOUND})


def _cmd_check_nilpotent(args):
    from . import analysis
    automaton = _load_rule(args.rule)
    c = _load_config(args.config)
    report = analysis.check_nilpotent_bounded(automaton, c, args.steps, args.max_core)
    return _report(args, report, {analysis.WITNESS_FOUND})


def _cmd_verify_witness(args):
    from . import analysis
    automaton = _load_rule(args.rule)
    c1 = _load_config(args.config_a)
    c2 = _load_config(args.config_b)
    return _report(args, analysis.verify_witness_pair(automaton, c1, c2), {True})


def _cmd_verify_inverse(args):
    from . import analysis
    outer = _load_rule(args.rule_outer)
    inner = _load_rule(args.rule_inner)
    report = analysis.verify_right_inverse(outer, inner, args.samples, args.seed)
    return _report(args, report, {analysis.EXHAUSTED_NO_WITNESS})


# -- the command table ---------------------------------------------------------


def _int(token: str) -> int:
    """An integer option: an ASCII decimal, as `config._decimal` reads one."""
    if (value := _decimal(token)) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}")
    return value


# An option is (flag, argparse keyword arguments). The options several
# subcommands share are declared once, here.
_REQUIRED = {"required": True}
_FLAG = {"action": "store_true"}
_INT = {"type": _int, "required": True}
_CLASS = {"dest": "klass", "required": True}

RULE = ("--rule", _REQUIRED)
CONFIG = ("--config", _REQUIRED)
TARGET = ("--target", _REQUIRED)
CONFIG_PAIR = (("--config-a", _REQUIRED), ("--config-b", _REQUIRED))
STEPS = ("--steps", _INT)
HEIGHT = ("--height", _INT)
MAX_CORE = ("--max-core", {"type": _int})
WINDOW = ("--window", {"nargs": 2, "type": _int, "metavar": ("LO", "HI")})
DUMP = ("--dump", _FLAG)
WITH_INFINITIES = ("--with-infinities", _FLAG)
JSON = ("--json", _FLAG)

#: subcommand -> (help line, handler, options in `--help` order)
COMMANDS = {
    "simulate": ("iterate a rule on a configuration", _cmd_simulate,
                 (("--rule", {**_REQUIRED, "help": "rule file or zoo name"}),
                  ("--config", {**_REQUIRED, "help": "configuration file"}),
                  STEPS, ("--render", {"choices": ["ascii"]}),
                  ("--dump", {**_FLAG, "help": "append a lossless dump"}),
                  MAX_CORE, WINDOW)),
    "render": ("draw a configuration window", _cmd_render, (CONFIG, DUMP, WINDOW)),
    "distance": ("exact distance between two configurations", _cmd_distance,
                 (("config_a", {}), ("config_b", {}))),
    "zoo": ("emit a named rule file", _cmd_zoo, (("name", {"choices": sorted(ZOO)}),)),
    "preimage": ("explicit pre-image under the L rule", _cmd_preimage,
                 (("--automaton", {"default": "L"}), CONFIG)),
    "crown": ("lift a finite collision to a periodic one", _cmd_crown,
              (RULE, *CONFIG_PAIR)),
    "splice": ("cut a periodic pre-image out of any pre-image", _cmd_splice,
               (RULE, CONFIG, TARGET, ("--period", _INT))),
    "check-injective": ("bounded injectivity search", _cmd_check_injective,
                        (RULE, ("--class", {**_CLASS, "choices": ["F", "P"]}),
                         ("--window", {"type": _int}), ("--period", {"type": _int}),
                         HEIGHT, WITH_INFINITIES, JSON)),
    "check-surjective": ("bounded pre-image search", _cmd_check_surjective,
                         (RULE, TARGET,
                          ("--class", {**_CLASS, "choices": ["F", "P", "EC"]}),
                          ("--window", _INT), HEIGHT, WITH_INFINITIES, JSON)),
    "check-nilpotent": ("bounded zero-reachability check", _cmd_check_nilpotent,
                        (RULE, CONFIG, STEPS, MAX_CORE, JSON)),
    "verify-witness": ("re-verify a collision pair", _cmd_verify_witness,
                       (RULE, *CONFIG_PAIR, JSON)),
    "verify-inverse": ("test outer(inner(c)) == c on samples", _cmd_verify_inverse,
                       (("--rule-outer", _REQUIRED), ("--rule-inner", _REQUIRED),
                        ("--samples", {"type": _int, "default": 500}),
                        ("--seed", {"type": _int, "default": 1}), JSON)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandlab",
        description="Exact sand-automaton simulation and bounded verification.",
        epilog=(
            "Exit codes: 0 clean outcome, 3 opposite verdict, 4 bound "
            "exceeded, 1 domain error, 2 parse/IO error. The environment "
            "variable SANDLAB_MAX_CORE caps configuration core growth."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, handler, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def run(args) -> tuple:
    """Dispatch parsed arguments; returns (exit_code, output text)."""
    try:
        return args.handler(args)
    except OSError as exc:
        return EXIT_PARSE, f"error: {exc}\n"
    except SandlabError as exc:
        exits = {ParseError: EXIT_PARSE, CoreBoundExceeded: EXIT_BOUND}
        return exits.get(type(exc), EXIT_DOMAIN), f"error: {exc}\n"


def main(argv=None) -> int:
    code, text = run(build_parser().parse_args(argv))
    (sys.stderr if text.startswith("error:") else sys.stdout).write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
