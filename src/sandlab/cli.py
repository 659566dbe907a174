"""Command-line front end.

Every verdict report is written by one helper: a header with the
subcommand and the sorted inputs that fully determine the report, so
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
from .config import Configuration, equals
from .errors import (
    CoreBoundExceeded,
    DomainError,
    ParseError,
    RuleError,
    SandlabError,
)
from .zoo import ZOO

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_VERDICT = 3
EXIT_BOUND = 4


def _load_rule(name_or_path: str):
    """A rule argument is a file path or a zoo name (file wins if both)."""
    if os.path.exists(name_or_path):
        with open(name_or_path) as fh:
            return formats.parse_rule_file(fh.read())
    if name_or_path in ZOO:
        return zoo.make(name_or_path)
    raise ParseError(f"no rule file {name_or_path!r} and no such zoo automaton")


def _load_config(path: str) -> Configuration:
    with open(path) as fh:
        return formats.parse_config_file(fh.read())


def _render_window(args, c: Configuration):
    if args.window is not None:
        return args.window
    cc = c.canonicalize()
    return (min(cc.core_start, 0) - 2, max(cc.core_end, 0) + 2)


def _report(args, inputs: dict, report, clean_verdicts) -> tuple:
    """(exit code, text) of a verdict report.

    A header names `args.subcommand` and the sorted inputs; then comes
    `report`, a WitnessReport or verify-witness's bool, as text or, under
    `args.json`, as JSON. Exit 4 on a bound, 0 on a clean verdict, else 3.
    """
    from .analysis import BOUND_EXCEEDED
    if isinstance(report, bool):
        verdict, body, lines = report, {"valid_pair": report}, [f"valid pair: {report}"]
    else:
        verdict = report.verdict
        witnesses = [
            formats.emit_config_file(w) for w in report.witness_configurations()
        ]
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
    c = _load_config(args.config)
    result = iterate(automaton, c, args.steps, args.max_core)
    if args.render == "ascii":
        lo, hi = _render_window(args, result)
        out = formats.render_ascii(result, lo, hi)
        if args.dump:
            out += formats.emit_dump(result, lo, hi)
    else:
        out = formats.emit_config_file(result)
    return EXIT_OK, out


def _cmd_render(args):
    c = _load_config(args.config)
    lo, hi = _render_window(args, c)
    out = formats.render_ascii(c, lo, hi)
    if args.dump:
        out += formats.emit_dump(c, lo, hi)
    return EXIT_OK, out


def _cmd_distance(args):
    from .metric import distance
    a = _load_config(args.config_a)
    b = _load_config(args.config_b)
    return EXIT_OK, str(distance(a, b)) + "\n"


def _cmd_zoo(args):
    return EXIT_OK, formats.emit_rule_file(zoo.make(args.name))


def _cmd_preimage(args):
    automaton = _load_rule(args.automaton)
    if not same_local_rule(automaton, zoo.make_L()):
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
    out = (
        "# crown a\n"
        + formats.emit_config_file(d1)
        + "# crown b\n"
        + formats.emit_config_file(d2)
    )
    return EXIT_OK, out


def _cmd_splice(args):
    automaton = _load_rule(args.rule)
    c = _load_config(args.config)
    target = _load_config(args.target)
    spliced = zoo.periodic_splice(automaton, c, target, args.period)
    return EXIT_OK, formats.emit_config_file(spliced)


def _cmd_check_injective(args):
    from . import analysis
    name = "window" if args.klass == "F" else "period"  # argparse allows F, P
    bound = getattr(args, name)
    if bound is None:
        raise DomainError(f"--class {args.klass} needs --{name}")
    inputs = {
        "rule": args.rule,
        "class": args.klass,
        name: bound,
        "height": args.height,
        "with-infinities": args.with_infinities,
    }
    automaton = _load_rule(args.rule)
    report = analysis.check_injective_bounded(
        automaton, args.klass, bound, args.height, args.with_infinities
    )
    return _report(args, inputs, report, {analysis.EXHAUSTED_NO_WITNESS})


def _cmd_check_surjective(args):
    from . import analysis
    inputs = {
        "rule": args.rule,
        "target": args.target,
        "class": args.klass,
        "window": args.window,
        "height": args.height,
        "with-infinities": args.with_infinities,
    }
    automaton = _load_rule(args.rule)
    target = _load_config(args.target)
    report = analysis.check_preimage_bounded(
        automaton, target, args.klass, args.window, args.height, args.with_infinities
    )
    return _report(args, inputs, report, {analysis.WITNESS_FOUND})


def _cmd_check_nilpotent(args):
    from . import analysis
    inputs = {"rule": args.rule, "config": args.config, "steps": args.steps}
    automaton = _load_rule(args.rule)
    c = _load_config(args.config)
    report = analysis.check_nilpotent_bounded(
        automaton, c, args.steps, args.max_core
    )
    return _report(args, inputs, report, {analysis.WITNESS_FOUND})


def _cmd_verify_witness(args):
    from . import analysis
    inputs = {
        "rule": args.rule,
        "config-a": args.config_a,
        "config-b": args.config_b,
    }
    automaton = _load_rule(args.rule)
    c1 = _load_config(args.config_a)
    c2 = _load_config(args.config_b)
    ok = analysis.verify_witness_pair(automaton, c1, c2)
    return _report(args, inputs, ok, {True})


def _cmd_verify_inverse(args):
    from . import analysis
    inputs = {
        "rule-outer": args.rule_outer,
        "rule-inner": args.rule_inner,
        "samples": args.samples,
        "seed": args.seed,
    }
    outer = _load_rule(args.rule_outer)
    inner = _load_rule(args.rule_inner)
    report = analysis.verify_right_inverse(outer, inner, args.samples, args.seed)
    return _report(args, inputs, report, {analysis.EXHAUSTED_NO_WITNESS})


def _add_window(parser):
    parser.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"))


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

    p = sub.add_parser("simulate", help="iterate a rule on a configuration")
    p.add_argument("--rule", required=True, help="rule file or zoo name")
    p.add_argument("--config", required=True, help="configuration file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--render", choices=["ascii"], default=None)
    p.add_argument("--dump", action="store_true", help="append a lossless dump")
    p.add_argument("--max-core", type=int, default=None)
    _add_window(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("render", help="draw a configuration window")
    p.add_argument("--config", required=True)
    p.add_argument("--dump", action="store_true")
    _add_window(p)
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("distance", help="exact distance between two configurations")
    p.add_argument("config_a")
    p.add_argument("config_b")
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("zoo", help="emit a named rule file")
    p.add_argument("name", choices=sorted(ZOO))
    p.set_defaults(handler=_cmd_zoo)

    p = sub.add_parser("preimage", help="explicit pre-image under the L rule")
    p.add_argument("--automaton", default="L")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_preimage)

    p = sub.add_parser("crown", help="lift a finite collision to a periodic one")
    p.add_argument("--rule", required=True)
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.set_defaults(handler=_cmd_crown)

    p = sub.add_parser("splice", help="cut a periodic pre-image out of any pre-image")
    p.add_argument("--rule", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--period", type=int, required=True)
    p.set_defaults(handler=_cmd_splice)

    p = sub.add_parser("check-injective", help="bounded injectivity search")
    p.add_argument("--rule", required=True)
    p.add_argument("--class", dest="klass", required=True, choices=["F", "P"])
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--with-infinities", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check_injective)

    p = sub.add_parser("check-surjective", help="bounded pre-image search")
    p.add_argument("--rule", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--class", dest="klass", required=True, choices=["F", "P", "EC"])
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--with-infinities", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check_surjective)

    p = sub.add_parser("check-nilpotent", help="bounded zero-reachability check")
    p.add_argument("--rule", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--max-core", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check_nilpotent)

    p = sub.add_parser("verify-witness", help="re-verify a collision pair")
    p.add_argument("--rule", required=True)
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify_witness)

    p = sub.add_parser("verify-inverse", help="test outer(inner(c)) == c on samples")
    p.add_argument("--rule-outer", required=True)
    p.add_argument("--rule-inner", required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify_inverse)

    return parser


def run(args) -> tuple:
    """Dispatch parsed arguments; returns (exit_code, output text)."""
    try:
        return args.handler(args)
    except (ParseError, OSError) as exc:
        return EXIT_PARSE, f"error: {exc}\n"
    except CoreBoundExceeded as exc:
        return EXIT_BOUND, f"error: {exc}\n"
    except (DomainError, RuleError, SandlabError) as exc:
        return EXIT_DOMAIN, f"error: {exc}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code, text = run(args)
    (sys.stderr if text.startswith("error:") else sys.stdout).write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
