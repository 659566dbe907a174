"""Exact simulation and bounded verification for sand automata.

Configurations are bi-infinite columns of grains (integer heights plus
two symbolic infinities) represented exactly as a finite core with
ultimately affine-periodic tails. Rule tables read saturated height
differences within a radius and move grains accordingly; the toolkit
simulates them exactly, measures the natural ultrametric, and runs
bounded injectivity / surjectivity / nilpotency checks with re-verified
witnesses.

The package surface loads lazily (PEP 562): `sandlab.X` and
`from sandlab import X` import the submodule that defines X on first use,
so a program pays only for the submodules it touches.

Arguments and errors, one rule for every public callable:
(a) Scalars and entries are checked: an int or height argument of the wrong
    type or out of range is refused at the public entry with the matching
    `SandlabError` (`config._check_int` checks every int), and so is every
    entry of a container: core and period heights, deviation columns, rule
    atoms and deltas, and tail and rule-line pairs.
(b) An automaton, configuration, `Lcg64`, text, sequence or mapping of the
    wrong kind gets Python's own TypeError, AttributeError or ValueError; no
    check is written for it, but `Configuration` refuses tails it would store.
(c) Unchecked code: underscored internals, `Tail.at`, `window`, `rebased`
    and `mirror`, the result classes `Distance` and `WitnessReport`, and
    `Infinity` (the module constants are its two instances) check nothing;
    their callers or builders do. `SandAutomaton` checks its radius and
    takes the table `validate_rule` checked.
"""

from importlib import import_module

__version__ = "0.1.0"

#: exported name (or submodule name) -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in {
        "analysis": """BOUND_EXCEEDED EXHAUSTED_NO_WITNESS WITNESS_FOUND
            WitnessReport check_injective_bounded check_nilpotent_bounded
            check_preimage_bounded verify_right_inverse verify_witness_pair""",
        "automaton": "NEG POS SandAutomaton WILDCARD apply iterate validate_rule",
        "cli": "",
        "config": """Configuration Tail equals first_difference
            is_finite_class sum_grains support_radius""",
        "errors": "CoreBoundExceeded DomainError ParseError RuleError SandlabError",
        "formats": """emit_config_file emit_dump emit_rule_file
            parse_config_file parse_dump parse_rule_file render_ascii""",
        "heights": "MINUS_INF PLUS_INF Height Infinity",
        "metric": "Distance distance",
        "rng": "Lcg64 sample_configuration",
        "witnesses": "",
        "zoo": """build_L_preimage crown_lift make make_S make_Sr periodic_splice
            splice_match_indices""",
    }.items()
    for name in [module, *names.split()]
}


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
