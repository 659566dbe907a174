"""The argument rule of the package docstring, asserted for every public
callable.

Each exported callable, and each public method of an exported class, has a
row here that names the kind of each parameter it takes, with a valid base
value. One junk value at a time replaces one parameter, the others keep
their base values, and the call must end as the rule says:
- a scalar (an int, or a flag read for its truth) ends in a result or a
  `SandlabError`, and an int parameter refuses every non-int;
- an entry of a container (a height, a column, a slope, a rule atom or
  delta, a tail or a rule line) is a scalar put in a valid container;
- an object (an automaton, configuration, `Lcg64`, text, sequence or
  mapping) may also end in Python's own TypeError, AttributeError or
  ValueError.
No call may end in another error, such as OverflowError, ZeroDivisionError,
IndexError, KeyError, RecursionError or MemoryError. The searches get small
budgets, so the whole walk stays fast.
"""

import inspect

import pytest

import sandlab
from sandlab.automaton import WILDCARD
from sandlab.config import Configuration, Tail
from sandlab.errors import SandlabError
from sandlab.heights import PLUS_INF, Infinity
from sandlab.metric import Distance
from sandlab.rng import Lcg64
from sandlab.zoo import make

JUNK = (None, 1, 1.5, True, "x", [1], (1,), {1: 2}, (5, 0), PLUS_INF, 10**40, -1)


class Kind:
    """How a parameter takes a junk value j: as `place(j)`, a scalar (which
    must be refused unless `accepts(j)`) or an object."""

    def __init__(self, scalar, accepts=None, place=lambda j: j):
        self.scalar, self.accepts, self.place = scalar, accepts, place


def is_int(j):
    return type(j) is int


def is_height(j):
    return type(j) is int or isinstance(j, Infinity)


INT = Kind(True, is_int)
OPTIONAL_INT = Kind(True, lambda j: j is None or is_int(j))  # None: the default
FLAG = Kind(True, lambda j: True)  # read for its truth
OBJECT = Kind(False)
HEIGHT_ENTRY = Kind(True, is_height, lambda j: (1, j))
TAIL_PAIR = Kind(True, lambda j: False)  # no junk value is a (values, slope) pair
RULE_LINE = Kind(True, lambda j: False, lambda j: [j])
#: a row whose code checks nothing (rule (c)); it is never called with junk
UNCHECKED = "unchecked"

S, SR = make("S"), make("Sr")
C = Configuration.finite({0: 3})  # relaxes to a fixed point under S
ZERO = Configuration.finite({})
PAIR = Configuration.finite({0: 1, 1: -1})  # S maps it and ZERO to one image
LINE = ((PLUS_INF, WILDCARD), 1)


def p(name, base, *kinds):
    return name, base, kinds


AUTOMATON, CONFIG = p("automaton", S, OBJECT), p("c", C, OBJECT)
COLUMNS = (p("lo", 0, INT), p("hi", 3, INT))
HEIGHTS = p("values", (1, 2), OBJECT, HEIGHT_ENTRY)
PAIRS = (p("x", C, OBJECT), p("y", PAIR, OBJECT))
MESSAGE = (p("message", "m", OBJECT),)
SPLICE = (p("automaton", S, OBJECT), p("c", PAIR, OBJECT), p("c0", ZERO, OBJECT),
          p("period", 1, INT))


def tail(name):
    return p(name, ((0,), 0), TAIL_PAIR, Kind(True, is_height, lambda j: ((j,), 0)),
             Kind(True, is_int, lambda j: ((0,), j)))


#: qualified name -> (the callable, given the row's base instance where it is a
#: method, or UNCHECKED) and its parameters in call order
ROWS = {
    "WitnessReport": UNCHECKED,
    "WitnessReport.to_dict": (lambda: sandlab.WitnessReport("V").to_dict, ()),
    "WitnessReport.witness_configurations": (
        lambda: sandlab.WitnessReport("V", C).witness_configurations, ()),
    "check_injective_bounded": (lambda: sandlab.check_injective_bounded, (
        AUTOMATON, p("klass", "F", OBJECT), p("n_or_p", 1, INT), p("h", 1, INT),
        p("include_infinities", False, FLAG), p("max_candidates", 10**3, INT))),
    "check_nilpotent_bounded": (lambda: sandlab.check_nilpotent_bounded, (
        AUTOMATON, CONFIG, p("steps", 5, INT), p("max_core", None, OPTIONAL_INT))),
    "check_preimage_bounded": (lambda: sandlab.check_preimage_bounded, (
        AUTOMATON, p("target", C, OBJECT), p("klass", "F", OBJECT), p("n", 1, INT),
        p("h", 1, INT), p("include_infinities", False, FLAG), p("max_nodes", 10**3, INT))),
    "verify_right_inverse": (lambda: sandlab.verify_right_inverse, (
        p("outer", S, OBJECT), p("inner", SR, OBJECT), p("samples", 3, INT),
        p("seed", 1, INT))),
    "verify_witness_pair": (lambda: sandlab.verify_witness_pair, (
        AUTOMATON, p("c1", ZERO, OBJECT), p("c2", PAIR, OBJECT))),
    "SandAutomaton": (lambda: sandlab.SandAutomaton, (p("radius", 1, INT),)),
    "apply": (lambda: sandlab.apply, (AUTOMATON, CONFIG)),
    "iterate": (lambda: sandlab.iterate, (
        AUTOMATON, CONFIG, p("steps", 5, INT), p("max_core", None, OPTIONAL_INT))),
    "validate_rule": (lambda: sandlab.validate_rule, (
        p("radius", 1, INT),
        p("lines", [LINE], OBJECT, RULE_LINE,
          Kind(True, is_height, lambda j: [((j, WILDCARD), 0)]),
          Kind(True, is_int, lambda j: [((0, 0), j)])),
        p("default_delta", 0, INT))),
    "Configuration": (lambda: Configuration, (
        p("core_start", 0, INT), p("core", (1, 2), OBJECT, HEIGHT_ENTRY),
        p("left", Tail((0,)), OBJECT), p("right", Tail((0,)), OBJECT))),
    "Configuration.finite": (lambda: Configuration.finite, (
        p("deviations", {0: 1}, OBJECT, Kind(True, is_int, lambda j: {j: 1}),
          Kind(True, is_height, lambda j: {0: j})),)),
    "Configuration.periodic": (lambda: Configuration.periodic, (HEIGHTS,)),
    "Configuration.affine": (lambda: Configuration.affine, (HEIGHTS, p("slope", 1, INT))),
    "Configuration.general": (lambda: Configuration.general, (
        p("core_start", 0, INT), p("core", (1, 2), OBJECT, HEIGHT_ENTRY),
        tail("left"), tail("right"))),
    "Configuration.height": (lambda: C.height, (p("i", 0, INT),)),
    "Configuration.heights": (lambda: C.heights, COLUMNS),
    "Configuration.shift": (lambda: C.shift, (p("k", 1, INT),)),
    "Configuration.raise_by": (lambda: C.raise_by, (p("k", 1, INT),)),
    "Configuration.canonicalize": (lambda: C.canonicalize, ()),
    "Configuration.canonical_key": (lambda: C.canonical_key, ()),
    "Tail": (lambda: Tail, (HEIGHTS, p("slope", 0, INT))),
    "Tail.at": UNCHECKED,
    "Tail.window": UNCHECKED,
    "Tail.rebased": UNCHECKED,
    "Tail.mirror": UNCHECKED,
    "equals": (lambda: sandlab.equals, PAIRS),
    "first_difference": (lambda: sandlab.first_difference, PAIRS),
    "is_finite_class": (lambda: sandlab.is_finite_class, (CONFIG,)),
    "sum_grains": (lambda: sandlab.sum_grains, (CONFIG,)),
    "support_radius": (lambda: sandlab.support_radius, (CONFIG,)),
    "CoreBoundExceeded": (lambda: sandlab.CoreBoundExceeded, MESSAGE),
    "DomainError": (lambda: sandlab.DomainError, MESSAGE),
    "ParseError": (lambda: sandlab.ParseError, MESSAGE),
    "RuleError": (lambda: sandlab.RuleError, MESSAGE),
    "SandlabError": (lambda: sandlab.SandlabError, MESSAGE),
    "emit_config_file": (lambda: sandlab.emit_config_file, (CONFIG,)),
    "emit_dump": (lambda: sandlab.emit_dump, (CONFIG, *COLUMNS)),
    "emit_rule_file": (lambda: sandlab.emit_rule_file, (AUTOMATON,)),
    "parse_config_file": (lambda: sandlab.parse_config_file, (
        p("text", "sand-config v1\nkind: periodic\nperiod: 0 1\n", OBJECT),)),
    "parse_dump": (lambda: sandlab.parse_dump, (
        p("text", "dump v1\nwindow: 0 1\nheights: 3 0\n", OBJECT),)),
    "parse_rule_file": (lambda: sandlab.parse_rule_file, (
        p("text", "sand-rule v1\nradius: 1\n", OBJECT),)),
    "render_ascii": (lambda: sandlab.render_ascii, (CONFIG, *COLUMNS)),
    "Infinity": UNCHECKED,
    "Distance": UNCHECKED,
    "Distance.zero": (lambda: Distance.zero, ()),
    "Distance.dyadic": (lambda: Distance.dyadic, (p("exponent", 2, INT),)),
    "Distance.as_float": (lambda: Distance.dyadic(2).as_float, ()),
    "distance": (lambda: sandlab.distance, PAIRS),
    "Lcg64": (lambda: Lcg64, (p("seed", 1, INT),)),
    "Lcg64.next_u64": (lambda: Lcg64(1).next_u64, ()),
    "Lcg64.below": (lambda: Lcg64(1).below, (p("n", 5, INT),)),
    "Lcg64.int_between": (lambda: Lcg64(1).int_between, (p("lo", -2, INT), p("hi", 2, INT))),
    "sample_configuration": (lambda: sandlab.sample_configuration, (
        p("rng", Lcg64(1), OBJECT), p("height", 4, INT), p("include_infinities", False, FLAG))),
    "build_L_preimage": (lambda: sandlab.build_L_preimage, (CONFIG,)),
    "crown_lift": (lambda: sandlab.crown_lift, (
        p("c1", ZERO, OBJECT), p("c2", PAIR, OBJECT), AUTOMATON)),
    "make": (lambda: make, (p("name", "S", OBJECT),)),
    "make_S": (lambda: sandlab.make_S, ()),
    "make_Sr": (lambda: sandlab.make_Sr, ()),
    "periodic_splice": (lambda: sandlab.periodic_splice, SPLICE),
    "splice_match_indices": (lambda: sandlab.splice_match_indices, SPLICE),
}


def public_callables():
    """The qualified name of every exported callable and of every public
    method its class defines (properties and slots are not callables)."""
    names = []
    for name in sandlab._SOURCE:
        value = getattr(sandlab, name)
        if inspect.ismodule(value) or not callable(value):
            continue
        names.append(name)
        if inspect.isclass(value):
            names += [f"{name}.{attr}" for attr, member in vars(value).items()
                      if not attr.startswith("_") and (inspect.isfunction(member)
                      or isinstance(member, (classmethod, staticmethod)))]
    return names


def outcome(call, *args):
    """'result' or 'refused' (a SandlabError), else the exception raised."""
    try:
        call(*args)
    except SandlabError:
        return "refused"
    except Exception as exc:  # noqa: BLE001 - the contract sorts every error
        return exc
    return "result"


def test_every_public_callable_has_a_row_and_no_row_is_stale():
    names = public_callables()
    assert "Configuration.heights" in names and "Lcg64.below" in names
    assert sorted(names) == sorted(ROWS)


@pytest.mark.parametrize("name", [n for n, row in ROWS.items() if row != UNCHECKED])
def test_the_row_names_every_required_parameter(name):
    build, params = ROWS[name]
    func = build()
    try:
        signature = inspect.signature(func)
    except ValueError:  # an exception class that takes *args
        assert issubclass(func, SandlabError), name
        return
    listed = list(signature.parameters)[: len(params)]
    assert listed == [param for param, _, _ in params], name
    required = {param for param, value in signature.parameters.items()
                if value.default is value.empty}
    assert required <= set(listed), name


@pytest.mark.parametrize("name", [n for n, row in ROWS.items() if row != UNCHECKED])
def test_every_junk_value_ends_as_the_rule_says(name):
    build, params = ROWS[name]
    base = [value for _, value, _ in params]
    assert outcome(build(), *base) == "result", name
    for index, (param, _, kinds) in enumerate(params):
        for kind in kinds:
            for junk in JUNK:
                try:
                    value = kind.place(junk)
                except TypeError:  # an unhashable junk value cannot be a key
                    continue
                args = base[:index] + [value] + base[index + 1 :]
                got = outcome(build(), *args)
                case = f"{name}({param}={value!r})"
                if kind.scalar:
                    assert got in ("result", "refused"), (case, got)
                    assert kind.accepts(junk) or got == "refused", (case, got)
                else:
                    assert got in ("result", "refused") or type(got) in (
                        TypeError, AttributeError, ValueError), (case, got)
