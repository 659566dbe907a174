"""The lazily loaded package surface and the value classes."""

import importlib
import pathlib

import pytest

import sandlab
from sandlab.analysis import WitnessReport
from sandlab.automaton import Rule, SandAutomaton, apply
from sandlab.config import Configuration, Tail, equals
from sandlab.heights import MINUS_INF, PLUS_INF
from sandlab.metric import Distance
from sandlab.zoo import make

#: every name the package exported when it imported all submodules eagerly
#: (less the reference code that moved into the tests), by defining module
EXPORTS = {
    "analysis": """BOUND_EXCEEDED EXHAUSTED_NO_WITNESS WITNESS_FOUND
        WitnessReport check_injective_bounded check_nilpotent_bounded
        check_preimage_bounded verify_right_inverse verify_witness_pair""",
    "automaton": """NEG POS SandAutomaton WILDCARD apply apply_window
        image_height iterate validate_rule""",
    "config": """Configuration Tail equals first_difference is_finite_class
        sum_grains support_radius""",
    "errors": """CoreBoundExceeded DomainError InternalConsistencyError
        ParseError RuleError SandlabError""",
    "formats": """emit_config_file emit_dump emit_rule_file parse_config_file
        parse_dump parse_rule_file render_ascii""",
    "heights": "MINUS_INF PLUS_INF Height Infinity is_finite",
    "metric": "Distance distance",
    "rng": "Lcg64 sample_configuration",
    "zoo": """build_L_preimage crown_lift make make_L make_S make_Sr make_X
        make_Y periodic_splice splice_match_indices""",
}
SUBMODULES = [*EXPORTS, "cli", "witnesses"]
#: lines in src/sandlab/*.py, the count ROADMAP aim 2 tracks
SOURCE_BUDGET = 2606


def test_exported_names_resolve_to_their_submodule_objects():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"sandlab.{module}")
        for name in names.split():
            want = getattr(source, name)
            # drop the cached binding so each spelling resolves afresh
            vars(sandlab).pop(name, None)
            assert getattr(sandlab, name) is want, name
            assert vars(sandlab)[name] is want  # cached after the first use
            vars(sandlab).pop(name, None)
            scope = {}
            exec(f"from sandlab import {name}", scope)
            assert scope[name] is want, name
            assert name in dir(sandlab)


def test_submodule_names_resolve_to_the_modules():
    for module in SUBMODULES:
        want = importlib.import_module(f"sandlab.{module}")
        vars(sandlab).pop(module, None)
        assert getattr(sandlab, module) is want
        scope = {}
        exec(f"from sandlab import {module}", scope)
        assert scope[module] is want


def test_unknown_and_moved_names_raise():
    for name in ("no_such_name", "beta", "diff_vector", "DifferenceVector",
                 "local_delta", "__all__"):
        with pytest.raises(AttributeError):
            getattr(sandlab, name)
    with pytest.raises(ImportError):
        exec("from sandlab import no_such_name", {})
    assert not hasattr(sandlab.metric, "beta")
    assert not hasattr(sandlab.automaton, "local_delta")


def test_value_class_reprs_match_the_dataclass_output():
    assert repr(Tail((1, 2), 3)) == "Tail(values=(1, 2), slope=3)"
    assert repr(Tail((PLUS_INF, 0))) == "Tail(values=(PLUS_INF, 0), slope=0)"
    assert repr(Rule(("*", 1), -1)) == "Rule(pattern=('*', 1), delta=-1)"
    assert repr(make("L")) == (
        "SandAutomaton(radius=1, rules=(Rule(pattern=(neg, *), delta=-1), "
        "Rule(pattern=(pos, *), delta=1)), default_delta=0)"
    )
    assert repr(make("S")) == (
        "SandAutomaton(radius=1, rules=(Rule(pattern=(PLUS_INF, MINUS_INF), "
        "delta=0), Rule(pattern=(PLUS_INF, *), delta=1), Rule(pattern=(*, "
        "MINUS_INF), delta=-1)), default_delta=0)"
    )
    assert repr(SandAutomaton(2)) == "SandAutomaton(radius=2, rules=(), default_delta=0)"
    assert repr(Distance.dyadic(3)) == "Distance(is_zero=False, exponent=3)"
    assert repr(Distance.zero()) == "Distance(is_zero=True, exponent=0)"


def test_value_class_equality_and_hashing():
    pairs = [
        (Tail((1, MINUS_INF), 2), Tail((1, MINUS_INF), 2), Tail((1, MINUS_INF), 1)),
        (Rule((1, "*"), 0), Rule((1, "*"), 0), Rule((1, "*"), 1)),
        (Distance.dyadic(4), Distance(False, 4), Distance.dyadic(5)),
        (make("S"), make("S"), make("Sr")),
    ]
    for a, same, other in pairs:
        assert a == same and not a != same
        assert hash(a) == hash(same)
        assert a != other and not a == other
        assert a != (a,) and a != None  # noqa: E711
    # value equality is by fields, not by meaning
    assert Distance(True, 0) != Distance(True, 1)
    assert Distance.dyadic(2) < Distance.dyadic(1)
    assert len({Tail((0,)), Tail((0,), 0), Tail((0, 0))}) == 2


def test_automaton_equality_ignores_the_memo():
    warm, cold = make("S"), make("S")
    apply(warm, Configuration.finite({0: 3}))
    assert warm.memo and not cold.memo
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)


def test_value_classes_take_no_new_attributes():
    for obj in (
        Tail((0,)), Rule((0, 0), 0), make("S"), Distance.zero(),
        Configuration.finite({0: 1}), WitnessReport("V"),
    ):
        with pytest.raises(AttributeError):
            obj.extra = 1


def test_canonical_form_is_cached_once():
    c = Configuration.general(0, (0, 0, 1, 0), Tail((0, 0)), Tail((0,)))
    canon = c.canonicalize()
    assert c.canonicalize() is canon
    assert canon.canonicalize() is canon
    assert canon.core == (1,) and canon.core_start == 2
    fresh = Configuration.finite({2: 1})
    assert fresh._canon is None
    # equality compares canonical keys, so it caches both canonical forms
    assert equals(c, fresh) and c._canon is canon and fresh._canon is not None
    fresh.canonicalize()
    assert equals(c, fresh) and c == fresh and hash(c) == hash(fresh)


def test_source_stays_within_budget():
    package = pathlib.Path(sandlab.__file__).parent
    lines = sum(path.read_text(encoding="utf-8").count("\n") for path in package.glob("*.py"))
    assert lines <= SOURCE_BUDGET, (
        f"src/sandlab/*.py has {lines} lines, over the budget of {SOURCE_BUDGET}. "
        "Only a change that adds a capability may raise the budget, and it must "
        "say why in CHANGES.md (ROADMAP aim 2)."
    )
