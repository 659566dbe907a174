"""The lazily loaded package surface and the value classes."""

import ast
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
#: (less the reference code that moved into the tests and the retired second
#: spellings of REMOVED), by defining module
EXPORTS = {
    "analysis": """BOUND_EXCEEDED EXHAUSTED_NO_WITNESS WITNESS_FOUND
        WitnessReport check_injective_bounded check_nilpotent_bounded
        check_preimage_bounded verify_right_inverse verify_witness_pair""",
    "automaton": "NEG POS SandAutomaton WILDCARD apply iterate validate_rule",
    "config": """Configuration Tail equals first_difference is_finite_class
        sum_grains support_radius""",
    "errors": "CoreBoundExceeded DomainError ParseError RuleError SandlabError",
    "formats": """emit_config_file emit_dump emit_rule_file parse_config_file
        parse_dump parse_rule_file render_ascii""",
    "heights": "MINUS_INF PLUS_INF Height Infinity",
    "metric": "Distance distance",
    "rng": "Lcg64 sample_configuration",
    "zoo": """build_L_preimage crown_lift make make_S make_Sr periodic_splice
        splice_match_indices""",
}
#: retired second spellings, by the module that defined them: window_image
#: over Configuration.heights reads an image, zoo.make(name) builds a zoo
#: rule, and `+` absorbs an offset
REMOVED = {
    "image_height": "automaton", "apply_window": "automaton", "make_L": "zoo",
    "make_X": "zoo", "make_Y": "zoo", "is_finite": "heights", "ext_add": "heights",
    "InternalConsistencyError": "errors",
}
SUBMODULES = [*EXPORTS, "cli", "witnesses"]
#: lines in src/sandlab/**/*.py, the count ROADMAP aim 2 tracks
SOURCE_BUDGET = 2597


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
                 "local_delta", "__all__", *REMOVED):
        with pytest.raises(AttributeError):
            getattr(sandlab, name)
        with pytest.raises(ImportError):
            exec(f"from sandlab import {name}", {})
    assert not hasattr(sandlab.metric, "beta")
    assert not hasattr(sandlab.automaton, "local_delta")
    for name, module in REMOVED.items():
        assert not hasattr(importlib.import_module(f"sandlab.{module}"), name), name


def test_names_the_benchmark_reads_resolve():
    """Every `lab.<name>` and `lab.<name>.<attr>` that perfbench/*.py reads
    (dunders aside) resolves on the package, read from the parsed files."""
    root = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    chains = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            head, parts = node, []
            while isinstance(head, ast.Attribute):
                parts.insert(0, head.attr)
                head = head.value
            if isinstance(head, ast.Name) and head.id == "lab" and len(parts) <= 2:
                chains.add(tuple(parts))
    chains = {c for c in chains if not any(p.startswith("__") and p.endswith("__") for p in c)}
    assert {("make_S",), ("make_Sr",), ("config", "_canonicalize")} <= chains
    for chain in sorted(chains):
        value = sandlab
        for part in chain:
            assert hasattr(value, part), "lab." + ".".join(chain)
            value = getattr(value, part)


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
    lines = sum(path.read_text(encoding="utf-8").count("\n") for path in package.rglob("*.py"))
    assert lines == SOURCE_BUDGET, (
        f"src/sandlab/**/*.py has {lines} lines, not the recorded {SOURCE_BUDGET}. "
        "A cut records its new count here; only a change that adds a capability "
        "may raise it, and it must say why in CHANGES.md (ROADMAP aim 2)."
    )
