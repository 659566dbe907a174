"""Argv fuzzing of the CLI, generated from its command table.

For every subcommand in `cli.COMMANDS`, argvs are drawn from the options
it declares. Up to two edits then drop or repeat an option, add an unknown
one, or reorder them all. Values come from small pools:

- files: a bundled witness, a missing path, a directory, bytes that are
  not UTF-8, or a malformed file from the format-fuzz grammar; a rule
  option may also name a zoo rule;
- ints: small values, 0, negatives, `x`, `1.5`, and 10^11;
- choices: the valid ones and one invalid one.

10^11 goes only to options whose guard acts before any work. Each argv runs
in process through `cli.main` and must end in argparse's SystemExit(2) or
in an exit code 0-4; codes 1 and 2 print one `error:` line on stderr and
nothing on stdout. Runs are derandomized, so every run tries the same
argvs. The inputs that ran without bound are listed by name at the end and
run as child processes under a time limit; those that still do are strict
xfails, each naming the ROADMAP item that would bound it.
"""

import contextlib
import hashlib
import io
import os
import resource
import subprocess
import sys
import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402
from test_format_fuzz import (  # noqa: E402
    BAD_RULE_LINE,
    FUZZ,
    MALFORMED_CONFIG_LINE,
    _insert,
    _text,
    config_bodies,
    rule_bodies,
)

import sandlab  # noqa: E402
from sandlab import cli, witnesses  # noqa: E402
from sandlab.formats import CONFIG_HEADER, RULE_HEADER  # noqa: E402
from sandlab.zoo import ZOO  # noqa: E402

HUGE = "100000000000"
INTS = ("1", "2", "1", "2", "0", "-1", "-7", "x", "1.5")
#: the options whose guard acts before any work, so they may be 10^11
GUARDED = {
    ("check-injective", "--window"), ("check-injective", "--period"),
    ("check-injective", "--height"), ("verify-inverse", "--samples"),
    ("render", "--window"), ("simulate", "--window"), ("splice", "--period"),
}
RULE_OPTIONS = {"--rule", "--rule-outer", "--rule-inner", "--automaton"}
UNKNOWN = ("--nope", "--nope=1", "-q")
BUNDLED = sorted(witnesses.available())


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Paths no file parses from: missing, a directory, not UTF-8."""
    root = tmp_path_factory.mktemp("argv")
    (root / "bad.bin").write_bytes(b"\xff\xfe")
    return root, [str(root / "missing.cfg"), str(root), str(root / "bad.bin")]


def _malformed(data, rule: bool) -> str:
    """A file of the format-fuzz grammar with one line no parser takes."""
    lines = data.draw(rule_bodies() if rule else config_bodies())
    _insert(data.draw, lines, [data.draw(BAD_RULE_LINE if rule else MALFORMED_CONFIG_LINE)])
    return _text(RULE_HEADER if rule else CONFIG_HEADER, lines)


def _file(data, root, unreadable, rule: bool) -> str:
    kinds = ["bundled"] * 4 + ["unreadable", "malformed"] + ["zoo"] * 2 * rule
    kind = data.draw(st.sampled_from(kinds))
    if kind == "zoo":
        return data.draw(st.sampled_from(sorted(ZOO)))
    if kind == "unreadable":
        return data.draw(st.sampled_from(unreadable))
    if kind == "malformed":
        text = _malformed(data, rule)
        path = root / hashlib.sha256(text.encode()).hexdigest()[:16]
        path.write_text(text)
        return str(path)
    names = [n for n in BUNDLED if n.endswith(".rule") == rule]
    return witnesses.path_of(data.draw(st.sampled_from(names)))


def _argv(data, name, root, unreadable) -> list:
    """An argv for subcommand `name`: its declared options, each optional
    one present or not, then up to two edits (an option dropped, repeated
    or unknown, or all reordered)."""
    groups, drawn = [], {}
    for flag, kwargs in cli.COMMANDS[name][2]:
        if kwargs.get("action") == "store_true":
            values = []
        elif "choices" in kwargs:
            values = [data.draw(st.sampled_from([*kwargs["choices"]] * 2 + ["nope"]))]
        elif kwargs.get("type") is int:
            huge = (name, flag) in GUARDED or (
                (name, flag) == ("check-surjective", "--window") and drawn["--class"] == ["P"]
            )
            pool = INTS + (HUGE, HUGE) * huge
            values = [data.draw(st.sampled_from(pool)) for _ in range(kwargs.get("nargs", 1))]
        else:
            values = [_file(data, root, unreadable, flag in RULE_OPTIONS)]
        drawn[flag] = values
        if not flag.startswith("-"):
            groups.append(values)
        elif kwargs.get("required") or data.draw(st.booleans()):
            groups.append([flag, *values])
    for _ in range(data.draw(st.integers(0, 2))):
        edit = data.draw(st.sampled_from(["drop", "repeat", "unknown", "reorder"]))
        if edit == "drop" and groups:
            del groups[data.draw(st.integers(0, len(groups) - 1))]
        elif edit == "repeat" and groups:
            _insert(data.draw, groups, [data.draw(st.sampled_from(groups))])
        elif edit == "unknown":
            _insert(data.draw, groups, [[data.draw(st.sampled_from(UNKNOWN))]])
        else:
            groups = data.draw(st.permutations(groups))
    return [name] + [token for group in groups for token in group]


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("usage", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(cli.COMMANDS))
@FUZZ
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit(name, paths, data):
    root, unreadable = paths
    argv = _argv(data, name, root, unreadable)
    code, out, err = _outcome(argv)
    if code == ("usage", 2):
        last = err.splitlines()[-1]
        assert out == "" and last.startswith("sandlab") and ": error: " in last, argv
    elif code in (1, 2):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    else:
        assert code in (0, 3, 4), argv
        assert (out == "") != (err == ""), argv
        assert err == "" or code == 4 and err.startswith("error: "), argv


# -- inputs that ran without bound ------------------------------------------

GLIDER = witnesses.path_of("two-grain-column.cfg")
ITEM_4 = "ROADMAP item 4: a drifting orbit runs every step"
ITEM_2 = "ROADMAP item 2: the F pre-image walk tries every height"
#: files the child processes read, written to a temporary folder as $TMP/<name>
FILES = {
    "zero.cfg": "kind: finite\n",
    "far-one.cfg": f"kind: general\ncore-start: {10**30}\ncore: 1\n"
                   "left-period: 0\nleft-slope: 0\nright-period: 0\nright-slope: 0\n",
}
#: argv and, while it still runs without bound, the reason it does
UNBOUNDED = {
    "simulate-L-glider": (
        ["simulate", "--rule", "L", "--config", GLIDER, "--steps", HUGE], ITEM_4),
    "check-nilpotent-L-glider": (
        ["check-nilpotent", "--rule", "L", "--config", GLIDER, "--steps", HUGE], ITEM_4),
    "check-surjective-F-huge-height": (
        ["check-surjective", "--rule", "S", "--target", GLIDER, "--class", "F",
         "--window", "2", "--height", HUGE], ITEM_2),
    # cores 10^30 columns apart: the runs between them are read per residue
    # class, not per column
    "distance-far-core": (["distance", "$TMP/zero.cfg", "$TMP/far-one.cfg"], None),
}


@pytest.fixture(scope="module")
def unbounded_runs(tmp_path_factory):
    """The UNBOUNDED argvs, started together as child processes under a
    1 GB address-space limit; each has 5 s from the start to end."""
    root = tmp_path_factory.mktemp("unbounded")
    for name, body in FILES.items():
        (root / name).write_text(CONFIG_HEADER + "\n" + body)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sandlab.__file__)))
    env.pop("SANDLAB_MAX_CORE", None)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    runs = {
        key: subprocess.Popen(
            [sys.executable, "-m", "sandlab.cli", *(a.replace("$TMP", str(root)) for a in argv)],
            env=env, preexec_fn=limit,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for key, (argv, _) in UNBOUNDED.items()
    }
    yield time.monotonic() + 5, runs
    for proc in runs.values():
        proc.kill()
        proc.wait()


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=[pytest.mark.xfail(strict=True, reason=reason)] if reason else [])
    for key, (_, reason) in UNBOUNDED.items()
])
def test_known_unbounded_input_ends_within_5_s(key, unbounded_runs):
    deadline, runs = unbounded_runs
    code = runs[key].wait(timeout=max(deadline - time.monotonic(), 0))
    assert 0 <= code <= 4
