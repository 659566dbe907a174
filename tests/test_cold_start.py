"""The CLI from a fresh interpreter.

In-process tests share one interpreter, so a module some earlier test
imported hides a lazy import the CLI forgot. Every run here starts a new
`python` and compares it with `cli.main` run in process, and checks which
modules a cold start loads.
"""

import os
import subprocess
import sys

import pytest

import sandlab
from sandlab import cli, witnesses

SRC = os.path.dirname(os.path.dirname(sandlab.__file__))
ENV = dict(os.environ, PYTHONPATH=SRC)
ENV.pop("SANDLAB_MAX_CORE", None)


def cfg(name):
    return witnesses.path_of(name + ".cfg")


#: one argv per subcommand
ARGVS = [
    ["simulate", "--rule", "S", "--config", cfg("sandpile-collision-b"),
     "--steps", "2", "--render", "ascii", "--dump"],
    ["render", "--config", cfg("step-two-level"), "--window", "-2", "3"],
    ["distance", cfg("sandpile-collision-a"), cfg("sandpile-collision-b")],
    ["zoo", "S"],
    ["preimage", "--config", cfg("step-two-level")],
    ["crown", "--rule", "S", "--config-a", cfg("sandpile-collision-a"),
     "--config-b", cfg("sandpile-collision-b")],
    ["splice", "--rule", "S", "--config", cfg("sandpile-collision-b"),
     "--target", cfg("sandpile-collision-a"), "--period", "1"],
    ["check-injective", "--rule", "S", "--class", "F", "--window", "1",
     "--height", "1", "--json"],
    ["check-surjective", "--rule", "Sr", "--target", cfg("two-grain-column"),
     "--class", "F", "--window", "3", "--height", "4"],
    ["check-nilpotent", "--rule", "S", "--config", cfg("two-grain-column"),
     "--steps", "5"],
    ["verify-witness", "--rule", "S", "--config-a", cfg("sandpile-collision-a"),
     "--config-b", cfg("sandpile-collision-b"), "--json"],
    ["verify-inverse", "--rule-outer", "S", "--rule-inner", "Sr",
     "--samples", "20", "--seed", "3"],
]


def test_every_subcommand_is_covered():
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    assert sorted(argv[0] for argv in ARGVS) == sorted(subcommands)


@pytest.mark.parametrize("argv", ARGVS, ids=[argv[0] for argv in ARGVS])
def test_cold_run_matches_in_process(argv, capsys):
    done = subprocess.run(
        [sys.executable, "-m", "sandlab.cli", *argv], env=ENV,
        capture_output=True, text=True, timeout=60,
    )
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (
        code, captured.out, captured.err
    )
    assert done.stdout


def loaded_by(statements: str, *flags: str) -> set:
    """Modules a fresh interpreter, started with `flags`, loads while
    running `statements`."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statements}\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", probe], env=ENV, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return set(done.stderr.split())


def test_import_loads_only_what_every_subcommand_needs():
    loaded = loaded_by("import sandlab.cli")
    assert "sandlab.cli" in loaded
    for name in ("dataclasses", "inspect", "json",
                 "sandlab.analysis", "sandlab.metric", "sandlab.rng"):
        assert name not in loaded


@pytest.mark.parametrize("argv", ARGVS[:4], ids=[argv[0] for argv in ARGVS[:4]])
def test_simple_subcommands_skip_the_searches(argv):
    # zoo S, render, simulate and distance never load the searches
    loaded = loaded_by(f"import sandlab.cli\nsandlab.cli.main({argv!r})")
    assert "sandlab.analysis" not in loaded
    assert "sandlab.rng" not in loaded
    assert ("sandlab.metric" in loaded) == (argv[0] == "distance")


def test_zoo_reads_its_rule_file_without_importlib_resources():
    # -S skips `site`, which may import importlib.resources on its own
    loaded = loaded_by('import sandlab.cli\nsandlab.cli.main(["zoo", "S"])', "-S")
    assert "sandlab.witnesses" in loaded
    assert "importlib.resources" not in loaded


def test_search_subcommands_load_analysis_on_demand():
    argv = next(a for a in ARGVS if a[0] == "check-injective")
    loaded = loaded_by(f"import sandlab.cli\nsandlab.cli.main({argv!r})")
    assert {"sandlab.analysis", "sandlab.rng", "json"} <= loaded
