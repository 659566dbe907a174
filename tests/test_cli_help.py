"""The CLI's help texts, one usage error and one report header, pinned.

Argparse prints every help string, metavar and option in the order the
parser declares them, so a change in how the parser is built shows here
as a changed transcript. The width is fixed with COLUMNS=80. Python 3.13
wraps usage lines differently (an option stays on the line of its
metavar), so it has a transcript of its own. To re-pin after an intended
change, write `_transcript()` to `cli_help.txt` under Python 3.12 or
older, and to `cli_help_313.txt` under 3.13 or newer.
"""

import contextlib
import io
import sys
from pathlib import Path

from sandlab import cli

PINNED = Path(__file__).resolve().parent / (
    "cli_help_313.txt" if sys.version_info >= (3, 13) else "cli_help.txt"
)

SUBCOMMANDS = (
    "simulate", "render", "distance", "zoo", "preimage", "crown", "splice",
    "check-injective", "check-surjective", "check-nilpotent",
    "verify-witness", "verify-inverse",
)

ARGVS = (
    ["--help"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["simulate", "--config", "c.cfg", "--steps", "1"],
    ["check-injective", "--rule", "S", "--class", "F", "--window", "1",
     "--period", "2", "--height", "1"],
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _transcript():
    blocks = []
    for argv in ARGVS:
        code, out, err = _run(argv)
        blocks.append(
            f"$ sandlab {' '.join(argv)}\n[exit {code}]\n"
            f"[stdout]\n{out}[stderr]\n{err}"
        )
    return "\n".join(blocks)


def test_help_usage_and_header_are_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _transcript() == PINNED.read_text()
