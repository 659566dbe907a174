"""Replay of the CLI outputs pinned by the benchmark.

`perfbench/reference.json` holds, for every argv of the benchmark's CLI
pool, the exit code and the sha256 of stdout and stderr recorded when the
benchmark was defined. Each argv runs here through `cli.main` in process,
from the repository root, and must reproduce all three.
"""

import hashlib
import json
import os

from sandlab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_pinned_argv_reproduces_its_exit_code_and_output(monkeypatch, capsys):
    with open(REFERENCE) as fh:
        pinned = json.load(fh)["cli"]
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("SANDLAB_MAX_CORE", raising=False)
    subcommands = set()
    differing = []
    for key, want in sorted(pinned.items()):
        argv = key.split(" ")
        subcommands.add(argv[0])
        code = cli.main(argv)
        captured = capsys.readouterr()
        if [code, _sha(captured.out), _sha(captured.err)] != want:
            differing.append(key)
    assert not differing, differing
    assert len(pinned) == 237
    assert {"check-injective", "check-surjective", "check-nilpotent",
            "verify-witness", "verify-inverse"} <= subcommands
