"""Bundled corpus of known rule files and witness configurations.

Each entry is a plain text file in the package formats, so the corpus
doubles as golden input for the parser round-trip tests. Load them with
load_config/load_rule by base name. The zoo's five rule tables live here
as `<name>.rule` and nowhere else; `zoo.make(name)` reads them.
"""

import os

from ..automaton import SandAutomaton
from ..config import Configuration
from ..errors import DomainError
from ..formats import parse_config_file, parse_rule_file

_DIR = os.path.dirname(os.path.abspath(__file__))


def _read(name: str) -> str:
    with open(path_of(name), encoding="utf-8") as f:
        return f.read()


def available() -> dict:
    """Map of bundled file names to their kind ('rule' or 'config')."""
    out = {}
    for name in sorted(os.listdir(_DIR)):
        if name.endswith(".rule"):
            out[name] = "rule"
        elif name.endswith(".cfg"):
            out[name] = "config"
    return out


def load_rule(name: str) -> SandAutomaton:
    if not name.endswith(".rule"):
        name += ".rule"
    return parse_rule_file(_read(name))


def load_config(name: str) -> Configuration:
    if not name.endswith(".cfg"):
        name += ".cfg"
    return parse_config_file(_read(name))


def path_of(name: str) -> str:
    """Filesystem path of a bundled file, for handing to the CLI."""
    path = os.path.join(_DIR, name)
    if not os.path.isfile(path):
        raise DomainError(f"no bundled file {name!r}; see available()")
    return path
