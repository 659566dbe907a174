"""Find the sandlab sources of the checkout and import them afresh."""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "sandlab")


class MissingSources(Exception):
    pass


def check_sources():
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise MissingSources(f"no sandlab sources under {PACKAGE}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def fresh_import():
    """Import sandlab from the checkout's sources, dropping any copy
    already imported, and return the package with its submodules loaded.

    Every call builds new classes and new infinity sentinels, so objects
    from an earlier import must not be mixed with the new ones.
    """
    check_sources()
    for name in [n for n in sys.modules if n == "sandlab" or n.startswith("sandlab.")]:
        del sys.modules[name]
    lab = importlib.import_module("sandlab")
    if os.path.dirname(os.path.abspath(lab.__file__)) != PACKAGE:
        raise MissingSources(f"imported sandlab from {lab.__file__}, not {PACKAGE}")
    importlib.import_module("sandlab.cli")
    importlib.import_module("sandlab.witnesses")
    return lab
