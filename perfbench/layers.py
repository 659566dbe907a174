"""Per-layer counters and times for the traced run.

The traced run profiles each op with cProfile and folds the profile into
layer metrics here. Every profiled code object is attributed to the
top-level function or method of sandlab that encloses it (found from the
module's syntax tree), so generator expressions, lambdas and nested
helpers count towards their enclosing function. Nothing under src/ is
changed; the one wrapper the run installs (for the widest core) sits on a
module attribute and is removed afterwards.
"""

from __future__ import annotations

import ast
import cProfile
import os
import pstats

#: metric prefix -> (module file, functions counted as calls, functions
#: whose self time counts, functions whose cumulative time counts).
#: Functions are qualified names inside the module; "*" means all of them.
GROUPS = {
    "automaton.rule_eval": (
        "automaton.py", ["_delta_from_entries"],
        ["_delta_from_entries", "atom_matches", "local_delta"], []),
    "automaton.image_height": (
        "automaton.py", ["image_height"],
        ["image_height", "_entries_around", "apply_window"], []),
    "automaton.apply": ("automaton.py", ["apply"], [], ["apply"]),
    "config.height": (
        "config.py", ["Configuration.height", "Tail.at"],
        ["Configuration.height", "Tail.at", "Configuration.heights"], []),
    "config.canonicalize": (
        "config.py", ["_canonicalize"],
        ["Configuration.canonicalize", "Configuration.canonical_key",
         "Configuration.__hash__", "_canonicalize", "_reduce_tail",
         "_back_extension", "_extend_back", "_drop_front",
         "_fully_affine_rebased"], []),
    "config.equals": (
        "config.py", ["equals", "first_difference"],
        ["equals", "_tails_agree", "first_difference", "_pattern_step",
         "Configuration.__eq__", "Configuration.__ne__"], []),
    "metric.distance": (
        "metric.py", ["distance"],
        ["distance", "_class_minimum", "_separating_gauge"], []),
    "metric.beta": ("metric.py", ["beta"], [], []),
    "analysis.search": ("analysis.py", [], ["*"], []),
    "analysis.injective": ("analysis.py", [], [], ["check_injective_bounded"]),
    "analysis.preimage": ("analysis.py", [], [], ["check_preimage_bounded"]),
    "analysis.witness_verify": ("analysis.py", [], [], ["verify_witness_pair"]),
    "rng.sample": ("rng.py", ["sample_configuration"], ["*"], []),
    "formats.parse": (
        "formats.py", ["parse_rule_file", "parse_config_file", "parse_dump"],
        ["parse_rule_file", "parse_config_file", "parse_dump", "_strip_lines",
         "_parse_height", "_parse_atom", "_parse_int"], []),
    "formats.emit": (
        "formats.py", ["emit_rule_file", "emit_config_file", "emit_dump", "render_ascii"],
        ["emit_rule_file", "emit_config_file", "emit_dump", "render_ascii",
         "format_height", "_format_atom"], []),
    "cli.main": ("cli.py", [], [], ["main"]),
}


def function_spans(path):
    """[(qualified name, first line, last line)] for the top-level
    functions and methods of one source file. The first line is the one
    Python records for the code object (the first decorator, if any)."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    spans = []

    def add(node, prefix):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        spans.append((prefix + node.name, first, node.end_lineno))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node, "")
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(item, node.name + ".")
    return spans


class Profile:
    """Accumulates a cProfile over many ops; enable only around an op."""

    def __init__(self, package_dir):
        self.package_dir = package_dir
        self.profiler = cProfile.Profile()
        self.spans = {}

    def __enter__(self):
        self.profiler.enable()
        return self

    def __exit__(self, *exc):
        self.profiler.disable()
        return False

    def _owner(self, module, lineno):
        if module not in self.spans:
            self.spans[module] = function_spans(os.path.join(self.package_dir, module))
        for name, first, last in self.spans[module]:
            if first <= lineno <= last:
                return name, lineno == first
        return None, False

    def per_function(self):
        """{(module, qualified name): [calls, self_s, cum_s]} where calls
        and cum_s come from the function's own code object and self_s sums
        everything nested in it."""
        out = {}
        prefix = os.path.join(self.package_dir, "")
        for (path, lineno, _), (_, ncalls, tottime, cumtime, _) in pstats.Stats(
            self.profiler
        ).stats.items():
            if not path.startswith(prefix):
                continue
            module = os.path.relpath(path, self.package_dir)
            name, own = self._owner(module, lineno)
            if name is None:
                continue
            row = out.setdefault((module, name), [0, 0.0, 0.0])
            row[1] += tottime
            if own:
                row[0] += ncalls
                row[2] += cumtime
        return out

    def metrics(self):
        table = self.per_function()
        out = {}
        for prefix, (module, calls, selfs, cums) in GROUPS.items():
            rows = {name: row for (mod, name), row in table.items() if mod == module}

            def pick(names):
                return rows.values() if names == ["*"] else [rows[n] for n in names if n in rows]

            if calls:
                out[prefix + ".calls"] = sum(r[0] for r in pick(calls))
            if selfs:
                out[prefix + ".self_s"] = sum(r[1] for r in pick(selfs))
            if cums:
                out[prefix + ".cum_s"] = sum(r[2] for r in pick(cums))
        return out
