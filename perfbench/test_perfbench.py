"""Tests of the benchmark itself: checkers, seeding, smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import gauge
import lab as labmod
import run
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(labmod.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def lab():
    return labmod.fresh_import()


@pytest.fixture(scope="module")
def expected():
    return wl.load_reference()


def _bench(*args, cwd=labmod.ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


# -- checkers reject wrong outputs -------------------------------------------------


def _replace_witness(report, witness):
    return type(report)(report.verdict, witness, report.bounds, report.evidence_note,
                        report.grade, report.details)


def test_corrupted_collision_witness_is_rejected(lab, expected):
    op = ("injective", {"entry": ["S", "F", 1, 1, False]})
    out = wl.search_run(lab, op, wl.search_prepare(lab, op))
    assert out.verdict == lab.WITNESS_FOUND
    wl.search_check(lab, op, out, expected)
    a, b = out.witness_configurations()
    bad = _replace_witness(out, (a, b.raise_by(1)))
    with pytest.raises(wl.CheckFailed):
        wl.search_check(lab, op, bad, expected)


def _preimage_op():
    target = wl.preimage_target(random.Random(0), "L", "F", 2, 1, False)
    # "reachable": False makes the checker confirm a missing pre-image by
    # its own exhaustive search instead of knowing one exists
    return ("preimage", {"rule": "L", "klass": "F", "n": 2, "h": 1, "target": target,
                         "reachable": False})


def test_corrupted_preimage_witness_is_rejected(lab, expected):
    op = _preimage_op()
    out = wl.search_run(lab, op, wl.search_prepare(lab, op))
    assert out.verdict == lab.WITNESS_FOUND
    wl.search_check(lab, op, out, expected)
    (w,) = out.witness_configurations()
    bad = _replace_witness(out, w.shift(1))
    with pytest.raises(wl.CheckFailed):
        wl.search_check(lab, op, bad, expected)


def test_missed_preimage_is_rejected(lab, expected):
    op = _preimage_op()
    out = wl.search_run(lab, op, wl.search_prepare(lab, op))
    exhausted = type(out)(lab.EXHAUSTED_NO_WITNESS, None, out.bounds, "", out.grade, {})
    with pytest.raises(wl.CheckFailed):
        wl.search_check(lab, op, exhausted, expected)


def test_wrong_cli_stdout_is_rejected(lab, expected):
    op = ("cli", {"argv": ["zoo", "S"]})
    code, stdout, stderr = wl.cli_run(lab, op, wl.cli_prepare(lab, op))
    wl.cli_check(lab, op, (code, stdout, stderr), expected)
    with pytest.raises(wl.CheckFailed):
        wl.cli_check(lab, op, (code, stdout.replace(b"-1", b"+1"), stderr), expected)
    with pytest.raises(wl.CheckFailed):
        wl.cli_check(lab, op, (3, stdout, stderr), expected)


def test_wrong_distance_and_unsettled_pile_are_rejected(lab, expected):
    x = ("raised", 10**30, ("finite", ((0, 1), (3, 2))))
    y = ("raised", 10**30, ("finite", ((0, 1), (3, 3))))
    op = ("pair", {"x": x, "y": y})
    dist, same, col = wl.compare_run(lab, op, wl.compare_prepare(lab, op))
    assert wl.compare_check(lab, op, (dist, same, col), expected)[1] == "2^-3"
    with pytest.raises(wl.CheckFailed):
        wl.compare_check(lab, op, (lab.Distance.dyadic(4), same, col), expected)
    with pytest.raises(wl.CheckFailed):
        wl.compare_check(lab, op, (dist, same, 1), expected)

    op = ("pile", {"pile": ("finite", ((0, 9), (1, 4)))})
    c, steps = wl.relax_run(lab, op, wl.relax_prepare(lab, op))
    wl.relax_check(lab, op, (c, steps), expected)
    with pytest.raises(wl.CheckFailed):
        wl.relax_check(lab, op, (wl.build(lab, op[1]["pile"]), 0), expected)


# -- seeding -----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_determines_inputs(name):
    work = run.WORKLOADS[name]
    n = len(work.slots(False))
    first = run.make_ops(work, 5, 0, n, False)
    assert first == run.make_ops(work, 5, 0, n, False)
    assert wl.digest(first) != wl.digest(run.make_ops(work, 6, 0, n, False))
    assert first != run.make_ops(work, 5, n, n, False)


# -- host speed gauge ----------------------------------------------------------------


def test_gauge_rescales_by_the_probes_around_an_interval():
    g = gauge.Gauge()
    g.at, g.cost = [0.0, 1.0, 2.0], [gauge.NOMINAL_S, 2 * gauge.NOMINAL_S, 4 * gauge.NOMINAL_S]
    assert g.nominal(0.3, 0.2, 0.5) == pytest.approx(0.2)
    assert g.nominal(0.3, 1.2, 1.5) == pytest.approx(0.1)


# -- whole runs ---------------------------------------------------------------------


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digests(proc):
    return next(line for line in proc.stdout.splitlines() if line.startswith("digest:"))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_runs_every_workload(name):
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    runs = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        runs[trace] = proc = _bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace",
                      str(trace), "--smoke")
        result = _last_json(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    again = _bench("--workload", name, "--seed", "3", "--seconds", "0", "--smoke")
    other = _bench("--workload", name, "--seed", "4", "--seconds", "0", "--smoke")
    assert _digests(runs[0]) == _digests(again)
    assert _digests(runs[0]) != _digests(other)


def test_metric_lists_match_benchmark_json():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "relax", "--seed", "1", "--seconds", "1", cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
