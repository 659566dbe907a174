"""sandlab benchmark: one closed-loop client, one op in flight.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 15 --trace 0

Runs one workload (relax, search, compare or cli; see README.md next to
this file) on inputs drawn from `random.Random(seed)`, checks every op's
output against an independent reference, and prints one report line per
metric followed, on the last line, by a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 runs whole cycles of distinct ops until --seconds have gone by
and reports the end-to-end metrics. --trace 1 runs a fixed number of
cycles, untraced and then under cProfile, and reports the per-layer
metrics; its counts repeat exactly for one seed. --smoke shrinks every
size and runs one cycle, for a quick functional check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

import gauge as gaugemod
import lab as labmod
import layers
import workloads as wl

SETUP_REPS = 15
PROBE_REPS = 5
HARD_LIMIT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("automaton.rule_eval.calls", "count"),
    ("automaton.rule_eval.self_s", "s"),
    ("automaton.image_height.calls", "count"),
    ("automaton.image_height.self_s", "s"),
    ("automaton.apply.calls", "count"),
    ("automaton.apply.cum_s", "s"),
    ("config.height.calls", "count"),
    ("config.height.self_s", "s"),
    ("config.canonicalize.calls", "count"),
    ("config.canonicalize.self_s", "s"),
    ("config.core_width.max", "columns"),
    ("config.equals.calls", "count"),
    ("config.equals.self_s", "s"),
    ("metric.distance.calls", "count"),
    ("metric.distance.self_s", "s"),
    ("metric.beta.calls", "count"),
    ("analysis.injective.candidates", "count"),
    ("analysis.preimage.nodes", "count"),
    ("analysis.preimage.nodes_per_check", "nodes/check"),
    ("analysis.search.self_s", "s"),
    ("analysis.injective.cum_s", "s"),
    ("analysis.preimage.cum_s", "s"),
    ("analysis.witness_verify.cum_s", "s"),
    ("rng.sample.calls", "count"),
    ("rng.sample.self_s", "s"),
    ("formats.parse.calls", "count"),
    ("formats.parse.self_s", "s"),
    ("formats.emit.calls", "count"),
    ("formats.emit.self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.cum_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    slots: object
    make_op: object
    prepare: object
    run: object
    check: object
    trace_run: object  # what the traced run profiles, when not `run`
    trace_cycles: int
    min_ops: int
    sizes: str


def _cli_in_process(lab, op, _env):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lab.cli.main(op[1]["argv"])
    return code, out.getvalue().encode(), err.getvalue().encode()


WORKLOADS = {
    "relax": Workload(
        wl.relax_slots, wl.relax_op, wl.relax_prepare, wl.relax_run, wl.relax_check, None, 4,
        110,
        "cycle of 24: 6 piles of 20-200 grains on 2-4 columns relaxed under S; 10 "
        "orbits of 24 steps (2 per zoo rule, all four classes); 6 nilpotency "
        "probes of 60 steps; 2 verify_right_inverse(S, Sr) batches of 60 samples"),
    "search": Workload(
        wl.search_slots, wl.search_op, wl.search_prepare, wl.search_run, wl.search_check,
        None, 1, 110,
        "cycle of 136: injectivity sweep of 60 checks (5 rules; F w<=3 h<=2, P "
        "p<=6, with and without infinities); 70 pre-image checks F/EC/P on seeded "
        "targets; 6 wide-window F pre-image checks at windows 150, 300, 600"),
    "compare": Workload(
        wl.compare_slots, wl.compare_op, wl.compare_prepare, wl.compare_run,
        wl.compare_check, None, 4, 110,
        "cycle of 140 configuration pairs of all four classes, raised by "
        "10^9..10^40, periods up to 40; each op is distance, equals and "
        "first_difference"),
    "cli": Workload(
        wl.cli_slots, wl.cli_op, wl.cli_prepare, wl.cli_run, wl.cli_check,
        _cli_in_process, 2, 110,
        "cycle of 32 sequential CLI processes, drawn by subcommand from a fixed "
        f"pool of {len(wl.CLI_POOL)} argvs over the bundled corpus and the zoo"),
}


def make_ops(work, seed, start, count, smoke):
    """Ops start..start+count-1; op i depends only on (seed, i)."""
    slots = work.slots(smoke)
    return [work.make_op(random.Random(f"{seed}/{i}"), slots[i % len(slots)], smoke)
            for i in range(start, start + count)]


class Deadline:
    """Ends the measured part of a run after `seconds`, even inside an op
    that never returns: the op then raises TimeoutError and counts as
    failed, and the loops stop."""

    def __init__(self, seconds):
        self.expired = False
        signal.signal(signal.SIGALRM, self._expire)
        signal.alarm(seconds)

    def _expire(self, signum, frame):
        self.expired = True
        raise TimeoutError("the run's time limit passed")

    def cancel(self):
        signal.alarm(0)


# -- one op ---------------------------------------------------------------------


class Tally:
    """Per-run op bookkeeping: latencies, outcome records, failures. Op
    times are kept in arrays, so that a run of many ops adds little to the
    peak memory the run reports."""

    def __init__(self):
        self.latencies = array("d")
        self.starts = array("d")
        self.kinds = []
        self.records = []
        self.outputs = []
        self.failed = 0
        self.wrong = 0
        self.problems = {}

    def fail(self, op, what, wrong):
        self.failed += 1
        self.wrong += wrong
        key = f"{op[0]}: {what}"
        self.problems[key] = self.problems.get(key, 0) + 1


def run_op(lab, work, run, op, tally, expected, profile=None, gauge=None):
    """Run and check one op; returns its outcome record."""
    args = work.prepare(lab, op)
    raised = None
    if gauge is not None:
        gauge.due()
    t0 = time.perf_counter()
    try:
        if profile is None:
            out = run(lab, op, args)
        else:
            with profile:
                out = run(lab, op, args)
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        raised = exc
    t1 = time.perf_counter()
    tally.latencies.append(t1 - t0)
    tally.starts.append(t0)
    tally.kinds.append(op[0])
    if raised is not None:
        tally.fail(op, f"raised {type(raised).__name__}", False)
        record = ["raised", type(raised).__name__]
    else:
        tally.outputs.append(out)
        try:
            record = work.check(lab, op, out, expected)
        except Exception as exc:  # a failed check or a broken output
            tally.fail(op, f"{type(exc).__name__}: {exc}", True)
            record = ["wrong", type(exc).__name__]
    tally.records.append(record)
    return record


# -- the two kinds of run ---------------------------------------------------------


def latency_metrics(lat):
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
    }


def timed_run(lab, work, seed, smoke, first, seconds, expected, deadline, gauge):
    """Whole cycles of distinct ops for about `seconds` (the last cycle
    ends within half a cycle of it) and at least min_ops ops; outcome
    records are kept for the first cycle. Returns the latency metrics on
    the nominal host (see gauge.py) and, for the report, on the wall clock."""
    tally = Tally()
    cycle = len(first)
    start = time.perf_counter()
    cycles = 0
    while True:
        ops = first if cycles == 0 else make_ops(work, seed, cycles * cycle, cycle, smoke)
        began = time.perf_counter()
        for op in ops:
            if deadline.expired:
                break
            run_op(lab, work, work.run, op, tally, expected, gauge=gauge)
        if cycles == 0:
            records = tally.records
        tally.records, tally.outputs = [], []
        cycles += 1
        if deadline.expired:
            break
        now = time.perf_counter()
        if now - start + (now - began) / 2 >= seconds and len(tally.latencies) >= work.min_ops:
            break
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    gauge.probe()
    tally.records = records
    metrics = latency_metrics(
        [gauge.nominal(d, t0, t0 + d) for t0, d in zip(tally.starts, tally.latencies)])
    metrics["peak_rss_mb"] = max(self_rss, child_rss) / 1024.0
    return tally, cycles, metrics, latency_metrics(tally.latencies)


def _median_wall(argv, env):
    walls = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=labmod.ROOT, capture_output=True, check=True,
                       timeout=60)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _median_import(env):
    code = ("import time; t = time.perf_counter(); import sandlab.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(PROBE_REPS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=labmod.ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def traced_run(lab, work, ops, expected, deadline):
    """The same ops untraced, then under cProfile; per-layer metrics come
    from the traced copy and must not change its outcomes."""
    run = work.trace_run or work.run
    plain = Tally()
    for op in ops:
        if deadline.expired:
            break
        run_op(lab, work, run, op, plain, expected)

    profile = layers.Profile(labmod.PACKAGE)
    traced = Tally()
    widest = [0]
    canonicalize = lab.config._canonicalize

    def canonicalize_and_measure(c):
        canon = canonicalize(c)
        widest[0] = max(widest[0], len(canon.core))
        return canon

    lab.config._canonicalize = canonicalize_and_measure
    try:
        for op, want in zip(ops, plain.records):
            if deadline.expired:
                break
            if run_op(lab, work, run, op, traced, expected, profile) != want:
                traced.fail(op, "traced outcome differs from the untraced one", True)
    finally:
        lab.config._canonicalize = canonicalize

    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    metrics.update(profile.metrics())
    metrics["config.core_width.max"] = widest[0]
    details = [wl.report_details(o) for o in traced.outputs]
    metrics["analysis.injective.candidates"] = sum(d.get("candidates", 0) for d in details)
    node_counts = [d["nodes"] for d in details if "nodes" in d]
    metrics["analysis.preimage.nodes"] = sum(node_counts)
    metrics["analysis.preimage.nodes_per_check"] = (
        sum(node_counts) / len(node_counts) if node_counts else 0)
    env = wl.cli_env(labmod.ROOT)
    metrics["cli.interpreter_s"] = _median_wall([sys.executable, "-c", "pass"], env)
    metrics["cli.import_s"] = _median_import(env)
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)

    tally = Tally()
    tally.latencies = plain.latencies + traced.latencies
    tally.kinds = plain.kinds + traced.kinds
    tally.records = plain.records
    tally.failed = plain.failed + traced.failed
    tally.wrong = plain.wrong + traced.wrong
    for key, n in list(plain.problems.items()) + list(traced.problems.items()):
        tally.problems[key] = tally.problems.get(key, 0) + n
    return tally, metrics


# -- environment and report -----------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(labmod.PACKAGE)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, labmod.PACKAGE).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(labmod.ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=labmod.ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one cycle")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        labmod.check_sources()
    except labmod.MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.chdir(labmod.ROOT)
    if hasattr(os, "sched_setaffinity"):
        # one core for this process and every CLI child, so that the gauge
        # probes the core the ops run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORKLOADS[args.workload]

    slots = work.slots(args.smoke)
    cycles = 1 if args.smoke else (work.trace_cycles if args.trace else 1)
    gauge = gaugemod.Gauge()
    setups, setup_walls = [], []
    for _ in range(SETUP_REPS):
        gauge.probe()
        t0 = time.perf_counter()
        lab = labmod.fresh_import()
        ops = make_ops(work, args.seed, 0, cycles * len(slots), args.smoke)
        t1 = time.perf_counter()
        gauge.probe()
        setups.append(gauge.nominal(t1 - t0, t0, t1))
        setup_walls.append(t1 - t0)
    wall = {"setup_s": statistics.median(setup_walls)}
    expected = wl.load_reference()

    deadline = Deadline(HARD_LIMIT_S)
    if args.trace:
        tally, metrics = traced_run(lab, work, ops, expected, deadline)
        names = PER_LAYER
    else:
        if args.smoke:
            work = Workload(**{**work.__dict__, "min_ops": 1})
        seconds = 0 if args.smoke else args.seconds
        tally, cycles, metrics, wall_lat = timed_run(
            lab, work, args.seed, args.smoke, ops, seconds, expected, deadline, gauge)
        wall.update(wall_lat)
        metrics["setup_s"] = statistics.median(setups)
        names = END_TO_END
    deadline.cancel()

    attempted = len(tally.latencies)
    counts = {"setup_s": f"median of {len(setups)} set-ups"}
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        counts[name] = f"{attempted} ops"
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs: ops_per_cycle={len(slots)} cycles={cycles} ops={attempted} "
          f"sizes: {'smoke' if args.smoke else work.sizes}")
    print(f"digest: inputs={wl.digest(ops[:len(slots)])} "
          f"outputs={wl.digest(tally.records[:len(slots)])}")
    for name, unit in names:
        n = counts.get(name)
        print(f"  {name:36s} {metrics[name]:>16.6g} {unit}" + (f"  ({n})" if n else ""))
    if not args.trace:
        print("  on the wall clock: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
        print(f"  host gauge: {gauge.summary()}")
    total = sum(tally.latencies)
    for kind in dict.fromkeys(tally.kinds):
        lat = [t for t, k in zip(tally.latencies, tally.kinds) if k == kind]
        print(f"  op {kind:12s} n={len(lat):<6d} median {statistics.median(lat) * 1e3:10.4g} ms"
              f"  {sum(lat) / total:7.1%} of op time")
    print(f"  {'failed_ratio':36s} {tally.failed / attempted:>16.6g}  "
          f"({tally.failed} of {attempted} ops)")
    for what, n in tally.problems.items():
        print(f"  problem x{n}: {what}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
