"""Paired benchmark runs of two checkouts, written as one BENCH file.

    python3 tools/pairs.py --parent ../old --change . --seed 1 \\
        --run search:10:8 --run relax:3:3 --out pairs.json

Each `--run W:PAIRS:SECONDS` runs

    python3 perfbench/run.py --workload W --seed S --seconds SECONDS

unmodified, PAIRS times in each checkout directory, alternating which side
runs first (pair 0 runs the parent first). It reads each run's last line,
the JSON object with `correct`, `attempted`, `failed` and `metrics`, and
its `digest:` line. The file it writes holds per workload the seed, the
pairs, whether every run was correct, the failed and attempted ops per
side, whether the output digests of the two sides agree, and per
end-to-end metric the runs, quartiles and median per side, the change's
median over the parent's and the pairs the change won. Which way a metric
is better is read from `BENCHMARK.json` in the change's checkout.

It only reads the benchmark: it changes no file under `perfbench/`, and a
run that is wrong or fails ops is recorded, not hidden. The exit status is
0 once the file is written, whatever the runs reported.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`: its last JSON line, its output
    digest and its `env:` fields."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("digest: "):
            result["digest"] = line.split("outputs=")[1]
        elif line.startswith("env: "):
            result["env"] = dict(field.split("=", 1) for field in line[5:].split())
    return result


def quartiles(runs: list) -> dict:
    if len(runs) == 1:
        q1 = median = q3 = runs[0]
    else:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def summarise(results: dict, seed: int, better: dict) -> dict:
    """The BENCH entry of one workload from its runs, per side in pair order."""
    pairs = len(results["parent"])
    entry = {
        "seed": [seed],
        "pairs": pairs,
        "correct": all(r["correct"] is True for side in SIDES for r in results[side]),
        "failed_ops": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "output_digests_equal": len({r.get("digest") for s in SIDES for r in results[s]}) == 1,
        "metrics": {},
    }
    for name, info in results["parent"][0]["metrics"].items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = -1 if better[name] == "lower" else 1
        won = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        parent_median = statistics.median(runs["parent"])
        entry["metrics"][name] = {
            "unit": info["unit"],
            "better": better[name],
            **{side: quartiles(runs[side]) for side in SIDES},
            "change_over_parent": (statistics.median(runs["change"]) / parent_median
                                   if parent_median else None),
            "change_better_in_pairs": won,
        }
    return entry


def parse_run(text: str) -> tuple:
    workload, pairs, seconds = text.split(":")
    pairs = int(pairs)
    if pairs < 1:
        raise argparse.ArgumentTypeError(f"a run needs at least one pair: {text!r}")
    return workload, pairs, float(seconds)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="the parent's checkout directory")
    p.add_argument("--change", type=Path, required=True, help="the change's checkout directory")
    p.add_argument("--run", type=parse_run, action="append", required=True,
                   metavar="W:PAIRS:SECONDS", help="a workload, its pairs and seconds a run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--note", default="", help="what the change does, for the file's reader")
    p.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    args = p.parse_args(argv)
    if len({workload for workload, _, _ in args.run}) < len(args.run):
        p.error("each workload takes one --run")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bench = {
        "change": args.note,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T",
        "order": "parent and change alternate which runs first; pair 0 runs the parent first",
        "units": "end-to-end times on perfbench's nominal host (gauge-rescaled)",
        "host": f"{platform.machine()}, {platform.system()}, "
                f"{platform.python_implementation()} {platform.python_version()}",
        "claim": None,
        "workloads": {},
    }
    for workload, pairs, seconds in args.run:
        results = {side: [] for side in SIDES}
        for pair in range(pairs):
            for side in SIDES[::-1] if pair % 2 else SIDES:
                checkout = args.parent if side == "parent" else args.change
                results[side].append(run_once(checkout, workload, args.seed, seconds))
        entry = summarise(results, args.seed, better)
        entry["seconds"] = seconds
        entry["source_sha256"] = {s: results[s][0]["env"].get("source_sha256") for s in SIDES}
        bench["workloads"][workload] = entry
        print(f"{workload}: {pairs} pairs, correct={entry['correct']}, failed={entry['failed_ops']}",
              file=sys.stderr)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
