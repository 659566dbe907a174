"""Record reference.json: the outcomes the benchmark checks against that
do not depend on the seed.

    python3 perfbench/record.py

It stores, for the fixed injectivity sweep, each verdict and a digest of
its witnesses, and for every argv of the cli pool, the exit code and the
digests of stdout and stderr. Re-record only on purpose: the file pins
the behaviour of the commit it was recorded at.
"""

from __future__ import annotations

import json
import os
import sys

import lab as labmod
import workloads as wl


def main():
    labmod.check_sources()
    os.chdir(labmod.ROOT)
    lab = labmod.fresh_import()
    injective = {}
    for entry in wl.INJECTIVE_SWEEP:
        rule, klass, n, hh, inf = entry
        report = lab.check_injective_bounded(lab.make(rule), klass, n, hh, inf)
        witnesses = [wl.spec_of(lab, w) for w in report.witness_configurations()]
        injective[wl.injective_key(entry)] = [report.verdict, wl.digest(witnesses)]
    env = wl.cli_env(labmod.ROOT)
    cli = {}
    for argv in wl.cli_pool():
        cli[wl.cli_key(argv)] = wl.cli_record(*wl.cli_invoke(argv, labmod.ROOT, env))
    with open(wl.REFERENCE_FILE, "w") as fh:
        json.dump({"injective": injective, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(injective)} injectivity checks and {len(cli)} CLI runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
