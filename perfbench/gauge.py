"""Host speed gauge: a fixed pure-Python probe, timed between ops.

The benchmark's cores are shared with other work on the host, and the same
fixed loop can take up to twice as long at one moment as at another, over
windows from a fraction of a second to minutes. The probe (a few steps of the
reference sandpile simulation, which imports nothing from sandlab) and the
ops are both single-threaded pure Python, so they slow down together.

Each timed interval is rescaled to a *nominal host*, one on which the probe
takes NOMINAL_S: its wall time times NOMINAL_S over the mean probe time just
before and just after it. A faster or slower sandlab moves the rescaled
times as much as the wall times; a slower host moves them far less.
"""

from __future__ import annotations

import bisect
import statistics
import time

import reference as ref

#: Probe time on the nominal host; about what the probe takes on one idle
#: core of a 2-vCPU Xeon VM under CPython 3.
NOMINAL_S = 0.0015
#: A probe runs before an op when this long has passed since the last one.
GAP_S = 0.02
_SPEC = ("finite", ((0, 40), (1, 35), (2, 30)))
_STEPS = 6
_WARMUP = 5


class Gauge:
    def __init__(self):
        self.at = []
        self.cost = []
        for _ in range(_WARMUP):
            self.probe()
        del self.at[:], self.cost[:]

    def probe(self):
        t0 = time.perf_counter()
        ref.iterate_window(ref.ZOO_TABLES["S"], _SPEC, -30, 30, _STEPS)
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.cost.append(t1 - t0)

    def due(self):
        """Probe unless one ran within the last GAP_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= GAP_S:
            self.probe()

    def nominal(self, seconds, t0, t1):
        """`seconds` of wall time spent from t0 to t1, on the nominal host;
        needs a probe before t0 and one after t1."""
        before = bisect.bisect(self.at, t0) - 1
        after = bisect.bisect(self.at, t1)
        return seconds * NOMINAL_S * 2 / (self.cost[before] + self.cost[after])

    def summary(self):
        return (f"{len(self.cost)} probes, median {statistics.median(self.cost) * 1e3:.3f} ms, "
                f"min {min(self.cost) * 1e3:.3f} ms, max {max(self.cost) * 1e3:.3f} ms "
                f"(nominal {NOMINAL_S * 1e3:g} ms)")
