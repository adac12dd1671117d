"""Host-speed probe: scale host time to a reference host speed.

On a shared host the speed of a core drifts by a third within seconds,
and slow and fast phases outlast a run. The drift moves every timing
of the benchmark alike, so it swamps the change a PR makes. A ``Probe``
times a fixed pure-Python loop at points of a repetition: at process
start, after set-up, between DAGs and after the last one. The host time
between two points is scaled by ``PROBE_REF_S`` over the mean probe
time at those points, which gives the time the stretch would take on a
host where one probe takes ``PROBE_REF_S``. Probe time itself is left
out of every stretch.

The probe runs with the garbage collector off, so the program's heap
does not slow it; it touches no program module.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# One probe's median time on the host the benchmark was tuned on (a
# 2-core Intel Xeon VM); it only sets the unit.
PROBE_REF_S = 0.009
# Probes between DAGs are at least this far apart, so a workload of
# many short DAGs spends little of its time probing.
PROBE_EVERY_S = 0.4


# Rows the loop sorts: tuples of a float, an int and a string, as the
# engines' records are.
_rng = random.Random(7)
_ROWS = [(_rng.random(), _rng.randrange(1000), str(i)) for i in range(8000)]


def _loop(n: int = 7500):
    """Dict counting, tuple comparison and key-function sorting: the
    interpreter work the engines spend their time in."""
    counts: dict = {}
    for i in range(n):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
    rows = sorted(_ROWS)
    rows.sort(key=lambda row: (row[1], row[2]))
    return len(counts), rows[0]


class Probe:
    def __init__(self):
        self.points = []    # (start, end, median loop seconds)

    def sample(self) -> None:
        """Time the loop three times and keep the median."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                _loop()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.points.append((start, time.perf_counter(),
                            statistics.median(times)))

    def maybe_sample(self) -> None:
        """Sample if the last sample is ``PROBE_EVERY_S`` old."""
        if time.perf_counter() - self.points[-1][1] >= PROBE_EVERY_S:
            self.sample()

    def span(self, first: int, last: int) -> tuple[float, float]:
        """(host, scaled) seconds from the end of sample ``first`` to
        the start of sample ``last``, without the samples between."""
        host = scaled = 0.0
        for (_s0, end, p0), (start, _e1, p1) in zip(
                self.points[first:last], self.points[first + 1:last + 1]):
            host += start - end
            scaled += (start - end) * PROBE_REF_S / ((p0 + p1) / 2)
        return host, scaled

    def lead(self, since: float) -> tuple[float, float]:
        """(host, scaled) seconds from ``since`` to the first sample,
        scaled by that sample alone."""
        start, _end, p = self.points[0]
        return start - since, (start - since) * PROBE_REF_S / p
