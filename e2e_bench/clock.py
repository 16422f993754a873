"""Host-speed calibration for the closed-loop apps workloads.

On a shared host the CPU speed available to one process drifts by
tens of percent over seconds, and all pure-Python work drifts with
it. The apps workloads therefore time a fixed calibration snippet
between turns, about every ``PROBE_EVERY_S`` of wall time, and divide
each time measured in a window by the *speed factor* around it: the
median snippet time within ``LOCAL_S`` of the measurement, over
``REF_PROBE_S``. Reported times are thus milliseconds at a reference
speed (about this benchmark's 2-core reference host), and a turn run
in a slow moment reads the same as one run in a fast moment. A change
to the program moves them exactly as it moves raw wall time; only the
host's drift is divided out.

The open-loop serving workloads are not scaled: most of their latency
is simulated model time that does not drift with the CPU.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

#: Median calibration-snippet time on the reference host (2 cores,
#: Python 3.11), in seconds.
REF_PROBE_S = 0.00017
#: Wall time between two calibration probes inside a timed window.
PROBE_EVERY_S = 0.02
#: A measurement is scaled by the probes taken within this many
#: seconds of it.
LOCAL_S = 0.5
#: Fewer local probes than this fall back to the whole window's.
MIN_LOCAL = 5
#: Probes taken around each set-up.
SETUP_PROBES = 40


def _snippet() -> int:
    # Row tuples grouped through a dict and sorted: the kind of work
    # the program's SQL engine and apps do.
    rows = [(i, i * 7 % 13, f"k{i % 17}", i * 0.5) for i in range(160)]
    groups: dict[str, list] = {}
    for row in rows:
        group = groups.setdefault(row[2], [0, 0.0])
        group[0] += 1
        group[1] += row[3]
    rows.sort(key=lambda row: (row[1], row[0]))
    return len(groups) + rows[0][0]


class Calibration:
    """Calibration probes taken during one window or set-up phase."""

    def __init__(self) -> None:
        #: (end time, duration) of every probe, in time order.
        self.samples: list[tuple[float, float]] = []
        self._next = 0.0
        self._local: dict[int, float] = {}

    def probe(self) -> None:
        start = perf_counter()
        _snippet()
        end = perf_counter()
        self.samples.append((end, end - start))
        self._next = end + PROBE_EVERY_S

    def tick(self) -> None:
        """Probe if ``PROBE_EVERY_S`` passed since the last probe."""
        if perf_counter() >= self._next:
            self.probe()

    def burst(self, count: int = SETUP_PROBES) -> None:
        for _ in range(count):
            self.probe()

    @property
    def factor(self) -> float:
        """Median probe time over the reference; 1.0 before any probe."""
        if not self.samples:
            return 1.0
        return statistics.median(d for _t, d in self.samples) / REF_PROBE_S

    def factor_at(self, moment: float) -> float:
        """The speed factor around ``moment`` (a ``perf_counter`` time),
        from the probes within ``LOCAL_S`` of it, at a tenth of
        ``LOCAL_S`` resolution."""
        key = round(moment / LOCAL_S * 10)
        if key not in self._local:
            centre = key * LOCAL_S / 10
            times = [t for t, _d in self.samples]
            lo = bisect.bisect_left(times, centre - LOCAL_S)
            hi = bisect.bisect_right(times, centre + LOCAL_S)
            near = [d for _t, d in self.samples[lo:hi]]
            self._local[key] = (
                statistics.median(near) / REF_PROBE_S
                if len(near) >= MIN_LOCAL
                else self.factor
            )
        return self._local[key]
