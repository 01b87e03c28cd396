"""Host-speed probe: scales measured times to a fixed reference speed.

A benchmark host shared with other work does not run at one speed: the
same clustering job can take 2 s one minute and 4 s the next, because the
instructions themselves run slower, not because the process waits.  Wall
times taken at different moments are then not comparable.

:class:`HostSpeed` samples the host's speed all through a run.  An
interval timer (``SIGALRM``) interrupts the main thread every
``INTERVAL_S`` and runs a small fixed kernel of interpreter and numpy work
(a fraction of a millisecond); each sample is the kernel's wall duration.  A measured
interval ``[t0, t1]`` then converts to *reference time*:

    (t1 - t0 - probe time inside it) * REFERENCE_PROBE_S / mean probe duration

where the mean is over the probes that ran inside the interval widened by
``WINDOW_S`` on each side.  On a host where one probe takes
``REFERENCE_PROBE_S`` the reference time is the wall time.  The probe's
own time inside an interval is subtracted, so the probe costs the program
nothing but the cache traffic of a short kernel every 20 ms.

The probe measures the host, never the program: a change to the program
moves the reference times exactly as it moves the wall times.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import Any

import numpy as np

INTERVAL_S = 0.02
WINDOW_S = 0.1
#: Probe duration that defines reference speed (a fixed scale, of the
#: order of the kernel's duration).
REFERENCE_PROBE_S = 1e-4

_ARRAY = np.arange(256, dtype=float)


def _kernel() -> float:
    """Fixed interpreter + numpy work, the same on every call."""
    table: dict[int, float] = {}
    for i in range(300):
        table[(i * 7919) % 1009] = float(i)
    total = 0.0
    for key in sorted(table):
        total += table[key] * 0.5
    values = _ARRAY
    for _ in range(5):
        values = np.sqrt(values + 1.0)
    return total + float(values[-1])


class HostSpeed:
    """Probe samples of one run, and the conversion of intervals to reference time."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._cumulative: list[float] = [0.0]
        self._busy = False
        self._previous: Any = None

    def _sample(self, _signum: int, _frame: Any) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        duration = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        self._cumulative.append(self._cumulative[-1] + duration)
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    # -- conversion --------------------------------------------------------
    def _between(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds the probe itself ran inside ``[t0, t1]``."""
        lo, hi = self._between(t0, t1)
        return self._cumulative[hi] - self._cumulative[lo]

    def mean_probe(self, t0: float, t1: float) -> float:
        """Mean probe duration around ``[t0, t1]`` (widened by WINDOW_S)."""
        lo, hi = self._between(t0 - WINDOW_S, t1 + WINDOW_S)
        if hi == lo:
            raise RuntimeError("no host-speed probe ran near a measured interval")
        return (self._cumulative[hi] - self._cumulative[lo]) / (hi - lo)

    def reference_s(self, t0: float, t1: float) -> float:
        """The interval ``[t0, t1]`` in reference seconds."""
        wall = t1 - t0 - self.probe_time(t0, t1)
        return wall * REFERENCE_PROBE_S / self.mean_probe(t0, t1)

    def summary(self) -> dict[str, float]:
        """Probe count and duration quartiles of the run, for the results file."""
        if not self.durations:
            return {"probes": 0}
        q1, median, q3 = np.percentile(self.durations, [25, 50, 75])
        return {"probes": len(self.durations), "q1_s": q1, "median_s": median, "q3_s": q3}
