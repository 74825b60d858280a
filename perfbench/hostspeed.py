"""Host-speed normalization of the benchmark's times.

The benchmark runs on a shared host whose speed drifts by a third and
more, in phases from seconds to minutes long (see "Host-speed
normalization" in NOTES.md).  Every end-to-end time is therefore
measured in short steps, and each step's seconds are scaled by the
host's speed next to it: a :func:`probe` times a fixed slice of
interpreter work that does not touch the program, before and after
the step.  A scaled time reads as on a host where the probe takes
``PROBE_REFERENCE_S``.  A change to the program moves the step's time
and not the probe, so it shows in full.
"""

from __future__ import annotations

import statistics
import time

#: Seconds of the probe on the reference host, about that of the
#: 2-vCPU virtual machine of NOTES.md in its fast phases.
PROBE_REFERENCE_S = 0.001

#: Probe units timed per :func:`probe`; it reports their median.
PROBE_UNITS = 9


def _probe_unit():
    """A fixed slice of interpreter work like the engine's own: tuple
    keys, dict lookups and stores, small-int arithmetic and calls."""
    table = {}
    total = 0
    for i in range(4000):
        key = (i & 255, i & 7)
        table[key] = table.get(key, 0) + (i * 3) // 7
        total += len(key)
    return total


def probe():
    """The host's current speed, as the median seconds of a fixed slice
    of interpreter work.  Call it only while nothing else in the process
    runs, so it measures the shared host and not the program."""
    times = []
    for _ in range(PROBE_UNITS):
        started = time.perf_counter()
        _probe_unit()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Meter:
    """Wall time measured in steps, each scaled by the host's speed
    probed at its two ends.  Probe time is in no step."""

    def __init__(self):
        self.raw = 0.0  # seconds as measured
        self.scaled = 0.0  # seconds on the reference host
        self._speed = probe()
        self._start = time.perf_counter()

    def step(self):
        """End the current step and start the next; returns the ended
        step's scale (reference seconds per measured second)."""
        seconds = time.perf_counter() - self._start
        speed = probe()
        scale = PROBE_REFERENCE_S / ((self._speed + speed) / 2)
        self.raw += seconds
        self.scaled += seconds * scale
        self._speed = speed
        self._start = time.perf_counter()
        return scale
