"""Timing that is rescaled to a reference host speed.

The benchmark shares its host with other work, and the host's speed
drifts by a quarter or more over tens of seconds.  Every timed unit of
work is therefore bracketed by a fixed calibration workload of about
70 ms, and its duration is rescaled by ``REFERENCE_S`` over the mean of
the two calibration times: the result reads as the seconds the unit
would take on a host where the calibration takes ``REFERENCE_S``.  The
calibration is plain Python of the kinds stronglin's interpreter work
is made of: dict and tuple updates over a small working set, then
indexing tens of thousands of small objects, read in random order, in a
fresh dict.  The objects are built once per process, before run.py
reads the memory floor that ``peak_rss_mb`` is measured above, so they
do not count in it.
stronglin never runs it, so no change to the program moves it.

Measured on a 2-vCPU Xeon (2.1 GHz) host with Python 3.11, alternating
one fixed n=1024 two-phase trial (0.4 s) with the calibration for 180 s:
over 20-trial windows the medians of the raw times spread by 25%
(quartile distance over median); rescaled by the small-working-set loop
alone they spread by 7.5%, by the object-building part alone by 4.8%,
by both by 4.3%.
"""

from __future__ import annotations

import gc
import random
import time
from collections import defaultdict
from contextlib import contextmanager

# Scale of the rescaled times: about what calibrate() takes on the host
# above.
REFERENCE_S = 0.07

_OBJECTS = 30_000


def calibration_pool() -> list:
    return [(i, str(i), [i]) for i in range(_OBJECTS)]


def calibrate(pool: list) -> float:
    """Seconds taken by a fixed amount of interpreter work over ``pool``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        kept = []
        for i in range(120_000):
            k = i % 97
            counts[k] = counts.get(k, 0) + i
            if i % 7 == 0:
                kept.append((k, i))
        rng = random.Random(1)
        index: dict[str, list] = {}
        for _ in range(2 * _OBJECTS):
            o = pool[rng.randrange(_OBJECTS)]
            index[o[1]] = o[2]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Accumulates rescaled and raw seconds per named unit of work."""

    def __init__(self) -> None:
        self.scaled: dict[str, float] = defaultdict(float)
        self.raw: dict[str, float] = defaultdict(float)
        self._pool = calibration_pool()
        self._last = calibrate(self._pool)

    def reset(self) -> None:
        self.scaled.clear()
        self.raw.clear()

    @contextmanager
    def unit(self, name: str):
        """Time the ``with`` body; calibrate right before and after it."""
        before = self._last
        t0 = time.perf_counter()
        try:
            yield
        finally:
            raw = time.perf_counter() - t0
            self._last = calibrate(self._pool)
            self.raw[name] += raw
            self.scaled[name] += raw * REFERENCE_S / ((before + self._last) / 2)
