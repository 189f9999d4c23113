"""Machine-speed calibration for the end-to-end timings.

On a host that shares its cores with other tenants, the speed of
pure-Python code switches between levels about 2x apart, several times a
minute and often in the middle of a timed call. Raw wall times of the
same code then spread more between runs than a useful regression bound.

So a small fixed loop is run just before and just after each timed call,
and also during it, from a SIGALRM interval timer every ``PERIOD_S``.
Each stretch of the call between two loop samples is scaled by
``REFERENCE_S`` over the mean loop time at its two ends, and the time
spent in the samples is left out. The loop is frozen benchmark code that
does the same kinds of work as the program (float parsing, validated
frozen dataclasses, comparator sorts, small folds, JSON writing), so it
slows with the machine the way the program does. A change to the program
does not change it. It runs with the garbage collector off, so its time
does not depend on how many objects the program keeps alive.
"""

from __future__ import annotations

import gc
import json
import random
import signal
from dataclasses import dataclass
from functools import cmp_to_key
from statistics import median
from time import perf_counter

# Nominal loop time; a scaled time reads as seconds at this loop time. The
# loop took 0.8 to 1.6 ms on the 2-core Intel Xeon VM (Python 3.11.7) where
# the bounds were set. Changing it rescales every recorded figure.
REFERENCE_S = 0.001
# Interval between loop samples inside a timed call; each sample adds
# about 2% to the call's wall time, which is not counted.
PERIOD_S = 0.05

_rng = random.Random(20240407)
_TEXT = "\n".join(",".join(repr(_rng.random()) for _ in range(5))
                  for _ in range(60))


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(self.a)


def _loop() -> float:
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        rows = [[_Pair(float(c), 0.5) for c in line.split(",")]
                for line in _TEXT.splitlines()]
        out = []
        for r in rows:
            order = sorted(range(len(r)), key=cmp_to_key(
                lambda i, j: (r[i].a > r[j].a) - (r[i].a < r[j].a)))
            acc = 0.0
            for k in order:
                acc += r[k].a * r[k].b
            out.append({"id": str(len(out)), "value": acc, "ok": True})
        json.dumps(out, indent=2)
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def loop_seconds() -> float:
    """Median of three runs of the calibration loop."""
    return median(_loop() for _ in range(3))


class Clock:
    """Times calls scaled by the calibration loop; ``loops`` keeps every
    loop time it measured."""

    def __init__(self):
        self.loops: list[float] = []

    def time(self, call, period: float = PERIOD_S):
        """Time ``call()``: (result, seconds, scaled seconds), both
        without the time spent in the loop samples. ``period=0`` takes no
        samples inside the call, only at its ends."""
        samples = []  # (start, loop seconds, end)

        def sample(signum, frame):
            start = perf_counter()
            samples.append((start, _loop(), perf_counter()))

        previous = signal.signal(signal.SIGALRM, sample)
        try:
            before = loop_seconds()
            t0 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, period, period)
            try:
                result = call()
                t1 = perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            after = loop_seconds()
        finally:
            signal.signal(signal.SIGALRM, previous)
        seconds = scaled = 0.0
        t, loop = t0, before
        for start, loop_s, end in [s for s in samples if s[0] < t1] + [(t1, after, t1)]:
            seconds += start - t
            scaled += (start - t) * REFERENCE_S / ((loop + loop_s) / 2)
            t, loop = end, loop_s
        self.loops += [before] + [s[1] for s in samples] + [after]
        return result, seconds, scaled
