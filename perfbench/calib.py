"""Calibration slices: a fixed piece of work that does not use dispbound,
timed every PERIOD_S of wall time while a workload runs.

The machine this benchmark was written on gives a process a share of a
shared host, and its speed swings by up to 1.8x for seconds to minutes at a
time.  ``Sampler`` runs one slice on every SIGALRM of an interval timer, in
the middle of whatever the process is doing, and records when it started
and how long it took.  For any span of the run, ``scale = REFERENCE_S x
mean(1 / slice time)`` over the slices within it converts the span's
measured time into reference seconds: what it would read if every slice had
taken REFERENCE_S.  The slices are evenly spaced in wall time, so each
stands for the machine's speed over an equal share of the span.  A change
to dispbound moves the spans but not the slices.

A slice is what dispbound's hot paths do most: numpy calls on small arrays
(ray casts against a few dozen face planes).  Over four minutes of suite
rounds on a busy host, the log of a round's time moved 1.03 times as much as
the log of this slice's time; against a plain Python arithmetic loop the
factor was 1.29, so such a loop would correct the swings less fully.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

import numpy as np

PERIOD_S = 0.1  # wall time between slices; a slice costs 1-2 % of it
# about one slice's time on the machine the baseline was measured on, in a
# quiet spell (2 vCPUs of an "Intel(R) Xeon(R) Processor", Python 3.11.7,
# numpy 2.4.6); it only sets the scale of the reported times
REFERENCE_S = 0.001

_PLANES = np.random.default_rng(0).random((48, 3)) - 0.5
_DIRECTION = np.array([0.6, -0.48, 0.64])
_ITERATIONS = 120


def _slice() -> float:
    total = 0.0
    for _ in range(_ITERATIONS):
        dots = _PLANES @ _DIRECTION
        hits = _PLANES[dots > 0.1]
        total += float(np.linalg.norm(hits.sum(axis=0)))
    return total


class Sampler:
    """Times one slice every PERIOD_S from ``start()`` until ``stop()``."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _slice()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def between(self, t0: float, t1: float) -> dict:
        """Slices that started in [t0, t1): their count, the time they took
        (part of any time measured across the span) and the span's scale."""
        took = [d for s, d in zip(self.starts, self.durations) if t0 <= s < t1]
        if took:
            speed = statistics.fmean(1.0 / d for d in took)
        else:  # a span shorter than PERIOD_S: time one slice now
            t = time.perf_counter()
            _slice()
            speed = 1.0 / (time.perf_counter() - t)
        return {"slices": len(took), "slice_s": 1.0 / speed,
                "sampled_s": sum(took), "scale": REFERENCE_S * speed}
