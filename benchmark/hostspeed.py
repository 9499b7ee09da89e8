"""Rescaling measured times to a reference host speed.

The hosts this benchmark runs on share their cores: the same fixed work
takes anywhere from 1x to 2x as long from one second to the next, with the
process on the CPU the whole time, and a slow stretch can outlast a whole
run. No estimator over raw times (mean, median, upper quantile of rounds)
held runs of the same code within 15% of each other on such a host.

So every unit of measured work (one SGD step, one particle set, one CLI
command, one set-up: milliseconds to a second) sits between two runs of a
fixed calibration chunk of about 1.5 ms, and the unit's time is multiplied
by CALIBRATION_REF_S / (the mean of those two chunks' times). The unit and
its chunks see the same host state, so the product is the time the unit
would have taken on a host running the chunk in CALIBRATION_REF_S. The chunk does the kind of work simppl does
(small slotted objects, dict updates, math calls, small numpy products) and
uses no simppl code, so a change to the program moves the unit's time and
not the chunk's.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Median duration of one calibration chunk on the reference host (2-core
# VM, Python 3.11.7, numpy 2.4.6).
CALIBRATION_REF_S = 1.5e-3

_W = np.random.default_rng(0).normal(0.0, 0.1, size=(64, 49))


class _Cell:
    __slots__ = ("x", "n")

    def __init__(self, x, n):
        self.x = x
        self.n = n


def calibrate():
    """Run the calibration chunk once and return its wall seconds."""
    t0 = perf_counter()
    acc = 0.0
    table = {}
    for i in range(2000):
        cell = _Cell(i * 0.5, i)
        table[i & 255] = cell
        acc += math.log1p(cell.x) - cell.n * 1e-6
    v = np.zeros(49)
    for _ in range(100):
        h = np.tanh(_W @ v + 0.1)
        v = np.concatenate([h[:48], [acc * 1e-9]])
    return perf_counter() - t0


class Meter:
    """Accumulates raw and rescaled time over consecutive units of work.

    ``start`` calibrates and opens the first unit; each ``lap`` closes the
    running unit, calibrates outside it, and opens the next, so each chunk
    serves the units on both sides of it.
    """

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self._t0 = None
        self._calibration = None

    def start(self):
        self._calibration = calibrate()
        self._t0 = perf_counter()

    def lap(self):
        seconds = perf_counter() - self._t0
        before, self._calibration = self._calibration, calibrate()
        self.add(seconds, 0.5 * (before + self._calibration))
        self._t0 = perf_counter()

    def add(self, seconds, calibration_s):
        """Count a unit timed elsewhere, with the calibration time seen there."""
        self.raw += seconds
        self.scaled += seconds * CALIBRATION_REF_S / calibration_s
