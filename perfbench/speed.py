"""Host speed: a fixed piece of exact-arithmetic work, timed.

On a shared host the CPU speed available to one process drifts by tens of
percent, at times by half, within seconds, and every pure-Python
computation slows by about the same factor.  The probe does the kind of
work the engine does (dense elimination over Fractions, tuples, dicts) on
fixed data, so its time measures the current speed.  The benchmark runs it
in bursts between operations, and `Meter` runs it from a timer signal every
INTERVAL_S during an operation and takes that time off the operation's.
An operation's seconds are then rescaled by NOMINAL_S / (mean probe time
around and during it): a rescaled second is a second at the speed where
one probe takes NOMINAL_S.  The probe uses only the standard library and
runs with the collector off, so the program's heap does not slow it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0012
BURST = 10  # probes between two operations
INTERVAL_S = 0.05  # probe period during an operation

_rng = random.Random(20030909)
_MATRIX = [[Fraction(_rng.randint(-3, 3)) for _ in range(6)] for _ in range(6)]
_MONOS = [tuple(_rng.randint(0, 2) for _ in range(8)) for _ in range(60)]
del _rng


def _work() -> int:
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                f /= pivot[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], pivot)]
    index: dict = {}
    for a in _MONOS:
        for b in _MONOS[:6]:
            m = tuple(x + y for x, y in zip(a, b))
            index[m] = index.get(m, 0) + 1
    return len(index)


def probe() -> float:
    """Seconds the fixed work takes now.

    The collector is off meanwhile: inside an operation a collection would
    walk the operation's heap and charge it to the probe.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def burst() -> list[float]:
    return [probe() for _ in range(BURST)]


def factor(probes: list[float]) -> float:
    """Rescaling factor for a time measured while these probes were taken."""
    return NOMINAL_S / statistics.fmean(probes)


class Meter:
    """Times calls while probing the host speed during them (main thread only)."""

    def __init__(self):
        self._probes: list[float] = []
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        try:
            self._probes.append(probe())
        except RecursionError:  # the interrupted call sits at the recursion limit
            pass
        self._spent += time.perf_counter() - started

    def time(self, call, sample: bool = True):
        """(result, seconds without probing, probes taken) of call()."""
        self._probes, self._spent = [], 0.0
        if sample:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return result, elapsed - self._spent, self._probes
