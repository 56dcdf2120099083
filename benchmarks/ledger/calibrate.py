"""Calibrated seconds: the ledger's clock, pin and summary statistics.

The sandbox this repository is measured in is heavily shared: the same
pure-Python pass swings by tens of percent, and the machine flips
between a fast and a ~1.5x slower state every few seconds. Raw wall
seconds therefore do not repeat within a tenth. Every timed region is
measured against a frozen pure-Python calibration *unit* (~3 ms) that
runs immediately before and after it and, through an interval timer,
every ``SAMPLE_INTERVAL_S`` *inside* it; a metric in "calibrated
seconds" is ``region_seconds / seconds_per_unit * (CAL_REF_S /
UNITS_PER_SAMPLE)`` — seconds on a machine that runs
``UNITS_PER_SAMPLE`` units in exactly ``CAL_REF_S``. Raw values are kept
beside every metric as information.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Sequence, Tuple

#: Seconds one calibration sample (``UNITS_PER_SAMPLE`` units) takes on
#: the reference machine. A constant, not a measurement: changing it
#: rescales every ``_s`` metric.
CAL_REF_S = 0.040

#: Calibration units in the sample taken before and after a timed region.
UNITS_PER_SAMPLE = 12

#: Seconds between the calibration units run inside a timed region.
#: Prototype, machine flipping state every 1-3 s, 2 s passes: against
#: the bracketing samples alone a pass repeated within 13 % (quartile
#: spread) and a run of eight within 9 %; with these units inside the
#: pass, 6.5 % and 4 %. The units cost 7 % of the region and are
#: subtracted from it.
SAMPLE_INTERVAL_S = 0.05

#: Quartile spread (IQR / median) of the calibration within one
#: workload above which the machine is declared too noisy to measure.
MAX_CAL_SPREAD = 0.25


def _calibration_unit() -> None:
    """Frozen pure-Python work: int/dict churn, what the simulator hot
    path stresses (the idea of ``tools/bench_log.py``'s calibration
    workload). Never edit: every committed record is expressed in
    units of this loop.
    """
    acc = 0
    table: Dict[int, int] = {}
    for i in range(26_000):
        acc += (i * 2654435761) % 1013
        if i % 17 == 0:
            table[i & 1023] = acc
    if not (acc and table):
        raise AssertionError("calibration loop optimised away")


class Calibration:
    """Calibration units run so far: count, wall and CPU seconds.

    :meth:`sample` runs ``UNITS_PER_SAMPLE`` units now (the bracket
    around a timed region); inside a :meth:`running` block an
    interval timer runs one more unit every ``SAMPLE_INTERVAL_S`` in
    the main thread, between two bytecodes of whatever it is executing,
    so a region is measured against the machine's speed *while it ran*.
    :meth:`sample` and :meth:`take` hand back ``(units, wall_s,
    cpu_s)`` and clear the totals. Where the platform has no
    ``setitimer`` only the bracket is taken.
    """

    def __init__(self) -> None:
        self.units = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _unit(self, _signum=None, _frame=None) -> None:
        # Thread CPU time: in a threaded workload the unit must not be
        # charged for what other threads did meanwhile.
        cpu0 = time.thread_time()
        wall0 = time.perf_counter()
        _calibration_unit()
        self.wall_s += time.perf_counter() - wall0
        self.cpu_s += time.thread_time() - cpu0
        self.units += 1

    def sample(self) -> Tuple[int, float, float]:
        for _ in range(UNITS_PER_SAMPLE):
            self._unit()
        return self.take()

    @contextmanager
    def running(self) -> Iterator[None]:
        """Run one unit every ``SAMPLE_INTERVAL_S`` inside the block."""
        timed = hasattr(signal, "setitimer")
        if timed:
            signal.signal(signal.SIGALRM, self._unit)
            signal.setitimer(
                signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
            )
        try:
            yield
        finally:
            if timed:
                signal.setitimer(signal.ITIMER_REAL, 0.0)

    def take(self) -> Tuple[int, float, float]:
        taken = (self.units, self.wall_s, self.cpu_s)
        self.units, self.wall_s, self.cpu_s = 0, 0.0, 0.0
        return taken


def pin_to_one_cpu() -> bool:
    """Pin this process (and its future children) to a single CPU.

    Returns whether the pin took effect; platforms without
    ``sched_setaffinity`` run unpinned and the record says so.
    """
    if not hasattr(os, "sched_setaffinity"):
        return False
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
    except OSError:
        return False
    return True


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summarise(values: Sequence[float]) -> dict:
    """``n``/median/quartiles/min/max of *values* (JSON-able)."""
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": q2,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }
