"""The host's speed, sampled while the benchmark times the program.

The benchmark runs on a shared virtual machine whose speed drifts.  A
fixed pure-Python loop there averaged 101 ms over one 10-second window
and 139 ms over another six minutes later, with samples 12% apart
(interquartile range over median) inside any one window.  A median over
a run's passes cannot remove drift that slow, so every host time the
benchmark reports is rescaled to a fixed reference speed.

While a timed block runs, :class:`HostSpeed` interrupts it every
:data:`INTERVAL_S` seconds with a timer signal and times one
:func:`calibration_unit`: fixed Python and numpy work that touches
nothing of the program.  The samples' own time is subtracted from the
block's wall time, and what is left is multiplied by the mean speed of
the host during the block relative to the reference,
``REFERENCE_UNIT_S / unit``.  A change to the program changes the work
in the block but not the calibration, so it shows in full.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds between samples; one sample costs about 2% of that
INTERVAL_S = 0.05
#: seconds one calibration unit takes at the reference speed: about its
#: median on the 2-core machine that recorded ``bench/BASELINE.json``
REFERENCE_UNIT_S = 0.9e-3

_A = np.linspace(0.0, 1.0, 32_000)
_B = _A[::-1].copy()


def calibration_unit() -> float:
    """About a millisecond of interpreter work and a numpy pass over
    256 KB arrays, the two kinds of work the workloads do."""
    total = 0
    for i in range(6_000):
        total += i * i % 7
    return total + float(np.sqrt(_A * _B + 1.0)[0])


class HostSpeed:
    """Samples the host's speed while its ``with`` block runs.

    Only one may be active at a time: it owns ``SIGALRM`` and the real
    interval timer, and puts back the previous handler on exit."""

    def __init__(self) -> None:
        #: duration of each calibration unit run
        self.units: list[float] = []
        #: seconds the timer-driven samples took inside the block
        self.spent = 0.0

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.units:
            # A block shorter than the interval: one sample after it.
            self.units.append(self._unit())

    def _sample(self, signum, frame) -> None:
        unit = self._unit()
        self.units.append(unit)
        self.spent += unit

    @staticmethod
    def _unit() -> float:
        begin = time.perf_counter()
        calibration_unit()
        return time.perf_counter() - begin

    @property
    def factor(self) -> float:
        """Mean speed during the block relative to the reference."""
        return statistics.fmean(REFERENCE_UNIT_S / u for u in self.units)

    def reference_seconds(self, wall: float) -> float:
        """``wall`` seconds measured across the block, less the samples'
        time, at the reference speed."""
        return (wall - self.spent) * self.factor
