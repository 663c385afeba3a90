"""Machine-speed probe: times a fixed reference loop from a timer signal.

The benchmark shares its machine with other tenants, and identical work can
take twice as long from one second to the next (the slowdown shows up as
slower execution, not as lost CPU time, so process CPU time does not help).
The probe runs a short reference loop, made of the same kind of small numpy
operations the program spends its time in, every PERIOD_S seconds of wall
time. A timed interval is then reported twice: raw, and normalised to a
nominal machine on which the reference loop takes NOMINAL_S (about its time
on an idle 2-core x86-64 sandbox), using the reference timings taken around
each part of that interval. The probe's own time is subtracted from every
interval it interrupted. The reference loop is the benchmark's own code, so
a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
NOMINAL_S = 0.001
NEAREST = 7
_ITERATIONS = 400


def reference_loop() -> None:
    """A fixed amount of work shaped like one recurrent step, repeated."""
    x = np.linspace(-1.0, 1.0, 16)
    w = np.linspace(-0.5, 0.5, 28 * 24).reshape(28, 24)
    h = np.zeros(12)
    for _ in range(_ITERATIONS):
        h = np.tanh(np.concatenate([x, h]) @ w)[:12]


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        reference_loop()
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def busy(self, start: float, end: float) -> float:
        """Seconds the probe itself ran inside [start, end)."""
        return sum(d for t, d in self.samples if start <= t < end)

    def reference_s(self, start: float, end: float) -> float:
        """Median reference-loop time inside [start, end), or over the
        NEAREST samples around it when the interval holds fewer."""
        inside = [d for t, d in self.samples if start <= t < end]
        if len(inside) < NEAREST:
            middle = (start + end) / 2.0
            inside = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - middle))[:NEAREST]]
        return statistics.median(inside)

    def raw(self, start: float, end: float) -> float:
        return (end - start) - self.busy(start, end)

    def normalised(self, start: float, end: float) -> float:
        """Seconds [start, end) would take at nominal speed: each stretch
        between probe samples is scaled by the reference time around it."""
        cuts = [start] + [t for t, _ in self.samples if start < t < end] + [end]
        return sum(
            self.raw(a, b) * NOMINAL_S / self.reference_s(a, b) for a, b in zip(cuts, cuts[1:])
        )
