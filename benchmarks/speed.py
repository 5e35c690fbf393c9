"""Timing in seconds at a fixed reference speed of the machine.

On a machine whose cores are shared with other tenants, the speed of the
same code drifts by a third or more over tens of seconds.  A raw wall time
then measures the neighbours as much as the program.  So the benchmark
times a fixed slice of pure-Python exact arithmetic (no ``opdk`` code)
before and after each block of work and, from a ``SIGALRM`` handler, every
``PERIOD_S`` seconds inside it, so that the speed is known within long
calls too.  The work between two slices is scaled by ``NOMINAL_S`` over
the mean of the two slices.  The result is the work's wall time at the
speed at which one slice takes ``NOMINAL_S`` seconds, the slice time
measured on the reference machine in a quiet period.  Slices are not
counted as work; raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

NOMINAL_S = 0.0055
PERIOD_S = 0.2


def reference():
    """The fixed slice: dict updates on tuple keys, integer products and
    Fraction arithmetic, the operations exact linear algebra is made of."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(7000):
        k = (i % 37, i % 41)
        acc[k] = acc.get(k, 0) + i * i % 1_000_003
        if i % 20 == 0:
            x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
    return len(acc), x


class Sampler:
    """Context manager around a block of work."""

    def __init__(self):
        self.slices = []  # (start, end) of every slice, in time order
        self._handler = None

    def _slice(self, *_):
        t0 = time.perf_counter()
        reference()
        self.slices.append((t0, time.perf_counter()))

    def __enter__(self):
        self._slice()
        self._handler = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._slice()

    def slice_time(self, since: int) -> float:
        """Seconds spent in the slices from index ``since`` on."""
        return sum(e - s for s, e in self.slices[since:])

    def times(self):
        """(raw, scaled) seconds of the work between the first and the
        last slice."""
        raw = scaled = 0.0
        for (s0, e0), (s1, e1) in zip(self.slices, self.slices[1:]):
            work = s1 - e0
            raw += work
            scaled += work * 2 * NOMINAL_S / ((e0 - s0) + (e1 - s1))
        return raw, scaled
