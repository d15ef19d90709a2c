"""The machine's current speed, from a fixed pure-Python loop.

``run.py`` takes every timing to a reference speed with ``Speed``;
``reference.py`` repeats ``reference_unit`` to show how steady the
machine is.
"""

from __future__ import annotations

from time import perf_counter

#: Timings are reported at the machine speed at which one reference unit
#: takes this long.
REFERENCE_S = 0.005
SAMPLE_GAP_S = 0.1


def reference_unit():
    """Wall time of a fixed pure-Python loop, the machine's current speed."""
    start = perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i
    return perf_counter() - start


class Speed:
    """Reference-speed samples taken between operations, at most every
    ``SAMPLE_GAP_S`` of wall time.

    This machine's speed moves in steps of 20-35 % that last from tens
    of seconds to minutes, and process start-up, numpy kernels and
    Python loops move together (see README).  Each operation's time is
    multiplied by ``REFERENCE_S`` over the reference unit's time measured
    just before it, which takes it to the reference speed.
    """

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def factor(self, fresh=False):
        if fresh or perf_counter() - self._last > SAMPLE_GAP_S:
            self.samples.append(min(reference_unit() for _ in range(2)))
            self._last = perf_counter()
        return REFERENCE_S / self.samples[-1]
