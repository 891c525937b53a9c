"""Machine-speed yardsticks: the times in the last line are scaled by them.

On a shared host the same run can go 1.5 to 2 times slower for seconds or
minutes at a time, whatever the program does (neighbours on the same
cores), which would swamp any bound a regression check could use.  So the
benchmark times a fixed yardstick next to the work and reports each time
as it would read on a machine where the yardstick takes its reference
time: time * reference / (median of the readings nearest to it).  Raw
figures and the readings are kept in the report.

Three yardsticks match the kinds of work:

- ``arithmetic``: pure-Python arithmetic of the kind g2tori spends its time
  on (Fraction products, trial division), run in the process that does
  the work, with the garbage collector paused; reference 1 ms.
- ``integer_loop``: a loop of pure-Python integer arithmetic, run the same
  way; reference 4 ms.  It stands for the long lambda searches of the
  grid, whose speed drifts less with the host's load than trial division
  does, and which ``arithmetic`` therefore over-corrects.
- ``interpreter_start``: ``python -c pass`` as a subprocess, for the ``cli``
  workload, whose inputs each start an interpreter; reference 50 ms.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

NEAREST = 5  # readings that set the speed at one moment


def _work():
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    n = 2 * 3 * 5 * 7 * 11 * 13 * 999983
    d = 2
    while d * d <= n and d < 3000:
        while n % d == 0:
            n //= d
        d += 1
    return acc, n


def _integer_work():
    # acc grows from one machine word to about 250 bits along the loop
    acc = 0
    for i in range(20000):
        acc += i * i * 3 + (acc >> 7)
    return acc


def _timed(work) -> float:
    enabled = gc.isenabled()
    gc.disable()  # a collection owed by the program must not land here
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def arithmetic() -> float:
    return _timed(_work)


def integer_loop() -> float:
    return _timed(_integer_work)


def interpreter_start() -> float:
    # output is piped: with a timeout and no pipes, subprocess polls for the
    # exit in steps of up to 50 ms, which would quantize the reading
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


ARITHMETIC = (arithmetic, 0.001, 0.1)  # (reading, reference seconds, tick seconds)
INTEGER_LOOP = (integer_loop, 0.004, 0.2)
INTERPRETER_START = (interpreter_start, 0.05, 1.0)


class Yardstick:
    """Timestamped readings of one yardstick over one phase of a run,
    taken at most once per tick."""

    def __init__(self, kind=ARITHMETIC):
        self.measure, self.reference, self.tick_s = kind
        self.times: list[float] = []
        self.readings: list[float] = []
        self._due = 0.0

    def tick(self, force: bool = False):
        now = time.perf_counter()
        if not force and now < self._due:
            return
        reading = self.measure()
        end = time.perf_counter()
        self.times.append(end - reading / 2)
        self.readings.append(reading)
        self._due = end + self.tick_s

    def scale(self) -> float:
        """Reference time per second of this phase, over all readings."""
        return self.reference / statistics.median(self.readings)

    def scale_at(self, moment: float) -> float:
        """Reference time per second at ``moment``, from the nearest readings."""
        i = bisect.bisect(self.times, moment)
        lo = max(0, min(i - NEAREST // 2, len(self.readings) - NEAREST))
        return self.reference / statistics.median(self.readings[lo:lo + NEAREST])
