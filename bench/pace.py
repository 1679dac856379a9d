"""CPU-speed reference timed inside the benchmark's children.

On a shared 2-vCPU VM (Python 3.11, Linux 6.18) the speed at which a
process runs Python moved by up to 2x from one child to the next and
drifted over minutes, with CPU time moving with wall time and no steal
time shown: the same operation repeated over four minutes spread 22-41%
of its median (distance between quartiles).  Operation times are
therefore reported in reference seconds: the measured seconds multiplied
by NOMINAL_S over the mean time of ``reference_work`` timed in the same
process, on a timer, while the operation ran.  That cut the spread of
the same operations to 4-7%; a longer reference loop timed in the parent
between children did not narrow it at all.

``reference_work`` uses the standard library only, so no change to
secretary_lab can change its cost; it is timed warm (run twice, the
second run timed) with garbage collection off, so neither the cache
footprint nor the heap of the operation it interrupts moves its time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# The time reference_work takes at nominal speed; a reference second is
# the time in which it could run 1 / NOMINAL_S times.
NOMINAL_S = 0.0005
# Interval of the timer that samples the speed during an operation.
INTERVAL_S = 0.025
# Samples taken before an operation starts: they are the set-up speed of
# the child and the only samples of operations shorter than INTERVAL_S.
LEAD_SAMPLES = 20


def reference_work() -> None:
    """A fixed task shaped like the package's work: exact fractions
    grouped in a dict and sorted, then a dict of tuple keys built and
    scanned."""
    groups: dict[Fraction, list[int]] = {}
    for i in range(60):
        groups.setdefault(Fraction(i % 20, 7 + i % 13), []).append(i)
    sorted(groups)
    table = {(i % 7, i): i for i in range(300)}
    sum(1 for value in table.values() if value == 3)


def sample() -> tuple[int, int]:
    """Run reference_work twice with garbage collection off; return the
    nanoseconds of the second (warm) run and of both together."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.monotonic_ns()
        reference_work()
        warm = time.monotonic_ns()
        reference_work()
        end = time.monotonic_ns()
    finally:
        if enabled:
            gc.enable()
    return end - warm, end - start


class Pacer:
    """Samples the speed on a SIGALRM interval timer while the ``with``
    block runs.  ``samples`` holds the warm reference times in
    nanoseconds; ``busy_ns`` the time the timer's samples took out of the
    block, which the operation's time must not include."""

    def __init__(self, lead: list[int]):
        self.samples = list(lead)
        self.busy_ns = 0
        self._previous = signal.SIG_DFL

    def _tick(self, signum, frame) -> None:
        warm, busy = sample()
        self.samples.append(warm)
        self.busy_ns += busy

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def lead_samples() -> list[int]:
    return [sample()[0] for _ in range(LEAD_SAMPLES)]


def reference_seconds(seconds: float, samples: list[int]) -> float:
    """``seconds`` measured at the speed the samples show, in reference
    seconds."""
    return seconds * NOMINAL_S * 1e9 / statistics.fmean(samples)
