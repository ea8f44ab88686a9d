"""Host-speed correction for the timing metrics.

The dev host is a shared 2-core VM whose speed moves between states —
the same pass takes 1.0x, 1.2x or 1.7-2.3x its quiet time for seconds to
minutes at a stretch, with no steal, page faults or context switches to
show for it (a busy SMT sibling or cache neighbour).  Ten back-to-back
runs of one workload then spread by up to 0.29 of their median, above the
widest bound the driver accepts (0.25), whatever statistic summarises the
passes (README "Repeatability").

So a run samples the host's speed while it measures: a fixed pure-Python
loop (``probe``, ~2 ms, no simulator code in it) is timed every 100 ms
*inside* the pass, from an interval-timer signal handler, and every
timing is reported at the reference host speed — the one on which the
probe takes ``REFERENCE_S``:

    reported = (measured - time spent in probes) * REFERENCE_S / mean probe time

A change to the simulator cannot move the probe, so a gain or loss shows
in full; a slower or busier host moves both, and cancels.  The raw
seconds and the speed factor travel in the run's ``detail`` line.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: the probe's duration on the reference host (the dev host when quiet)
REFERENCE_S = 0.002
#: seconds between two probes inside a pass (~2 % of the pass)
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds one fixed mix of interpreter work takes right now."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(20000):
        acc += i * i % 7
        table[i & 255] = (acc, i)
    return time.perf_counter() - t0


class Sampler:
    """Context manager: probes the host every ``INTERVAL_S`` while active.

    The handler runs between two bytecodes of the main thread, so a probe
    is a short pause of the pass itself.  ``SA_RESTART`` is kept on, so no
    system call of the program under measurement ever sees ``EINTR``.

    A pass that forks workers onto every core (``during=False``) is probed
    just before and just after instead: a probe inside it would compete
    with the workers and read the pass's own load as a slow host.
    """

    def __init__(self, during: bool = True) -> None:
        self.during = during
        self.samples: List[float] = []
        #: seconds of the region that went into probes, not into the pass
        self.spent_s = 0.0

    def _on_timer(self, _signum, _frame) -> None:
        self.samples.append(probe())
        self.spent_s += self.samples[-1]

    def _burst(self) -> None:
        self.samples += [probe() for _ in range(5)]

    def __enter__(self) -> "Sampler":
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.siginterrupt(signal.SIGALRM, False)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        else:
            self._burst()
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        if not self.samples or not self.during:  # also: a region shorter than one interval
            self._burst()

    @property
    def speed(self) -> float:
        """Host speed during the region: 1.0 on the reference host, 0.5 when
        everything takes twice as long."""
        return REFERENCE_S / statistics.mean(self.samples)
