"""Correct timed sections for the machine's speed while they ran.

On a shared host the interpreter's speed can swing by a factor of two for tens
of seconds at a time.  Longer runs do not average that out, so raw wall times
of identical runs spread far more than any useful regression bound.

`Pace` times a section and, every INTERVAL_S while it runs, a SIGALRM handler
times a fixed probe: this file's own LCS DP on two fixed words, independent of
the library.  The probe shares the section's CPU, so its mean duration tracks
the slowdown the section suffered.  `corrected` is the section's time minus
the probes' time, scaled by REFERENCE_PROBE_S / mean probe time: the seconds
the section would have taken had the probe run at its reference speed.
A change to the library moves the section time but not the probe, so it still
shows in full.

The timer is a process-wide resource: only one Pace may run at a time, and
forked children do not inherit the timer.
"""

from __future__ import annotations

import signal
import statistics
import time

from workloads import lcs

INTERVAL_S = 0.02
# Mean probe time on a 2-vCPU Intel Xeon 2.0 GHz VM (Python 3.11), so that
# corrected times read close to wall times there.
REFERENCE_PROBE_S = 0.0004
_A = tuple(i % 3 for i in range(12))
_B = tuple((i // 2) % 3 for i in range(12))


def _probe() -> None:
    for _ in range(8):
        lcs(_A, _B)


class Pace:
    """Context manager timing a section and sampling the machine's speed."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.wall = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.probes.append(time.perf_counter() - start)

    def __enter__(self) -> "Pace":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def own(self) -> float:
        """Section time without the probes."""
        return self.wall - sum(self.probes)

    @property
    def corrected(self) -> float:
        return self.own * speed(self.probes)


def speed(probes: list[float]) -> float:
    """Reference probe time over mean measured probe time; 1.0 without samples."""
    return REFERENCE_PROBE_S / statistics.fmean(probes) if probes else 1.0
