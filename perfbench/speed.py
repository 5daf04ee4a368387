"""The host's speed while a case runs, read from a fixed pure-Python computation.

The benchmark runs on a few cores of a shared host whose other tenants slow
every process on it, by up to twice, in spells of seconds to minutes. So each
case's child process times ``reference_work`` a few times just before it
enters the CLI, every INTERVAL_S while the CLI runs (from a SIGALRM handler,
whose time is taken out of the case's time) and a few times after. The
benchmark then scales the case's times to the host speed at which one
``reference_work`` takes REFERENCE_S seconds. A change to mvlab moves the
scaled times as much as the measured ones; a busy host moves them far less.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 0.0015  # one reference_work on an idle core of the host
INTERVAL_S = 0.1      # between samples while the case runs
EDGE_SAMPLES = 5      # samples just before and just after the case


def reference_work() -> int:
    """Integer and bit arithmetic, a dict and a set: the kind of interpreter
    work mvlab's searches do, fixed so that it never changes."""
    counts: dict[int, int] = {}
    seen: set[int] = set()
    x = 1
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0xFFFFF
        key = (x >> 3).bit_count()
        counts[key] = counts.get(key, 0) + 1
        if x & 0xFF00 not in seen:
            seen.add(x & 0xFF00)
    return len(seen) + max(counts.values())


class Sampler:
    """Times reference_work around and during a block of code.

    ``samples`` holds every timing; ``inside_s`` is the time the samples
    taken during the block cost it, to be subtracted from the block's time.
    With ``during=False`` only the edges are sampled.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.samples: list[float] = []
        self.inside_s = 0.0

    def _sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.inside_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        for _ in range(EDGE_SAMPLES):
            self._sample()
        if self.during:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    def before_s(self) -> float:
        return statistics.fmean(self.samples[:EDGE_SAMPLES])
