"""Arithmetic that turns raw timings into the benchmark's reported values.

The host this benchmark was built on switches between two speeds, for
stretches of a second to a minute, for reasons outside the process (see
README, Reference seconds).  `HostClock` measures that speed beside the
program: twenty times a second, from a timer signal, it takes a speed
sample, timing three fixed slices of work that share no code with gaze6d.
A timed call is divided by the median slowness of the samples taken while
it ran or within one sampling period of it, and the samples' own time is
left out of it.  Times are so reported in reference seconds: what the call
takes on the host when the slices take their nominal times.
"""

from __future__ import annotations

import math
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# a tail percentile needs at least this many samples ranked above it
TAIL_MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile of the samples.

    A tail percentile is refused unless at least TAIL_MIN_BEYOND samples
    lie beyond it, away from the median: p99 needs 1000 samples, p10 110.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank if q > 50 else rank - 1 if q < 50 else TAIL_MIN_BEYOND
    if beyond < TAIL_MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has only {beyond} samples beyond it; "
                         f"need {TAIL_MIN_BEYOND}")
    return xs[rank - 1]


def rate(count: float, seconds: float) -> float:
    """Work per second over a measured duration."""
    if seconds <= 0:
        raise ValueError(f"rate over a non-positive duration {seconds}")
    return count / seconds



# The slices of a speed sample, each timed SLICE_REPEATS times, median
# kept, so that one preempted timing does not read as a slow host: Python
# calls and small containers, small-array numpy as in per-row geometry, and
# one pass over a 2 MiB array, which feels caches shared with other guests.
PY_SLICE_ITERS = 300
NP_SLICE_ITERS = 6
SLICE_REPEATS = 3
_SLICE_RNG = np.random.default_rng(0)
_A = _SLICE_RNG.normal(size=(8, 16))
_W = _SLICE_RNG.normal(size=(16, 16)) * 0.25
_V = _SLICE_RNG.normal(size=3)
_BIG = _SLICE_RNG.normal(size=1 << 18)
_BIG_OUT = np.empty_like(_BIG)

SAMPLE_INTERVAL_S = 0.05


def _add(a, b):
    return a + b


def _py_slice() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(PY_SLICE_ITERS):
        d = {"i": i, "v": [i, i + 1.0]}
        acc += _add(d["i"], len(d["v"]))
    return perf_counter() - t0


def _np_slice() -> float:
    t0 = perf_counter()
    for _ in range(NP_SLICE_ITERS):
        x = np.tanh(_A @ _W)
        n = _V / np.linalg.norm(_V)
        np.cross(n, x[0, :3])
    return perf_counter() - t0


def _mem_slice() -> float:
    t0 = perf_counter()
    np.multiply(_BIG, 1.0001, out=_BIG_OUT)
    return perf_counter() - t0


# each slice with its time on the reference host at its fastest (the 2nd
# percentile of 1500 samples)
SLICES = ((_py_slice, 0.085e-3),
          (_np_slice, 0.162e-3),
          (_mem_slice, 0.177e-3))


def slowness(times) -> float:
    """Host slowness from one sample's slice times: 1.0 at the nominal times."""
    return math.fsum(t / nominal for t, (_, nominal) in zip(times, SLICES)) / len(SLICES)


class HostClock:
    """Samples the host's speed while the workload runs.

    `mark()` starts an interval and `interval(mark)` ends it, giving
    (start, end, seconds without sampling time); `reference_s` turns that
    into reference seconds once the samples after it have been taken.
    """

    def __init__(self, period_s: float = SAMPLE_INTERVAL_S):
        self.period_s = period_s
        self.times: list[float] = []      # mid-time of each sample
        self.slowness: list[float] = []
        self.sampling_s = 0.0             # total time spent sampling
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        times = [statistics.median(f() for _ in range(SLICE_REPEATS)) for f, _ in SLICES]
        t1 = perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.slowness.append(slowness(times))
        self.sampling_s += t1 - t0
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        """Stop sampling, with one last sample; does nothing when stopped."""
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self.sample()

    def mark(self) -> tuple[float, float]:
        while True:  # a sample between the two reads would be misplaced
            spent = self.sampling_s
            now = perf_counter()
            if spent == self.sampling_s:
                return now, spent

    def interval(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        now, spent = self.mark()
        return mark[0], now, (now - mark[0]) - (spent - mark[1])

    def reference_s(self, interval) -> float:
        """An interval's seconds over the median slowness of the samples
        taken during it or within one sampling period of it."""
        start, end, seconds = interval
        lo = bisect_left(self.times, start - self.period_s)
        hi = bisect_right(self.times, end + self.period_s)
        if lo == hi:
            raise ValueError(f"no speed sample near the interval [{start}, {end}]")
        return seconds / statistics.median(self.slowness[lo:hi])
