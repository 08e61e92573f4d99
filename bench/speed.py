"""The machine-speed reference that the benchmark's times are scaled by.

The benchmark runs on shared hosts whose speed moves by up to 1.8x, in
levels that last from seconds to minutes and in bursts of milliseconds, so a
wall-clock time says as much about the host as about ``qciore``.  While
verdicts run, a ``Sampler`` times a fixed reference kernel of about 1 ms
every ``EVERY_S`` of wall time, from a ``SIGALRM`` handler, so that the
samples fall evenly over the verdicts, inside long ones too.  The kernel is
pure-Python work of the kind the engine does (recursive evaluation of tuple
trees through a dict memo, and an integer loop) and never touches
``qciore``.  The sampler's own time is taken out of the verdicts' times, and
the time of a verdict is scaled to reference speed by the samples taken
while it ran and the one just before and just after it:

    scaled = wall * NOMINAL_S / mean(samples)

so a scaled second is a second on a machine where one kernel pass takes
``NOMINAL_S``.  A change to ``qciore`` moves the wall time and not the
samples, so it moves the scaled time by the same share.  The kernel
allocates nothing the garbage collector tracks and runs with the collector
off, so it neither moves the points where the workload's own collections
fall nor pays for the workload's heap; its data fit in a few kilobytes, so
what the interrupted verdict left in the caches costs it little.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

# one kernel pass on the 2-core Intel Xeon host the benchmark was defined on,
# at its usual speed (Python 3.11)
NOMINAL_S = 0.001
# wall time between two samples
EVERY_S = 0.01


def _tree(depth: int, rng: random.Random):
    if depth == 0:
        return ("v", rng.randrange(5))
    return (rng.choice(("and", "or", "imp")), _tree(depth - 1, rng), _tree(depth - 1, rng))


_TREES = [_tree(7, random.Random(i)) for i in range(3)]
_ENV = {i: i % 3 for i in range(5)}
_MEMO: dict = {}


def _eval(t, env: dict, memo: dict) -> int:
    key = id(t)
    if key in memo:
        return memo[key]
    if t[0] == "v":
        v = env[t[1]]
    else:
        a = _eval(t[1], env, memo)
        b = _eval(t[2], env, memo)
        v = min(a, b) if t[0] == "and" else max(a, b) if t[0] == "or" else max(2 - a, b)
    memo[key] = v
    return v


def _kernel() -> int:
    s = 0
    for i in range(6000):
        s += i * 3 % 7
    for t in _TREES:
        _MEMO.clear()
        s += _eval(t, _ENV, _MEMO)
    return s


def sample() -> float:
    """Seconds one pass of the reference kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[float]) -> float:
    """Wall seconds per scaled second while ``samples`` were taken."""
    return statistics.fmean(samples) / NOMINAL_S


class Sampler:
    """Kernel samples every ``EVERY_S`` of wall time while in a ``with`` block,
    and one on entering and one on leaving it.

    ``at`` and ``samples`` hold each sample's start and kernel time;
    ``spent`` is the wall time spent in the handler, to be taken out of
    whatever was timed meanwhile.  Only for the main thread, and only around
    code that starts no processes.
    """

    def __init__(self):
        self.at: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _take(self) -> float:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.at.append(t0)
        return t0

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = self._take()
        self.spent += time.perf_counter() - t0
        self._busy = False

    def factor_between(self, t0: float, t1: float) -> float:
        """``factor`` of the samples taken from ``t0`` to ``t1``, the one just
        before and the one just after."""
        lo = max(0, bisect.bisect_left(self.at, t0) - 1)
        hi = bisect.bisect_right(self.at, t1) + 1
        return factor(self.samples[lo:hi])

    def __enter__(self) -> "Sampler":
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()
