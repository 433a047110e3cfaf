"""Host-speed reference: a fixed pure-Python task timed during a pass.

The speed of a shared host drifts: identical solves can take 80% longer
a few minutes later, and everything running on the host slows together.
The benchmark therefore times this task throughout each pass and divides
each op's time by the pass's mean reference time, so the gated time
metric is in units of this task and the host's speed cancels out.  The
host switches between a fast and a slow speed within seconds, so the
samples must be spread evenly over the pass, also over the inside of a
long op; their mean then follows the share of time spent at each speed,
as the op's own time does.  The task runs no fairflow code, so a change
to the program moves the ratio in full.  It is breadth-first search over
a fixed random graph: dicts, lists and small ints, like the solver's
inner loops, which tracks the solver's slow-downs better than an
arithmetic loop does.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from collections import deque

_NODES, _EDGES, _SOURCES = 400, 2400, 60

_rng = random.Random(20190706)
_ADJACENT: list[list[int]] = [[] for _ in range(_NODES)]
for _ in range(_EDGES):
    _ADJACENT[_rng.randrange(_NODES)].append(_rng.randrange(_NODES))
del _rng


def _search() -> None:
    for source in range(_SOURCES):
        parent = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in _ADJACENT[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)


def sample() -> float:
    """Seconds one run of the reference task takes now.

    The collector is off while it runs, so the heap the program left
    behind does not change the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _search()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# Seconds between two samples taken by a Sampler.
INTERVAL = 0.2


class Sampler:
    """Takes a sample every INTERVAL seconds, also in the middle of an op.

    A SIGALRM handler takes the sample in the main thread, between two
    bytecodes of the op, so the op is paused while it runs.  ``clock``
    is a timer that stops meanwhile: differences of it are the op's own
    time.  Use it only around in-process work; a child process would
    keep running while the sample is taken.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self._spent += time.perf_counter() - start

    def clock(self) -> float:
        while True:
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:  # no sample was taken in between
                return now - spent

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
