"""A fixed pure-Python reference task that measures how fast the host runs now.

A shared host can run the same code 1.3-1.9 times slower for minutes at a
time, longer than one benchmark run, and no statistic over the run's own
job times removes that.  So the runner times this task next to every job,
and reports job times scaled to the speed at which the task takes
``REFERENCE_S``: a job's time is multiplied by ``REFERENCE_S`` over the
local median of the task's time.  The task does the kinds of work orbitkit
spends its time on (exact fractions, small objects with arithmetic
methods, integer tuples as dictionary keys, list-of-list matrices), and it
never imports orbitkit, so a change to the program cannot change it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.001   # about the task's time on a quiet two-core x86_64 host, Python 3.11


class _Mod:
    """A residue mod 7 with operator methods, as ring elements are."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 7

    def __add__(self, other):
        return _Mod(self.v + other.v)

    def __mul__(self, other):
        return _Mod(self.v * other.v)


_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(6)]
           for i in range(6)]
_PERMS = [tuple((i * k + 1) % 7 for i in range(7)) for k in range(1, 7)]


def _task() -> int:
    # Gaussian elimination over Q
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(6):
        p = next((i for i in range(r, 6) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(6):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    # dot products of small ring elements
    xs = [_Mod(i) for i in range(40)]
    acc = _Mod(0)
    for _ in range(3):
        for a, b in zip(xs, reversed(xs)):
            acc = acc + a * b
    # composition table of permutations, keyed by tuples
    table = {}
    for p in _PERMS:
        for q in _PERMS:
            table[(p, q)] = tuple(p[q[i]] for i in range(7))
    return r + acc.v + len(set(table.values()))


def sample() -> float:
    """Seconds the reference task takes once, now."""
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0


class Probe:
    """Samples the reference task every INTERVAL_S of CPU time while entered.

    A speed estimate taken only between jobs misses changes during a long
    job, so the task also runs from a SIGPROF handler inside the job.
    ``spent`` is the time the handler took, for the caller to subtract.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _task()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)


def factor(samples: list) -> float:
    """The scale from this host's current speed to the reference speed."""
    ordered = sorted(samples)
    return REFERENCE_S / ordered[len(ordered) // 2]
