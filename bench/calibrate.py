"""A stopwatch that reads *reference seconds*, steady while the host drifts.

The benchmark shares a virtual machine whose speed drifts with the load of
other tenants: the same pass of the program takes 7 s in one minute and
10 s a few minutes later, CPU time and wall time alike.  :class:`HostClock`
measures the host's speed while it times the code inside it.  Every
:data:`INTERVAL_S` of wall time, ``SIGALRM`` interrupts that code and runs
one *slice*: a fixed pure-Python workload (a toy set-associative LRU cache
fed by a linear congruential address stream; none of it code of the
program under test) whose time on a quiet host is
:data:`REFERENCE_SECONDS`.  The program's own time — the clock's wall
time minus the slices — divided by the host's slowness over the interval
is the time the code would take on a host running at the reference speed.

A pass of the program is pure-Python interpreter work too (method calls,
attribute and dict lookups, list edits), so it slows with the host by about
the slices' factor.  The slowness is the *harmonic* mean of the slices
over their reference time: slices are spread evenly over wall time, and
the program makes progress at the reciprocal of the slowness, so this is
the mean that recovers the reference time of the whole interval.

A change to the program moves reference seconds exactly as it moves wall
seconds; a change of the host's speed cancels.  The clock is for the main
thread of a process that uses neither ``SIGALRM`` nor an interval timer.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Dict, List, Optional

#: Wall seconds between two slices: one slice costs about 4% of the time.
INTERVAL_S = 0.25
#: Seconds of one slice on the reference host, a quiet 2-vCPU virtual
#: machine.  A constant: it only sets the scale of reference seconds so
#: that they read close to wall seconds on that host.
REFERENCE_SECONDS = 0.010
#: A clock shorter than this many intervals takes extra slices after it
#: stops, so that every reading rests on at least this many slices.
MIN_SLICES = 8
_ACCESSES = 20_000
_SETS = 64
_WAYS = 8


class _Cache:
    """Set-associative LRU cache: per-set lists, most recent first."""

    __slots__ = ("sets", "hits")

    def __init__(self) -> None:
        self.sets: Dict[int, List[int]] = {}
        self.hits = 0

    def access(self, address: int) -> bool:
        line = address >> 6
        ways = self.sets.get(line % _SETS)
        if ways is None:
            ways = self.sets[line % _SETS] = []
        if line in ways:
            ways.remove(line)
            ways.insert(0, line)
            self.hits += 1
            return True
        ways.insert(0, line)
        if len(ways) > _WAYS:
            ways.pop()
        return False


def _workload() -> int:
    cache = _Cache()
    state = 12345
    for _ in range(_ACCESSES):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        cache.access((state >> 8) & 0xFFFF)
    return cache.hits


def _slice() -> float:
    start = time.perf_counter()
    _workload()
    return time.perf_counter() - start


class HostClock:
    """Times the code in a ``with`` block in wall and reference seconds.

    ``started`` (a :func:`time.perf_counter` reading) backdates the start,
    for an interval that began before the clock could be imported.
    """

    def __init__(self, started: Optional[float] = None) -> None:
        self._started = started
        self._previous: Any = None
        #: Seconds of every slice, in the interval and topped up after it.
        self.slices: List[float] = []
        #: Seconds the slices took inside the interval.
        self.busy_s = 0.0
        #: Wall seconds of the interval, slices included.
        self.wall_s = 0.0

    def _tick(self, _signum: int, _frame: Any) -> None:
        seconds = _slice()
        self.slices.append(seconds)
        self.busy_s += seconds

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        if self._started is None:
            self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        assert self._started is not None
        self.wall_s = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.slices) < MIN_SLICES:
            self.slices.append(_slice())

    @property
    def slowness(self) -> float:
        """The host's time for a slice over the reference host's."""
        return statistics.harmonic_mean(self.slices) / REFERENCE_SECONDS

    @property
    def seconds(self) -> float:
        """Reference seconds of the interval: its code's time on a host at
        the reference speed, without the slices."""
        return (self.wall_s - self.busy_s) / self.slowness
