"""Host-speed probe: a fixed piece of work, timed every 50 ms.

On a shared host the other tenants slow this process down by a third or
more, in bursts lasting from seconds to minutes, and every part of a
workload slows with them: a median over one run cannot average a burst
away when the burst outlasts the run.  While a probe is started, an
interval timer runs it every :data:`INTERVAL_S` seconds of wall time,
between two bytecodes of whatever the workload is doing, and records how
long it took.  The probe's time measures how fast the host runs *at that
moment*, so an iteration's wall time divided by the mean probe time of
the same iteration is a cost in host-independent units; times
:data:`NOMINAL_S` it reads as seconds on a host where the probe takes
exactly that long.

A probe only cancels the slowdowns it feels itself, so each workload
names the probe that is bound by what the workload is bound by:

* ``python``: BFS with dicts and lists over a fixed 1000-node digraph,
  for workloads that spend their time in the interpreter.  Its data
  spills out of L1 like theirs does: on the tuning host it tracked the
  medium workloads better than a BFS over 48 nodes (fits in L1, corrects
  too little) or over 4000 (mostly measures cache refills).
* ``memory``: a random gather from a fixed 16 MB array, for workloads
  that spend their time in numpy kernels over large arrays, which the
  interpreter-bound probe overcorrects by about half.

:func:`clock` is ``time.perf_counter`` minus the time spent probing, so
every duration the workloads measure with it leaves the probes out.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List, Optional

#: Seconds of wall time between two probes.
INTERVAL_S = 0.05
#: About each probe's duration on the 2-core VM the benchmark was tuned
#: on.  A fixed scale only: it turns the host-independent cost into
#: seconds and does not change how two runs compare.
NOMINAL_S = 1.0e-3

_NODES = 1000
#: A fixed out-degree-4 digraph for the ``python`` probe.
_ADJ = [[(u * 7 + k * 13 + 1) % _NODES for k in range(4)] for u in range(_NODES)]
#: The ``memory`` probe's table and gather indices, made by :func:`start`.
_TABLE = None
_INDEX = None

#: Duration of every probe since the last :func:`start`, in seconds.
durations: List[float] = []
_probe: Optional[Callable[[], int]] = None
_probed_s = 0.0
_busy = False
_previous = None


def python_probe() -> int:
    """About a millisecond of dict/list work, always the same."""
    total = 0
    for source in (0, _NODES // 2):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                du = dist[u] + 1
                for v in _ADJ[u]:
                    if v not in dist:
                        dist[v] = du
                        nxt.append(v)
            frontier = nxt
        total += sum(dist.values())
    return total


def memory_probe() -> int:
    """About a millisecond gathering 100k random entries of a 16 MB table."""
    return int(_TABLE[_INDEX].sum())


PROBES = {"python": python_probe, "memory": memory_probe}


def clock() -> float:
    """``time.perf_counter()`` with the time spent in probes taken out."""
    return time.perf_counter() - _probed_s


def _on_alarm(signum, frame) -> None:
    global _probed_s, _busy
    if _busy:
        return
    _busy = True
    start = time.perf_counter()
    _probe()
    spent = time.perf_counter() - start
    durations.append(spent)
    _probed_s += spent
    _busy = False


def start(kind: str) -> None:
    """Clear :data:`durations` and run probe ``kind`` every :data:`INTERVAL_S` seconds."""
    global _previous, _probe, _TABLE, _INDEX
    if kind == "memory" and _TABLE is None:
        import numpy as np

        rng = np.random.default_rng(0)
        _TABLE = rng.integers(0, 1 << 20, size=1 << 22, dtype=np.int32)
        _INDEX = rng.integers(0, 1 << 22, size=100_000)
    _probe = PROBES[kind]
    durations.clear()
    _on_alarm(signal.SIGALRM, None)  # so :func:`level_since` always has one
    _previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    """Stop the timer and restore the previous SIGALRM handler."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    if _previous is not None:
        signal.signal(signal.SIGALRM, _previous)


def level_since(mark: int) -> float:
    """Host level from ``durations[mark]`` on (from all of them if none since).

    The mean probe duration, the fastest and slowest tenth left out: a
    mean because a workload's time sums its slow and fast moments alike,
    trimmed because a probe that the interpreter's garbage collector
    happens to interrupt says nothing about the host.
    """
    recent = sorted(durations[mark:] or durations)
    cut = len(recent) // 10
    return statistics.fmean(recent[cut : len(recent) - cut])
