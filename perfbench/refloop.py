"""A fixed unit of interpreter work, timed beside every op of a run.

A shared host's speed drifts by tens of percent within a minute, for the
op and for everything else in the process alike.  An op's time divided
by the time of this loop, taken just before and just after the op, is
its cost in reference milliseconds (``ref_ms``): it stays put while the
host slows down and speeds up.  The loop uses nothing from quadpencil,
so a change to the program moves ``ref_ms`` as it moves wall time.
Set-up time is scaled the same way: ``setup_s`` is the set-up's wall
time over the loop's time at its start and end, times NOMINAL_S.

The loop (row reduction of a fixed 14 x 14 matrix mod 101, three times,
with a dict tally of the rows) takes about 1 ms (NOMINAL_S) on an idle
2-core Xeon VM, so one ``ref_ms`` is close to one millisecond there and
``setup_s`` close to seconds.
"""

from __future__ import annotations

import random
import statistics
import time

NOMINAL_S = 0.001
_P = 101
_N = 14
_rng = random.Random(0)
_MATRIX = tuple(tuple(_rng.randrange(_P) for _ in range(_N))
                for _ in range(_N))


def _rref(rows):
    m = [list(r) for r in rows]
    r = 0
    for c in range(_N):
        piv = next((i for i in range(r, _N) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], _P - 2, _P)
        m[r] = [x * inv % _P for x in m[r]]
        for i in range(_N):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % _P for a, b in zip(m[i], m[r])]
        r += 1
    return m


def _work():
    tally = {}
    for _ in range(3):
        for row in _rref(_MATRIX):
            key = tuple(row)
            tally[key] = tally.get(key, 0) + 1
    return tally


def reference_seconds():
    """Seconds one pass of the reference loop takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def reference_median(samples=9):
    """Median of ``samples`` timings of the reference loop."""
    return statistics.median(reference_seconds() for _ in range(samples))
