"""A speed-normalised host clock.

The box this runs on is a shared VM: for minutes at a time a neighbour makes
the same code run 1.2-2x slower (CPU time moves with wall time and steal
time stays under 1 %, so it is slow execution, not descheduling; pinning to
a core changes nothing).  On ``time.perf_counter`` alone, two back-to-back
sets of runs of one seed and one commit were 15-80 % apart, and the best of
six rounds is as slow as the rest when the slow spell outlasts the run
(``baseline/spread-*.json`` hold the runs on both clocks; README, "The
schedule is fixed; the host clock is speed-normalised").

So a host-clock sample is bracketed by a fixed calibration kernel and scaled
by how fast the machine ran the kernel just then::

    reported = measured / slowdown,  slowdown = kernel time / REFERENCE_S

The kernel is a level-synchronous BFS over a fixed random graph in plain
numpy: many small array calls, the instruction mix of the program under
test, but no line of it, so a change to the program cannot move the ruler.
It runs at the boundaries of a pass, a replay segment, a set-up or a probe
call, never inside one.  The raw value of every gated metric is printed
beside the normalised one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's time on this box when nothing else runs: at that speed a
#: normalised value equals the raw one.  Only a scale.
REFERENCE_S = 1.0e-3
KERNEL_RUNS = 5

#: every slowdown this process measured: a run prints their median, which
#: says how contended the box was while it ran
OBSERVED = []

_N, _DEGREE = 4000, 8
_NEIGHBOURS = np.random.default_rng(0).integers(0, _N, size=(_N, _DEGREE))


def kernel_s() -> float:
    """Seconds the fixed kernel takes right now (about a millisecond)."""
    t0 = time.perf_counter()
    depth = np.full(_N, -1)
    depth[0] = 0
    frontier, level = np.array([0]), 0
    while len(frontier):
        level += 1
        reached = _NEIGHBOURS[frontier].ravel()
        reached = np.unique(reached[depth[reached] < 0])
        depth[reached] = level
        frontier = reached
    return time.perf_counter() - t0


def slowdown() -> float:
    """How many times slower than ``REFERENCE_S`` the kernel runs right
    now: the median of ``KERNEL_RUNS`` runs, so one preempted run does not
    set it."""
    OBSERVED.append(statistics.median(kernel_s() for _ in range(KERNEL_RUNS))
                    / REFERENCE_S)
    return OBSERVED[-1]


def normalised(raw_s: float, before: float, after: float) -> float:
    """``raw_s`` at reference speed, given the slowdown at both its ends."""
    return raw_s / ((before + after) / 2.0)


def timed(fn):
    """``(normalised seconds, raw seconds, result)`` of one call."""
    before = slowdown()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return normalised(raw, before, slowdown()), raw, result
