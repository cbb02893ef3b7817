"""Calibration loops that put every run's times on one machine speed.

On a shared machine whole runs go faster or slower together by 20-100%,
because other work contends for the cores for minutes at a time.  The
worker runs fixed loops between rounds, in a child process of their own:
the loops that do the kind of work the workload's calls spend their time
on (each workload names them in CALIBRATION).  `dict`, `small_arrays` and
`alloc` do what the program's interpreted inner loops do: dict updates on
tuple keys, numpy calls on short vectors, allocating small objects.
`grid` steps a 420 x 420 array recurrence, as the tree-product chain
does.  run.py takes each loop's median time in the run, and scales the
run's call times, medians as well, by the sum of the loops' REFERENCE
times over the sum of their medians (`scale`).  The loops do not call the
program, so a change to the program moves the scaled times as it moves
the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# each loop's median time on the 2-core reference machine of README.md
# when it is lightly loaded: the scale is about 1 there
REFERENCE = {"dict": 0.033, "small_arrays": 0.014, "alloc": 0.045,
             "grid": 0.068}

_SMALL = np.arange(40.0)
_GRID = np.zeros((420, 420))
_GRID[0, 0] = 1.0


def _dict():
    d = {}
    for i in range(150_000):
        k = (i % 997, i % 13)
        d[k] = d.get(k, 0.0) + 0.5
    return len(d)


def _small_arrays():
    v = _SMALL.copy()
    tot = np.zeros(40)
    for _ in range(4000):
        nv = np.zeros(40)
        nv[1:] += 0.5 * v[:-1]
        nv[:-1] += 0.5 * v[1:]
        v = nv
        tot += v
    return float(tot[0])


def _alloc():
    out = []
    for i in range(60_000):
        out.append((i, (i % 7, i % 11), [i]))
    return len(out)


def _grid():
    v = _GRID.copy()
    acc = np.zeros_like(v)
    for _ in range(40):
        nv = np.zeros_like(v)
        nv[1:, :] += 0.25 * v[:-1, :]
        nv[:-1, :] += 0.25 * v[1:, :]
        nv[:, 1:] += 0.25 * v[:, :-1]
        nv[:, :-1] += 0.25 * v[:, 1:]
        v = nv
        acc += v
    return float(acc[0, 0])


LOOPS = {"dict": _dict, "small_arrays": _small_arrays, "alloc": _alloc,
         "grid": _grid}


def sample(passes, names):
    """{loop name: [seconds of each pass]}, over `passes` passes."""
    times = {name: [] for name in names}
    for _ in range(passes):
        for name in names:
            t0 = time.perf_counter()
            LOOPS[name]()
            times[name].append(time.perf_counter() - t0)
    return times


def measured(samples):
    """Sum over the loops of each loop's median time."""
    return sum(statistics.median(times) for times in samples.values())


def scale(samples):
    """Factor that puts times measured alongside `samples` on the
    reference machine's speed."""
    return sum(REFERENCE[name] for name in samples) / measured(samples)
