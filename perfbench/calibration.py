"""Machine-speed calibration, so timings from a shared machine stay comparable.

A small shared machine can run the same code 1.5-1.8 times slower for tens
of seconds at a time, for reasons outside the process. A fixed kernel is
timed before and after every timed unit of work; the unit's *slowness* is
the mean of those two kernel times over the reference time. A wall time
divided by its slowness is the time the unit would take at the reference
speed. Both the raw and the rescaled times are reported.

The kernel mixes what edgeplace's hot paths do: a Python loop over small
numpy operations, and small LPs solved through scipy's HiGHS interface.
Timed next to agent decisions, training and joint-milp solves on a 2-core
VM, this mix followed their slowdowns more closely (log-log slope about
0.9 for agent decisions) than the numpy loop alone (about 0.7).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

REFERENCE_KERNEL_S = 0.0105  # kernel time at the reference speed, about a 2-core Xeon VM's
_A = np.arange(25.0).reshape(5, 5) / 25.0
_LP = np.random.default_rng(0)
_LP_COST = _LP.random(30)
_LP_A_UB = -_LP.random((20, 30))  # covering constraints A x >= b, written as -A x <= -b
_LP_B_UB = 0.5 * _LP_A_UB.sum(axis=1)


def kernel() -> float:
    acc = 0.0
    v = np.ones(5)
    seen: dict[int, float] = {}
    for i in range(600):
        v = np.tanh(_A @ v + 1.0 / (1.0 + i))
        seen[i % 7] = float(v.sum())
        acc += seen[i % 7] + min(v)
    for _ in range(2):
        acc += linprog(_LP_COST, A_ub=_LP_A_UB, b_ub=_LP_B_UB, bounds=(0, 1), method="highs").fun
    return acc


class Calibrator:
    def __init__(self) -> None:
        self.last: float | None = None
        self.samples: list[float] = []

    def sample(self) -> float:
        """Current slowness: median of three kernel runs over the reference time."""
        times = []
        for _ in range(3):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
        self.last = statistics.median(times) / REFERENCE_KERNEL_S
        self.samples.append(self.last)
        return self.last

    def close(self) -> float:
        """Slowness of the work done since the previous sample."""
        before = self.last if self.last is not None else self.sample()
        return (before + self.sample()) / 2.0
