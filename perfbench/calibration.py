"""Machine-speed calibration of the benchmark's timings.

On a shared host the same code runs up to 1.5-2x slower for stretches of
seconds to minutes, in CPU time as well as wall time.  Fixed numpy kernels,
which do not touch the package, are timed right before and right after
every timed call.  Each kernel's time over its reference time is the host's
slowdown as that kernel sees it; the call's wall time is divided by the
mean slowdown of the two probes, which gives what it would read at the
reference speed.  A change to the program moves the rescaled times as it
moves the wall times; a slow stretch of the host slows the kernels with
them and cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from time import perf_counter
from typing import Callable, TypeVar

import numpy as np

#: each kernel time in a probe is the median of this many runs
PROBE_RUNS = 3

T = TypeVar("T")


@cache
def _small() -> np.ndarray:
    return np.linspace(0.0, 1.0, 400_000) + 0j      # 6.4 MB


@cache
def _large() -> tuple[np.ndarray, np.ndarray]:
    return np.ones(8_000_000), np.empty(8_000_000)  # 64 MB each


def in_cache() -> None:
    """Complex exponentials and a reduction over 6.4 MB, which the caches
    hold, as the engine does on a small grid."""
    a = _small()
    np.abs(np.exp(a * 1j) * a).sum()


def streaming() -> None:
    """One pass over 64 MB, which streams from memory, as the engine's
    terms-by-points arrays do on the 401x201 grid."""
    a, out = _large()
    np.multiply(a, 1.0000001, out=out)


#: probe time of each kernel on a 2-core Xeon virtual machine at 2.0 GHz
#: when no neighbour slowed it (the lowest decile of a few hundred probes)
REFERENCE_S = {in_cache: 0.010, streaming: 0.011}


def _median_time(kernel: Callable[[], None]) -> float:
    times = []
    for _ in range(PROBE_RUNS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[PROBE_RUNS // 2]


@dataclass(frozen=True)
class Probe:
    """The kernels whose mean slowdown rescales a workload's times."""

    kernels: tuple[Callable[[], None], ...]

    def slowdown(self) -> float:
        return sum(_median_time(k) / REFERENCE_S[k]
                   for k in self.kernels) / len(self.kernels)

    def timed(self, call: Callable[[], T]) -> tuple[T, float, float]:
        """Run ``call``; return its result, rescaled time and wall time."""
        before = self.slowdown()
        t0 = perf_counter()
        result = call()
        wall = perf_counter() - t0
        after = self.slowdown()
        return result, wall / ((before + after) / 2), wall
