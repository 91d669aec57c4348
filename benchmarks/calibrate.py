"""Machine-speed calibration.

On a shared machine the speed of the CPU a process runs on can drift:
on a 2-core virtual machine the same pure-Python loop took from 47 to
88 ms over six minutes, with CPU time tracking wall time, and a whole
benchmark run can fall in a slow or a fast phase.  The benchmark runs a
fixed loop before and after every command, for about a twentieth of the
command's duration each time, and scales the run's wall times by the
loop's reference time over the median of all its passes in the run: a
run made in a slow phase and one made in a fast phase then report close
figures for the same program.  One factor per run, from many passes,
keeps a burst that hits a single calibration from skewing a run.

Kinds of work slow down by different amounts in a slow phase, so each
workload has a loop shaped like its own hot loop: gathers from an offset
table and an n x n product, as one trace-cumulant evaluation does (n=64
for detection at p=8, n=400 for ranking at p=20), or shifted differences
and prefix sums over a 256x256 image, as patch-distance maps do.  The
loops use no redlab code, so a change to the program cannot move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SHARE = 0.05  # calibration time on each side of a command, over its duration

_rng = np.random.default_rng(0)


class _Cumulant:
    """Offset-table gathers and an n x n product for an n-pixel patch on
    a torus of ``cells`` pixels."""

    def __init__(self, side: int, cells: int, reps: int):
        n, diffs = side * side, (2 * side - 1) ** 2
        self.table = _rng.standard_normal(cells)
        self.pick = _rng.integers(0, cells, diffs)
        self.square = _rng.integers(0, diffs, (n, n))
        self.reps = reps

    def __call__(self) -> None:
        t, k = self.table, self.pick
        for _ in range(self.reps):
            vals = 2.0 * t[k] - t[(k + 7) % t.size] - t[(k - 7) % t.size]
            c = vals[self.square]
            float(np.sum(c * (c @ c)))


class _PatchDistances:
    """Shifted squared differences and 2-D prefix sums over an image."""

    def __init__(self, size: int, reps: int):
        self.image = _rng.standard_normal((size, size))
        self.reps = reps

    def __call__(self) -> None:
        u = self.image
        for i in range(self.reps):
            s = 1 + i % 9
            d = u[s:, s:] - u[:-s, :-s]
            c = np.cumsum(np.cumsum(d * d, axis=0), axis=1)
            float((c[8:, 8:] - c[:-8, 8:] - c[8:, :-8] + c[:-8, :-8]).sum())


# loop, and its median pass time over ten benchmark runs on a 2-core Intel
# Xeon virtual machine (OpenBLAS on one thread); scaled times read as
# seconds on that machine at its median speed
LOOPS = {
    "detect-many-offsets": (_Cumulant(8, 128 * 128, 1600), 0.071),
    "rank-paper": (_Cumulant(20, 48 * 48, 21), 0.073),
    "denoise-large": (_PatchDistances(256, 80), 0.076),
}


def passes_for(workload: str, command_s: float) -> int:
    """Calibration passes that take about ``SHARE`` of a command."""
    return max(1, round(SHARE * command_s / LOOPS[workload][1]))


def run_passes(workload: str, passes: int) -> list[float]:
    """Seconds of each of ``passes`` passes of the workload's loop, run now."""
    loop = LOOPS[workload][0]
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return times


def speed_factor(workload: str, pass_times: list[float]) -> float:
    """Factor from wall time to reference-speed time: the loop's reference
    time over its median pass."""
    return LOOPS[workload][1] / statistics.median(pass_times)
