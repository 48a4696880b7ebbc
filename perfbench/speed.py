"""Machine-speed calibration for the benchmark's timings.

On a shared host the same Python work can take 1.7x longer from one second
to the next (another tenant on the sibling hyperthread of a virtual CPU; the
two virtual CPUs change speed independently).  The benchmark times a fixed
calibration loop next to every timed interval: between in-process rounds,
and every 0.1 s on each CPU in turn while a timed child process runs.  Each
interval is scaled to the speed at which the loop takes REFERENCE_S:

    scaled seconds = measured seconds * mean(REFERENCE_S / loop seconds)

so a metric reads about the same in a slow phase as in a fast one.  The loop
is a frozen copy of the time-ordered thinning scan (buffered scalar draws,
bridge update, Bessel norm, sine field), so that it slows down as much as
the code it calibrates; it is not the library's code, which later changes
may alter.
"""

import math
import os
import time

import numpy as np

STEPS = 3000
# the loop's time in the fast phase of a 2-core x86 KVM guest (Python 3.11)
REFERENCE_S = 0.0040


def _sine_field(y):
    s = 2.0 + math.sin(y)
    return (s * s + math.cos(y)) / 2.0


_GEN = np.random.Generator(np.random.Philox(key=[1705, 6881]))
_NORMALS = _GEN.standard_normal(1024).tolist()
_EXPS = _GEN.standard_exponential(1024).tolist()
_UNIFS = _GEN.random(1024).tolist()


def calibrate(steps=STEPS, clock=time.perf_counter):
    """Seconds taken by the calibration loop, in units of a full STEPS run."""
    normals, exps, unifs = _NORMALS, _EXPS, _UNIFS
    t0 = clock()
    horizon, gap, level, ceiling = 10.0, 2.0, 2.0, 5.0
    k = 0
    while k < steps:
        t_prev = 0.0
        bx = by = bz = 0.0
        t = exps[k % 1024] / ceiling
        while t <= horizon and k < steps:
            g1, g2, g3 = normals[k % 1024], normals[(k + 1) % 1024], normals[(k + 2) % 1024]
            v = unifs[k % 1024]
            a = (horizon - t) / (horizon - t_prev)
            s = math.sqrt((horizon - t) * (t - t_prev) / (horizon - t_prev))
            bx = a * bx + s * g1
            by = a * by + s * g2
            bz = a * bz + s * g3
            rx = t * gap / horizon + bx
            r = math.sqrt(rx * rx + by * by + bz * bz)
            if ceiling * v < _sine_field(level - r) - 10.0:  # never true: fixed work
                break
            t_prev = t
            t += exps[(k + 3) % 1024] / ceiling
            k += 1
    return (clock() - t0) * STEPS / steps


def warm_up():
    """Run the loop untimed: its first several runs in a process are about 1.5x slower."""
    for _ in range(12):
        calibrate()


class Probe:
    """Short calibrations beside a busy child process, pinned to each CPU in turn.

    The loop runs on the thread's CPU clock, which leaves out the waits for a
    CPU the child is using; the benchmark process is unpinned again after.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.calls = 0

    def __call__(self):
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpus[self.calls % len(self.cpus)]})
        self.calls += 1
        try:
            return calibrate(STEPS // 3, time.thread_time)
        finally:
            os.sched_setaffinity(0, allowed)


def scale(loop_seconds):
    """Mean speed relative to the reference over calibration results.

    The tenth slowest and the tenth fastest are left out, and so is a reading
    of zero, which the thread clock of a virtual CPU now and then returns.
    """
    speeds = sorted(REFERENCE_S / c for c in loop_seconds if c > 0.0)
    cut = len(speeds) // 10
    kept = speeds[cut:len(speeds) - cut]
    return sum(kept) / len(kept)
