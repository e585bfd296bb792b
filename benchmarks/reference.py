"""A fixed reference computation that measures how fast the machine runs right now.

The benchmark was tuned on a 2-vCPU virtual machine on a shared host whose
CPU speed drifts by up to 2x over seconds to minutes, with CPU time equal
to wall time (no steal to subtract).  A 30 s run can fall wholly in a slow
spell, so raw times of runs made minutes apart spread by 20-25% of their
median whatever statistic of the rounds is taken.

The worker therefore times this computation every `SAMPLE_EVERY_S` while
a round runs: a SIGALRM timer interrupts the round between two bytecodes,
`SpeedProbe` times the reference there and keeps that time off the
round's clock.  The code of the reference lives here, not in vandinv, so a
change to vandinv cannot change it.  It mixes what the workloads do: Python
bytecode, small numpy arrays, small LAPACK solves and float formatting;
over four minutes of 0.2 s closed-form inverses at N = 37 alternating with
it, log inverse time against log reference time had correlation 0.90 and
slope 0.98.  `run.py` divides each stretch of a round between two samples
by the mean of their reference times, multiplies by `REFERENCE_S`, the
reference's median time on that machine, and sums the stretches:
``wall_s`` is seconds at a fixed machine speed.  A change to vandinv moves
it as it moves the raw time, and the raw round times are recorded beside
it.  Over two sets of ten 30 s runs per workload (seeds 200-209 and
300-309), the quartile spread of ``wall_s`` was 2.2% / 2.1% of its median
on sweep37, 4.5% / 3.1% on interp-roots and 6.0% / 2.9% on interp-io; that
of the raw median round was 12%, 8% and 13% in the first set.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

# About the median time of `reference_work` on the 2-vCPU Intel Xeon the
# benchmark was tuned on (0.043 s over 1104 samples; Python 3.11.7,
# numpy 2.4.6, OpenBLAS pinned to one thread).
REFERENCE_S = 0.04
REPEATS = 400
# 40 ms of reference per half second of round.
SAMPLE_EVERY_S = 0.5


def reference_work() -> int:
    """Fixed work, independent of vandinv and of the seed."""
    rng = np.random.default_rng(0)
    total = 0
    for _ in range(REPEATS):
        values = rng.standard_normal(32)
        matrix = np.eye(8) + 0.1 * rng.standard_normal((8, 8))
        solution = np.linalg.solve(matrix, values[:8])
        total += len(",".join(repr(float(v)) for v in values)) + int(solution[0] > 0)
        acc = 0
        for i in range(400):
            acc += i * i
        total += acc & 1
    return total


def reference_time() -> float:
    """Wall time of one `reference_work` call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class SpeedProbe:
    """Reference samples on a clock that leaves out the time spent taking them."""

    def __init__(self):
        self.paused = 0.0
        self.samples = []  # (clock at the sample, reference time)

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self) -> float:
        start = time.perf_counter()
        ref = reference_time()
        self.samples.append((start - self.paused, ref))
        self.paused += time.perf_counter() - start
        return ref

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def every(self, seconds: float = SAMPLE_EVERY_S):
        """Take a sample every `seconds` of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
