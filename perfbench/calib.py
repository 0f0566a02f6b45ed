"""Machine-speed reference for the benchmark's times.

The benchmark runs on shared virtual machines whose CPU speed changes by
a quarter within a minute, and by as much within a second.  A fixed
pure-Python reference workload changes with it.  Measured over 150 s of
one repeated 90-ms op: medians of 15-s chunks of raw op CPU time spread
24 % (IQR over median), while the op's time over the mean of the
reference times just before and just after it spread 1.9 %.  So the
benchmark times the reference around every op and every set-up and
reports each time multiplied by `speed_factor` of those two reference
times.  A reported time reads as the time at the speed where the
reference takes REFERENCE_S, about the usual speed of the 2-CPU machine
in README.md.  The reference imports nothing from the program, so a
change to the program cannot move it.
"""

import gc
import random
import statistics
import time
from fractions import Fraction as Q

import oracle

#: CPU seconds of one reference run at the nominal speed.
REFERENCE_S = 0.010

_rng = random.Random(20260817)
_MATRIX = [[Q(_rng.randint(-50, 50), _rng.randint(1, 30)) for _ in range(14)] for _ in range(14)]


def reference_cpu() -> float:
    """Median CPU seconds of three runs of the reference workload
    (elimination on a fixed 14 x 14 rational matrix), with the garbage
    collector off so that its pauses do not add jitter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(3):
            t0 = time.process_time()
            oracle.rational_rank(_MATRIX)
            samples.append(time.process_time() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def speed_factor(refs) -> float:
    """Factor that rescales CPU times measured among the reference times
    `refs` to the nominal speed."""
    return REFERENCE_S / statistics.median(refs)
