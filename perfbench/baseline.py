"""Stage times of ROADMAP aim 1's baseline, from the committed benchmark.

    python3 perfbench/baseline.py

Run from a checkout root.  Times ``kernel_basis`` and ``recover_parameters``
at the numeric point (2, 3) (median of NUMERIC_REPEATS runs), and
``kernel_basis``, ``recover_parameters`` and ``matrix_suite`` at the
generic point (a, b) (median of SYMBOLIC_REPEATS runs).  Prints each
stage's wall time and its CPU time scaled to the nominal machine speed
(calib.py), next to two earlier wall-time measurements of the same code
on a 2-CPU machine with Python 3.11.7: the ROADMAP's baseline and a later
scratch-copy run.
"""

import os
import statistics
import sys
import time

import calib
import procs

NUMERIC_REPEATS = 9
SYMBOLIC_REPEATS = 3

# stage -> (ROADMAP baseline, later scratch-copy run), seconds
REFERENCE = {
    "numeric kernel_basis": (0.065, 0.080),
    "numeric recover_parameters": (0.051, 0.057),
    "symbolic kernel_basis": (1.5, 1.9),
    "symbolic recover_parameters": (1.7, 1.8),
    "symbolic matrix_suite": (0.38, 0.45),
}


def timed_stage(fn, *args):
    """(wall s, CPU s scaled to the nominal speed, result) of one stage."""
    ref_before = calib.reference_cpu()
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return wall, cpu * calib.speed_factor([ref_before, calib.reference_cpu()]), result


def stage_times(a, b, repeats, lib, with_suite):
    """Stage -> (median wall s, median scaled CPU s)."""
    samples = {}
    for _ in range(repeats):
        *t, K = timed_stage(lib.kernel_basis, a, b)
        samples.setdefault("kernel_basis", []).append(t)
        *t, got = timed_stage(lib.recover_parameters, K)
        samples.setdefault("recover_parameters", []).append(t)
        if got != (a, b):
            raise SystemExit(f"baseline: recovery failed at {(a, b)}")
        if with_suite:
            *t, _ = timed_stage(lib.matrix_suite, a, b)
            samples.setdefault("matrix_suite", []).append(t)
    return {k: tuple(statistics.median(x) for x in zip(*v)) for k, v in samples.items()}


def main():
    src, _ = procs.checkout_paths(os.getcwd())
    sys.path.insert(0, src)
    from fractions import Fraction as Q

    import gsp4hodge.kernel as lib
    from gsp4hodge.scalars import RatFunc

    got = {}
    for k, v in stage_times(Q(2), Q(3), NUMERIC_REPEATS, lib, False).items():
        got[f"numeric {k}"] = v
    sym = (RatFunc.var("a"), RatFunc.var("b"))
    for k, v in stage_times(*sym, SYMBOLIC_REPEATS, lib, True).items():
        got[f"symbolic {k}"] = v
    print(f"{'stage':30s} {'wall':>10s} {'scaled CPU':>10s} {'ROADMAP':>10s} {'scratch':>10s}")
    for stage, (roadmap, scratch) in REFERENCE.items():
        wall, cpu = got[stage]
        print(f"{stage:30s} {wall:9.3f}s {cpu:9.3f}s {roadmap:9.3f}s {scratch:9.3f}s")


if __name__ == "__main__":
    main()
