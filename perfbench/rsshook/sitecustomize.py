"""Peak-RSS report for the benchmark's child interpreters.

Children of the benchmark run with this directory on PYTHONPATH, so the
interpreter imports this module at start-up.  When PERFBENCH_RSS_OUT
names a file, the interpreter writes its own peak RSS (VmHWM, kB) there
at exit.  The parent cannot get this figure from its reaped children's
``ru_maxrss``: exec adds the high-water RSS of the image it replaces, and
a child spawned by ``subprocess`` replaces an image that shares the
parent's memory, so that figure is never below the parent's own peak.
"""

import atexit
import os


def _write_peak(path):
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        with open(path, "w", encoding="ascii") as out:
            out.write(peak)
    except (OSError, StopIteration):
        pass  # no report: the parent counts the child's peak as unknown


_out = os.environ.pop("PERFBENCH_RSS_OUT", None)
if _out:
    atexit.register(_write_peak, _out)
