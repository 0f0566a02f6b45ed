"""Paths of a checkout and one-at-a-time child processes of the program."""

import os
import resource
import subprocess
import sys
import time
from typing import NamedTuple, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 120
#: Holds the sitecustomize.py that makes each child report its peak RSS.
RSS_HOOK_DIR = os.path.join(BENCH_DIR, "rsshook")


class Child(NamedTuple):
    code: int
    out: bytes
    err: bytes
    wall: float  # seconds from spawn to reaped
    cpu: float  # CPU seconds of the child
    peak_kb: Optional[int]  # the child's own peak RSS, None if it did not report


def checkout_paths(root: str):
    """(src, work) for the checkout at `root`.  Raises SystemExit when the
    program's sources are not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gsp4hodge", "cli.py")):
        raise SystemExit(f"perfbench: no program sources under {src}; run from a checkout root")
    work = os.path.join(root, ".perfbench")
    os.makedirs(work, exist_ok=True)
    return src, work


def child_env(src: str, extra=None) -> dict:
    env = dict(os.environ)
    env.pop("GSP4H_MAX_DEGREE", None)
    env["PYTHONPATH"] = os.pathsep.join((src, RSS_HOOK_DIR))
    env.update(extra or {})
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _read_peak(path):
    """The peak RSS in kB that a child wrote to `path` at exit, or None."""
    try:
        with open(path, encoding="ascii") as fh:
            peak = int(fh.read())
    except FileNotFoundError:
        return None
    os.remove(path)
    return peak


def run_child(argv, src: str, work: str, stdin=None, env=None) -> Child:
    """Run one child to completion.  Children run one at a time, so the
    growth of this process's reaped-children CPU time is the child's own."""
    rss_out = os.path.join(work, "child-peak-rss")
    env = dict(env or {}, PERFBENCH_RSS_OUT=rss_out)
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        input=None if stdin is None else stdin.encode("utf-8"),
        stdin=subprocess.DEVNULL if stdin is None else None,
        capture_output=True,
        cwd=work,
        env=child_env(src, env),
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    return Child(proc.returncode, proc.stdout, proc.stderr, wall, _children_cpu() - cpu0,
                 _read_peak(rss_out))


def cli_argv(entry, trace_out=None):
    """Interpreter arguments for one cli-mix entry: the plain program, or
    the benchmark's tracing bootstrap in front of it."""
    if trace_out is None:
        return ["-m", "gsp4hodge.cli", *entry["argv"]]
    return [os.path.join(BENCH_DIR, "cli_boot.py"), trace_out, *entry["argv"]]


def run_entry(entry, src, work, trace_out=None):
    return run_child(cli_argv(entry, trace_out), src, work, entry["stdin"], entry["env"])
