"""One in-process benchmark client: a fresh interpreter that imports the
library, runs one untimed warm-up op, then runs timed ops in a closed loop
for its share of the run.

    python3 perfbench/worker.py WORKLOAD SEED PART SLICE_S TRACE

Prints one JSON line: the CPU time this process used before its first
timed op (its set-up time) and the monotonic time of that op, every op's
wall and CPU time and verdict, the reference times measured around set-up
and each op (see calib.py), and with TRACE=1 the aggregated spans.  With
TRACE=1 the batches of inputs alternate between untraced and traced, so
each traced op runs on an input of its own.
"""

import json
import sys
import time

import calib
import inputs
import oracle
import tracer


class NumericSweep:
    """kernel_basis -> jbar_rank -> recover_parameters at a rational point."""

    stream = staticmethod(inputs.numeric_stream)

    def __init__(self, lib):
        self.lib = lib

    def point(self, x):
        return x

    def op(self, point):
        K = self.lib.kernel_basis(*point)
        rank = self.lib.jbar_rank(*point)
        return K.rows, rank, self.lib.recover_parameters(K)

    def check(self, point, result):
        return oracle.check_numeric(point, *result, self.lib.jbar_matrix(*point))


class SymbolicGeneric:
    """kernel_basis -> recover_parameters -> matrix_suite at the generic
    point (a + c1, c2*b + c3) over Q(a, b)."""

    stream = staticmethod(inputs.symbolic_stream)

    def __init__(self, lib):
        from gsp4hodge.scalars import RatFunc

        self.lib = lib
        self.const = RatFunc.const
        self.one = RatFunc.const(1)
        self.a = RatFunc.var("a")
        self.b = RatFunc.var("b")

    def point(self, consts):
        c1, c2, c3 = consts
        return self.a + self.const(c1), self.b * self.const(c2) + self.const(c3)

    def op(self, point):
        K = self.lib.kernel_basis(*point)
        got = self.lib.recover_parameters(K)
        return K.rows, got, self.lib.matrix_suite(*point)

    def check(self, point, result):
        a0, b0 = oracle.EVAL_POINT
        image = (point[0].evaluate(a0, b0), point[1].evaluate(a0, b0))
        return oracle.check_symbolic(point, self.one, *result, self.lib.jbar_matrix(*image))


WORKLOADS = {"numeric-sweep": NumericSweep, "symbolic-generic": SymbolicGeneric}


def timed(w, point):
    """Run one op; returns ((wall s, CPU s), result, reason it failed or None)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result, error = w.op(point), None
    except Exception as exc:  # a library error is a failed op, not a crash
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    return (time.perf_counter() - t0, time.process_time() - c0), result, error


def verdict(w, point, result, error):
    if error:
        return error
    try:
        return w.check(point, result)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def main():
    workload, seed, part, slice_s, trace = sys.argv[1:6]
    seed, part, slice_s, trace = int(seed), int(part), float(slice_s), trace == "1"

    import gsp4hodge
    import gsp4hodge.kernel as lib  # attributes looked up per call, so wrappers apply

    w = WORKLOADS[workload](lib)
    batches = w.stream(seed, part)
    [(_, warm)] = next(batches)
    point = w.point(warm)
    _, result, error = timed(w, point)
    # set-up ends here: the warm-up's check is the benchmark's work
    first_op_cpu = time.process_time()
    first_op_at = time.monotonic()
    ref = setup_ref = calib.reference_cpu()
    warm_failure = verdict(w, point, result, error)

    tr = tracer.Tracer() if trace else None
    ops = []
    traced = False
    while time.monotonic() - first_op_at < slice_s or traced:
        for cls, x in next(batches):  # whole batches keep the class mix fixed
            point = w.point(x)
            if traced:
                tr.install()
                (wall, cpu), result, error = tr.wrap("op", timed)(w, point)
                tr.uninstall()  # the check below is not traced
            else:
                (wall, cpu), result, error = timed(w, point)
            ref_before, ref = ref, calib.reference_cpu()
            ops.append({"cls": cls, "s": wall, "cpu": cpu, "ref": [ref_before, ref],
                        "traced": traced, "failed": verdict(w, point, result, error)})
        # A traced run alternates untraced and traced batches, so every
        # traced op is a fresh input that no untraced op has warmed, and
        # it ends on a traced batch.
        traced = tr is not None and not traced
    out = {
        "program": gsp4hodge.__file__,
        "first_op_at": first_op_at,
        "first_op_cpu": first_op_cpu,
        "setup_ref": setup_ref,
        "warmup_failed": warm_failure,
        "ops": ops,
    }
    if tr is not None:
        out["trace"] = tr.snapshot()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
