"""Correctness checks for every benchmark op.

Each check returns None when the output is right, else a short reason.
The checks run outside the timed region.
"""

import hashlib
import json
from fractions import Fraction as Q


#: Point (a0, b0) at which symbolic kernels are evaluated for the kernel
#: check.  Far from the degenerate locus of every generic point used.
EVAL_POINT = (Q(1009, 13), Q(2003, 17))


def rational_rank(rows):
    """Rank over Q by plain Gaussian elimination (independent of the
    program's linear algebra)."""
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def kernel_problem(M, rows):
    """The rows are 17 independent vectors that the 11 x 24 matrix M sends
    to zero."""
    if len(rows) != 17:
        return f"kernel dimension {len(rows)}, expected 17"
    for i, k in enumerate(rows):
        if any(sum(x * y for x, y in zip(r, k)) != 0 for r in M):
            return f"kernel row {i} is not sent to zero"
    if rational_rank(rows) != 17:
        return "kernel rows are dependent"
    return None


def check_numeric(point, rows, rank, recovered, M):
    """numeric-sweep: a kernel of dimension 17 (checked against the jbar
    matrix M at the point), rank 7, and recovery returns the input point
    exactly."""
    if rank != 7:
        return f"rank {rank}, expected 7"
    if tuple(recovered) != tuple(point):
        return "recovered pair differs from the input"
    return kernel_problem(M, rows)


def expected_suite(a, b, one):
    """Closed forms of the eight generator matrices in the filtration basis
    (acceptance criterion 1) at the point (a, b).  `one` is the unit of the
    scalar field, so integer entries are lifted into it."""
    two = one + one
    q = a * b + a + b
    s = a + b
    raw = {
        "f1": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        "f2": [[1, 0, 0, 0], [0, 1, two / (b + 1), 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        "f3": [
            [1, 0, two / q, two * (b + 1) / q],
            [0, 1, two * (a + 1) / q, two / q],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ],
        "f4": [[1, 0, two / s, two / s], [0, 1, two / s, two / s], [0, 0, -1, 0], [0, 0, 0, -1]],
        "g1": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]],
        "g2": [[1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, -1]],
        "g3": [[1, -(b + 1), -1, 0], [0, 0, 0, -1], [0, 0, 0, b + 1], [0, 0, 0, -1]],
        "g4": [
            [1, b / a, one / a, two / a],
            [0, 0, 0, one / a],
            [0, 0, 0, -(b / a)],
            [0, 0, 0, -1],
        ],
    }
    return {k: [[x if not isinstance(x, int) else one * x for x in row] for row in M] for k, M in raw.items()}


def check_symbolic(point, one, rows, recovered, suite, M_eval):
    """symbolic-generic: recovery returns the input pair exactly, the
    matrix suite equals the closed forms, and the kernel evaluated at
    EVAL_POINT is a kernel of M_eval, the numeric jbar matrix at the
    image of EVAL_POINT."""
    if tuple(recovered) != tuple(point):
        return "recovered pair differs from the input"
    want = expected_suite(point[0], point[1], one)
    if set(suite) != set(want):
        return "matrix suite has the wrong generators"
    for label, M in want.items():
        got = suite[label]
        if len(got) != 4 or any(len(r) != 4 for r in got):
            return f"matrix {label} is not 4x4"
        if any(x != y for gr, wr in zip(got, M) for x, y in zip(gr, wr)):
            return f"matrix {label} differs from its closed form"
    a0, b0 = EVAL_POINT
    return kernel_problem(M_eval, [[x.evaluate(a0, b0) for x in r] for r in rows])


def check_cli(entry, code, stdout: bytes, stderr: bytes):
    """cli-mix: no traceback, an accepted exit code, one JSON document on
    stdout for json output, and the recorded bytes for ok entries."""
    if b"Traceback" in stderr:
        return "traceback"
    if code not in entry["expect"]:
        return f"exit code {code}, expected {entry['expect']}"
    if entry["json"]:
        try:
            json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON document"
    if "sha256" in entry and hashlib.sha256(stdout).hexdigest() != entry["sha256"]:
        return "stdout differs from the recorded bytes"
    return None
