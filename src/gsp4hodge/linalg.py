"""Exact dense linear algebra over a field of scalars.

Works uniformly over ``fractions.Fraction`` and :class:`~gsp4hodge.scalars.RatFunc`
entries.  Matrices are lists of row lists; vectors are row tuples.  Raw ints
in input are lifted to the ambient field so that division never leaves it.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .scalars import RATIONAL, RatFunc, require_type


def coerce_rows(rows):
    """Lift every entry into one field: RatFunc if any entry is one, else Q.
    Any other entry must be an int or a Fraction; a TypeError names it."""
    rows = [list(r) for r in rows]
    field = RatFunc if any(isinstance(x, RatFunc) for r in rows for x in r) else Q

    def lift(x, i, j):  # the slow path: an int, or a wrong type named by its place
        x = require_type(f"rows[{i}][{j}]", x, RATIONAL)
        return RatFunc.const(x) if field is RatFunc else x

    return [[x if type(x) is field else lift(x, i, j) for j, x in enumerate(r)] for i, r in enumerate(rows)]


def identity(n: int):
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """A . B, adding only the products of two nonzero entries."""
    cols = list(zip(*B))
    out = []
    for row in A:
        support = [(t, x) for t, x in enumerate(row) if x]
        out.append([])
        for col in cols:
            terms = [x * col[t] for t, x in support if col[t]]
            out[-1].append(sum(terms[1:], terms[0]) if terms else row[0] * col[0])
    return out


def mat_add(A, B):
    return [[A[i][j] + B[i][j] for j in range(len(A[0]))] for i in range(len(A))]


def mat_scale(A, c):
    return [[c * x for x in row] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def trace(A):
    acc = A[0][0]
    for i in range(1, len(A)):
        acc = acc + A[i][i]
    return acc


def mat_eq(A, B) -> bool:
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(A, B)
    )


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    n, m = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [x / piv if x else x for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def row_space(rows):
    """Canonical (RREF, zero rows dropped) basis of the span of the rows."""
    red, pivots = rref(coerce_rows(rows))
    return [tuple(red[i]) for i in range(len(pivots))]


def rank(rows) -> int:
    return len(rref(coerce_rows(rows))[1])


def nullspace(rows, ncols: int):
    """A basis of the right null space {x : A x = 0} of a matrix with ncols
    columns, as row tuples: one vector per free column of the RREF, 1 there
    and the negated pivot-row entries in the pivot columns; not canonical."""
    rows = coerce_rows(rows)
    if not rows:
        return [tuple(row) for row in identity(ncols)]
    m = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        zero = red[0][fc] * 0  # 0 and 1 in the field of the rows
        v = [zero] * m
        v[fc] = zero + 1
        for row, pc in zip(red, pivots):
            if row[fc]:
                v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def meet_coordinates(gens, ann):
    """A basis of the c with sum_j c_j gens[j] in the subspace W that the
    rows of ann annihilate (W is everything when ann is empty): the null space
    of ann . gens^T, of dimension dim(span(gens) ∩ W) when gens are independent."""
    supports = [[(k, z) for k, z in enumerate(g) if z] for g in gens]
    system = [[sum(y[k] * z for k, z in s if y[k]) for s in supports] for y in ann]
    return nullspace(system, len(gens))


def intersect_row_spaces(U, V, ncols: int):
    """Canonical basis of rowspace(U) ∩ rowspace(V) inside E^ncols."""
    if not U or not V:
        return []
    return row_space(mat_mul(meet_coordinates(U, nullspace(V, ncols)), U))


def inverse(A):
    n = len(A)
    eye = identity(n)
    aug = [list(A[i]) + eye[i] for i in range(n)]
    red, pivots = rref(coerce_rows(aug))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]
