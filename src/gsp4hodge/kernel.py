"""Eigenline grids, the diagonalizable operators attached to refinements,
the summed tangent map on the 24-dimensional block space, its kernel, the
parabolic gluing subspace, recovery of the Hodge parameters (a, b), the
eight generator matrices in the filtration basis, and the invariant plane.

The kernel, the matrix suite and the invariant plane are committed tables
over Q(a, b), which one evaluator evaluates at a point, kept for the last
point; nothing is eliminated or normalised per point.  Each table has a
plan (_plan), built with the tables at import, and is evaluated in flat
passes over it, one per field: its monomials, its denominators, then each
cell as an integer sum over its monomials' terms.  Over Q that sum and
its denominator are ints, reduced by one gcd into a Fraction built from
the pair; no Fraction constructor runs.  A point is an int,
a Fraction or a RatFunc in each of a and b (_point); a float, a bool or
anything else is a TypeError.  The parameters are read off two cells of
the kernel table and checked against the kernel at that point, unless the
kernel is the one kept.  The grid, its operators and the jbar matrix stay
as the routes the tables stand for: tests/make_tables.py prints the tables
from them, and the certificate in tests/test_kernel.py proves the tables
equal them at every nondegenerate point.

Block conventions.  The domain is one copy of the 3-dimensional diagonal
torus algebra per Weyl element, in the order of weyl.W_ALL; a torus element
diag(x, y, z-y, z-x) has block coordinates (x, y, z), so the flat space is
E^24 with coordinate 3*block + k.  The plane table is written in the
coordinates of the distinguished generators

    f1 = (T1)_e      f2 = (T1)_{s2}    f3 = (T1)_{s0}    f4 = (T1)_{s2s1}
    g1 = (T2)_e      g2 = (T2)_{s1}    g3 = (T2)_{s1s2}  g4 = (T2)_{s0}

with T1 = diag(-1,-1,1,1) and T2 = diag(-1,0,0,1).
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm, prod
from operator import itemgetter
from typing import TYPE_CHECKING

from ._value import Value
from .errors import DegenerateIntersection, InvalidData, NotALine
from .linalg import coerce_rows, inverse, mat_mul, meet_coordinates, rref
from .phimodule import coordinate_subspace, filtration_basis, nondeg_factors, vanishing_factor
from .scalars import INTEGER, SCALAR, RatFunc, Scalar, _cancel, _flat_poly, _fraction, _ratfunc, is_zero, require_type
from .symplectic import Subspace, gsp4_coordinates

if TYPE_CHECKING:
    from .weyl import WeylElem

GENERATOR_LABELS = ("f1", "f2", "f3", "f4", "g1", "g2", "g3", "g4")


def block_index(w: WeylElem) -> int:
    """The block of w: its place in weyl.W_ALL."""
    from .weyl import W_ALL
    return W_ALL.index(w)


def torus_block_coords(t) -> tuple:
    """Block coordinates (x, y, z) of diag(t1, t2, t3, t4) = diag(x,y,z-y,z-x)."""
    t1, t2, t3, t4 = t
    if t1 + t4 != t2 + t3:
        raise InvalidData(f"diagonal {t} breaks the torus constraint")
    return (t1, t2, t1 + t4)


def embed_block(t, w: WeylElem):
    """The 24-vector carrying the torus element t in the block of w."""
    x, y, z = torus_block_coords(t)
    vec = [Q(0)] * 24
    base = 3 * block_index(w)
    vec[base], vec[base + 1], vec[base + 2] = x, y, z
    return tuple(vec)


def _point(a: Scalar, b: Scalar) -> tuple:
    """(a, b) in one field: RatFunc if either is one, else Fraction.  Each
    must be an int, a Fraction or a RatFunc; a TypeError names any other,
    a float (not exact) and a bool (rejected, as parse_integer does) too."""
    ta, tb = type(a), type(b)
    if ta is tb and (ta is Q or ta is RatFunc):  # already one field
        return a, b
    require_type("a", a, SCALAR)
    require_type("b", b, SCALAR)
    if RatFunc in (ta, tb):
        return tuple(x if type(x) is RatFunc else RatFunc.const(x) for x in (a, b))
    return Q(a), Q(b)


def _require_nondegenerate(a: Scalar, b: Scalar, factors: tuple | None = None) -> None:
    factor = vanishing_factor(a, b, factors)
    if factor is not None:
        raise InvalidData(f"nondegeneracy-polynomial: factor {factor} vanishes")


class EigenlineGrid(Value):
    """Lines F_w^i ∩ F_H^{5-i} for each Weyl element w, keyed by w.perm.

    Line vectors are normalized so the coefficient of e_{w^{-1}(i)} is 1,
    which pins down the unipotent change of basis."""

    lines: dict

    def line(self, w: WeylElem, i: int):
        if require_type("i", i, INTEGER) not in (1, 2, 3, 4):
            raise InvalidData(f"line index {i} is not in 1..4")
        return self.lines[w.perm][i - 1]


def eigenline_grid(a: Scalar, b: Scalar) -> EigenlineGrid:
    """Intersect the coordinate flags with the Hodge flag, line by line."""
    from .weyl import W_ALL  # the Weyl group, in block order

    a, b = _point(a, b)
    _require_nondegenerate(a, b)
    hodge = coerce_rows(filtration_basis(a, b))
    lines = {}
    for w in W_ALL:
        inv = w.inv().perm
        basis = []
        for i in (1, 2, 3, 4):
            # F_H^{5-i} = <v1..v_{5-i}> meets F_w^i = E_{inv[:i]}, annihilated by e_j, j in inv[i:]
            gens = hodge[: 5 - i]
            coords = meet_coordinates(gens, coordinate_subspace(inv[i:]).rows)
            if len(coords) != 1:
                raise DegenerateIntersection(
                    w.perm, i, f"intersection has dimension {len(coords)}"
                )
            vec = mat_mul(coords, gens)[0]
            lead = vec[inv[i - 1] - 1]
            if is_zero(lead):
                raise DegenerateIntersection(
                    w.perm,
                    i,
                    f"line lies inside the smaller coordinate flag member "
                    f"(vanishing e_{inv[i - 1]} coefficient)",
                )
            vec = [x / lead for x in vec]
            basis.append(tuple(vec))
        lines[w.perm] = tuple(basis)
    return EigenlineGrid(lines=lines)


def nu_operator(grid: EigenlineGrid, w: WeylElem, t):
    """The unique operator acting as t_i on the i-th eigenline of w."""
    torus_block_coords(t)  # rejects t off the torus
    U = [list(col) for col in zip(*grid.lines[w.perm])]  # columns are the lines
    Uinv = inverse(U)
    D = [[t[i] if i == j else Q(0) for j in range(4)] for i in range(4)]
    return mat_mul(mat_mul(U, coerce_rows(D)), Uinv)


# ---------------------------------------------------------------------------
# The summed tangent map
# ---------------------------------------------------------------------------

def jbar_matrix(a: Scalar, b: Scalar):
    """The 11 x 24 matrix of the summed tangent map in the fixed bases."""
    from .weyl import TORUS_BASIS, W_ALL  # the Weyl group, in block order

    grid = eigenline_grid(a, b)
    cols = []
    for w in W_ALL:
        for t in TORUS_BASIS:
            M = nu_operator(grid, w, t)
            cols.append(gsp4_coordinates(M))
    return [list(col) for col in zip(*cols)]  # 11 rows, 24 columns


# Committed tables over Q(a, b).  A cell is an integer or
# (den, c1, ca, cb, caa, cab, cbb) for
# (c1 + ca*a + cb*b + caa*a^2 + cab*a*b + cbb*b^2) / den, where den is the
# tuple of indices in NONDEG_FACTORS of the factors whose product it is:
# 1, a, q, a*q, b + 1 and a + b below, q = ab + a + b.  So a table evaluates
# at every nondegenerate point, over Q and over Q(a, b) alike.
# tests/make_tables.py prints the tables from the eliminated results they
# stand for, and the certificate in tests/test_kernel.py proves them.
_1, _A, _Q, _AQ, _B1, _S = (), (0,), (4,), (0, 4), (2,), (3,)
# The exponents of (ad, bd) in the denominator of each factor's pair from
# nondeg_factors, with a = an/ad and b = bn/bd, and of (a, b) in the terms
# c1, ca, cb, caa, cab, cbb of a cell.
_DENOMINATOR_EXPONENTS = ((1, 0), (0, 1), (0, 1), (1, 1), (1, 1))
_CELL_EXPONENTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

# The kernel of jbar_matrix, in reduced row echelon form.  The RREF is
# unique and commutes with evaluation wherever the five factors are nonzero,
# so evaluating it gives the kernel at every nondegenerate point.  Row r has
# 1 in column _KERNEL_PIVOTS[r], 0 in the other pivot columns, and its cells
# in the free columns _KERNEL_FREE.  Row 0 column 13 is 1/a and row 1
# column 13 is -(1 + 2b)/a: recover_parameters reads a and b there.
_KERNEL_PIVOTS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20)
_KERNEL_FREE = (11, 13, 17, 19, 21, 22, 23)
_KERNEL_FREE_BLOCK = (
    ((_Q, 0, 2, 0, 0, 2, 0), (_A, 1, 0, 0, 0, 0, 0), (_Q, 0, 0, 2, 0, 0, 0), (_AQ, 0, -1, -1, 0, 1, 0), -1, (_Q, 0, 0, -2, 0, 0, 0), -2),
    ((_Q, 0, 0, 2, 0, 0, 2), (_A, -1, 0, -2, 0, 0, 0), (_Q, 0, 2, 0, 0, 2, -2), (_AQ, 0, 1, 1, 0, 1, 2), 0, (_Q, 0, -1, 1, 0, -1, 2), -2),
    ((_Q, 0, -1, -1, 0, -1, -1), (_A, 0, 0, 1, 0, 0, 0), (_Q, 0, -1, -1, 0, -1, 1), (_AQ, 0, 0, 0, 0, -1, -1), 0, (_Q, 0, 0, 0, 0, 0, -1), 1),
    (0, 1, 2, 0, -1, -1, -2),
    ((_Q, 0, 2, 2, 0, 2, 2), (_A, 0, -1, -2, 0, 0, 0), (_Q, 0, 0, 0, 0, 0, -2), (_AQ, 0, 0, 0, 0, 2, 2), 0, (_Q, 0, 0, 0, 0, 0, 2), -2),
    ((_Q, 0, -1, -1, 0, -1, -1), (_A, 0, 0, 1, 0, 0, 0), (_Q, 0, -1, -1, 0, -1, 1), (_AQ, 0, 0, 0, 0, -1, -1), 0, (_Q, 0, 0, 0, 0, 0, -1), 1),
    ((_Q, 0, 2, 0, 0, 2, 0), (_A, 1, 0, 0, 0, 0, 0), (_Q, 0, 0, 2, 0, 0, 0), (_AQ, 0, -1, -1, 0, 1, 0), -1, (_Q, 0, 0, -2, 0, 0, 0), -2),
    ((_Q, 0, 0, 2, 0, 0, 0), (_A, -1, 0, 0, 0, 0, 0), (_Q, 0, 0, -2, 0, 0, 0), (_AQ, 0, 1, 1, 0, -1, 0), 0, (_Q, 0, -1, 1, 0, -1, 0), 0),
    (-1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, -1, -1, 0),
    (2, 0, 0, -1, 0, 0, -2),
    (0, 1, 2, 0, -1, -1, -2),
    (0, 0, -1, 0, 0, 0, 0),
    (0, 0, 0, 0, -1, 0, 0),
    (0, 0, 2, 0, 0, -1, -2),
    (0, 0, 0, 1, -1, -1, 0),
    (0, 0, 0, 0, 0, 0, -1),
)
# The plane K / glue in the generator coordinates, in GENERATOR_LABELS
# order: 2b times the kernel's meet with span(f1..f4, g1, g2, g3), which
# projects onto (g2, g3) along (b + 1, -1), and 2ab times its meet with
# span(f1..f4, g1, g2, g4), which projects onto (g2, g4) along (b, a).
_PLANE_TABLE = (
    ((_1, 0, -1, 1, 0, -1, 0), (_1, 0, 1, -1, 0, 1, -1), (_1, 0, -1, -1, 0, -1, 0), (_1, 0, 1, 1, 0, 1, 1), (_1, 0, 0, 0, 0, 0, 2), (_1, 0, 0, -2, 0, 0, -2), (_1, 0, 0, 2, 0, 0, 0), 0),
    ((_1, 0, -1, -1, 0, 1, 0), (_1, 0, 1, 1, 0, 1, 1), (_1, 0, -1, -1, 0, -1, 0), (_1, 0, 1, 1, 0, -1, -1), (_1, 0, 0, 0, 0, -2, -2), (_1, 0, 0, 0, 0, 0, 2), 0, (_1, 0, 0, 0, 0, 2, 0)),
)
# The eight generator images in the filtration basis (v1, v2, v3, v4), in
# GENERATOR_LABELS order: each nu_operator on the eigenline grid, conjugated
# by the filtration basis.  Their denominators are a, b + 1, q and a + b.
_SUITE_TABLE = {
    "f1": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    "f2": ((1, 0, 0, 0), (0, 1, (_B1, 2, 0, 0, 0, 0, 0), 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    "f3": ((1, 0, (_Q, 2, 0, 0, 0, 0, 0), (_Q, 2, 0, 2, 0, 0, 0)), (0, 1, (_Q, 2, 2, 0, 0, 0, 0), (_Q, 2, 0, 0, 0, 0, 0)), (0, 0, -1, 0), (0, 0, 0, -1)),
    "f4": ((1, 0, (_S, 2, 0, 0, 0, 0, 0), (_S, 2, 0, 0, 0, 0, 0)), (0, 1, (_S, 2, 0, 0, 0, 0, 0), (_S, 2, 0, 0, 0, 0, 0)), (0, 0, -1, 0), (0, 0, 0, -1)),
    "g1": ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, -1)),
    "g2": ((1, -1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)),
    "g3": ((1, (_1, -1, 0, -1, 0, 0, 0), -1, 0), (0, 0, 0, -1), (0, 0, 0, (_1, 1, 0, 1, 0, 0, 0)), (0, 0, 0, -1)),
    "g4": ((1, (_A, 0, 0, 1, 0, 0, 0), (_A, 1, 0, 0, 0, 0, 0), (_A, 2, 0, 0, 0, 0, 0)), (0, 0, 0, (_A, 1, 0, 0, 0, 0, 0)), (0, 0, 0, (_A, 0, 0, -1, 0, 0, 0)), (0, 0, 0, -1)),
}
# Each table's cells in the order its caller reads them: the kernel's
# distinct cells, which _KERNEL_ROWS gathers into rows, and the plane's and
# the suite's row by row.  A distinct cell of the three tables is keyed by
# its place among them in a point's values, so a cell that two tables hold
# is one value.
_KERNEL_CELLS = tuple(dict.fromkeys((0, 1, *(c for cells in _KERNEL_FREE_BLOCK for c in cells))))
_PLANE_CELLS = _PLANE_TABLE[0] + _PLANE_TABLE[1]
_SUITE_CELLS = tuple(c for M in _SUITE_TABLE.values() for row in M for c in row)
_CELL_KEYS = {cell: i for i, cell in enumerate(dict.fromkeys(_KERNEL_CELLS + _SUITE_CELLS + _PLANE_CELLS))}


def _kernel_row(pivot: int, cells: tuple) -> itemgetter:
    """The itemgetter that gathers the kernel row of pivot and cells, all
    24 entries, from the values of _KERNEL_CELLS in one call."""
    row = [0] * 24
    row[pivot] = 1
    for col, cell in zip(_KERNEL_FREE, cells):
        row[col] = cell
    return itemgetter(*map(_KERNEL_CELLS.index, row))


_KERNEL_ROWS = tuple(map(_kernel_row, _KERNEL_PIVOTS, _KERNEL_FREE_BLOCK))


def _cell_layout(cell: tuple) -> tuple:
    """A table cell (den, c1, ..., cbb) as ((den, sa, sb), terms) for
    _plan: at a = an/ad, b = bn/bd the cell is the sum over terms
    (c, (k, x, y)) of c * an^u * bn^v * ad^x * bd^y, (u, v) the k-th of
    _CELL_EXPONENTS and (x, y) = (I - u, J - v), over the product of den's
    factor numerators times ad^sa * bd^sb.  I and J are the least that
    clear every exponent, so where sa > 0 some term has x = 0, and likewise
    for sb and y."""
    den, *coeffs = cell
    used = [(c, k, *_CELL_EXPONENTS[k]) for k, c in enumerate(coeffs) if c]
    i, j = (sum(_DENOMINATOR_EXPONENTS[f][s] for f in den) for s in (0, 1))
    I, J = max(i, *(u for _, _, u, _ in used)), max(j, *(v for _, _, _, v in used))
    return (den, I - i, J - j), tuple((c, (k, I - u, J - v)) for c, k, u, v in used)


def _plan(cells: tuple) -> tuple:
    """The plan that evaluates table cells: the layouts (den, sa, sb) and
    the monomial keys (k, x, y) of _cell_layout that the cells use, one
    entry per distinct cell, and the cells' keys (_CELL_KEYS) in their
    order.  An entry is (key, layout, terms), terms being
    ((c, monomial), ...) over the plan's positions, or (key, None, c) for
    an integer cell c.  Each table's plan is built once, below."""
    layouts, monomials, entries = {}, {}, []
    for cell in dict.fromkeys(cells):
        if isinstance(cell, int):
            entries.append((_CELL_KEYS[cell], None, cell))
        else:
            powers, terms = _cell_layout(cell)
            terms = tuple((c, monomials.setdefault(m, len(monomials))) for c, m in terms)
            entries.append((_CELL_KEYS[cell], layouts.setdefault(powers, len(layouts)), terms))
    return tuple(layouts), tuple(monomials), tuple(entries), tuple(map(_CELL_KEYS.get, cells))


_KERNEL_PLAN = _plan(_KERNEL_CELLS)
_SUITE_PLAN = _plan(_SUITE_CELLS)
_PLANE_PLAN = _plan(_PLANE_CELLS)


def _affine_point(an, ad, bn, bd) -> bool:
    """Whether a = an/ad, b = bn/bd in Q(a, b) is an affine automorphism
    sigma of Q[a, b]: ad = bd = 1, and an, bn of total degree 1 whose linear
    parts have a nonzero determinant.  sigma keeps gcds, and the evaluator's
    pair for a cell N/D is (sigma(N), sigma(D)), so every table cell, in
    lowest terms (tests/test_kernel.py), needs no gcd there.  At (a, a),
    with determinant 0, 2a(b + 1)/(ab + a + b) goes to 2a(a + 1)/(a^2 + 2a)."""
    if ad != 1 or bd != 1 or an.total_degree() != 1 or bn.total_degree() != 1:
        return False
    # the coefficients of a and b in the views: the scales do not move the determinant off 0
    (p, q), (r, s) = ((v.get(0, {}).get(1, 0), v.get(1, {}).get(0, 0)) for v in (an._view, bn._view))
    return p * s != q * r


# The integer cells of the three tables, 0, ±1 and ±2, built once per
# field: Fractions and RatFuncs are immutable, so every point shares them.
_Q_CELLS = {c: Q(c) for c in _CELL_KEYS if isinstance(c, int)}
_QAB_CELLS = {c: RatFunc.const(c) for c in _Q_CELLS}


def _table_evaluator(a: Scalar, b: Scalar):
    """The function that evaluates tables at (a, b), lifted into one
    field, where every denominator the cells use is nonzero: given a
    table's plan, it returns the values of the table's cells in order.

    Each cell is numerator over denominator in the ring under the field,
    Z for Q and Q[a, b] for Q(a, b), from the pairs of nondeg_factors.
    With a = an/ad and b = bn/bd, the first two, a table denominator is
    dn / (ad^i * bd^j) for the product dn of its factors' numerators, so a
    cell's term c * a^u * b^v is c * an^u * bn^v * ad^(i-u) * bd^(j-v)
    over dn.  Both sides take the least powers of ad and bd that clear the
    negative exponents (_cell_layout), so neither ad nor bd is put on
    both.  A table's plan (_plan) names its layouts, monomials and cells,
    and each field has a pass of its own over it: _q_pass and _qab_pass.
    Either keeps the point's values, so each distinct cell is evaluated
    once per point and the tables share one evaluator per point through
    _evaluation; an integer cell is its field's constant, built at import.
    (a, b) is a point in one field, as _point gives it; InvalidData names
    the first factor that vanishes there."""
    factors = nondeg_factors(a, b)
    _require_nondegenerate(a, b, factors)
    return (_qab_pass if type(a) is RatFunc else _q_pass)(factors)


def _q_pass(factors: tuple):
    """The evaluator over Q, in Z: for each plan, its monomials
    an^u * bn^v * ad^x * bd^y and its layout denominators are int lists,
    and a cell is the integer sum of its terms over its layout's
    denominator, one gcd and one Fraction built by _fraction; no
    Fraction.__new__ runs."""
    (an, ad), (bn, bd) = factors[:2]
    nums = [n for n, _ in factors]
    pa, pb = (1, ad, ad * ad), (1, bd, bd * bd)
    cores = (1, an, bn, an * an, an * bn, bn * bn)
    values = {}

    def evaluate(plan: tuple) -> list:
        layouts, keys, entries, order = plan
        ms = [cores[k] * pa[x] * pb[y] for k, x, y in keys]
        ds = [prod(map(nums.__getitem__, den)) * pa[sa] * pb[sb] for den, sa, sb in layouts]
        for key, layout, terms in entries:
            if key in values:
                continue
            if layout is None:
                values[key] = _Q_CELLS[terms]
            else:
                n = 0
                for c, m in terms:
                    n += c * ms[m]
                values[key] = _fraction(n, ds[layout])
        return list(map(values.__getitem__, order))

    return evaluate


def _qab_pass(factors: tuple):
    """The evaluator over Q(a, b), in Q[a, b].  Each monomial and each
    denominator layout is built once per point, whichever table needs it
    first.  Each denominator is made monic once, and a monomial is kept as
    its integer terms times one scale; a table brings its monomials to one
    common denominator L, so a cell numerator is an integer sum over its
    monomials' terms, whose content and sign (its leading integer's) move
    into one Fraction scale, and the denominator's monic scale with it.
    At an affine point (_affine_point) that pair is the cell's canonical
    pair; elsewhere one _cancel makes it so, since it keeps the
    denominator monic; either way _ratfunc builds the cell."""
    (an, ad), (bn, bd) = factors[:2]
    affine = _affine_point(an, ad, bn, bd)
    one = an**0  # the ring's 1
    pa, pb = (one, ad, ad * ad), (one, bd, bd * bd)
    # where ad = 1, monomials that differ only in its exponent are one, and likewise for bd
    xa = (0, 1, 2) if ad != 1 else (0, 0, 0)
    xb = (0, 1, 2) if bd != 1 else (0, 0, 0)
    cores = (one, an, bn, an * an, an * bn, bn * bn)
    monomials, denominators, values = {}, {}, {}

    def evaluate(plan: tuple) -> list:
        layouts, keys, entries, order = plan
        keys = [(k, xa[x], xb[y]) for k, x, y in keys]
        for key in keys:
            if key not in monomials:
                k, x, y = key
                m = cores[k]
                if x:
                    m = m * pa[x]
                if y:
                    m = m * pb[y]
                # its integer terms, keyed (b-degree, a-degree), and its scale
                monomials[key] = [((db, da), c) for db, u in m._view.items() for da, c in u.items()], m._scale
        ds = []
        for powers in layouts:
            d = denominators.get(powers)
            if d is None:
                den, sa, sb = powers
                d = prod(factors[f][0] for f in den) * pa[sa] * pb[sb]
                inv = 1 / d.leading_coeff()  # monic once, with the scale each numerator takes
                d = denominators[powers] = d.scale(inv), inv
            ds.append(d)
        # each monomial's terms over the table's common denominator L, by position in exps
        ms = {key: monomials[key] for key in keys}
        L = lcm(*(s.denominator for _, s in ms.values()))
        exps = sorted({e for t, _ in ms.values() for e, _ in t})  # (b-degree, a-degree), the leading one last
        at = {e: i for i, e in enumerate(exps)}
        for key, (t, s) in ms.items():
            n = s.numerator * (L // s.denominator)
            ms[key] = [(at[e], v * n) for e, v in t]
        ms = [ms[key] for key in keys]
        for key, layout, terms in entries:
            if key in values:
                continue
            if layout is None:
                values[key] = _QAB_CELLS[terms]
                continue
            acc = [0] * len(exps)
            for c, m in terms:
                for i, v in ms[m]:
                    acc[i] += c * v
            d, inv = ds[layout]
            g = gcd(*acc)
            if g:  # the content, signed like the leading integer
                acc = [(e, v) for e, v in zip(exps, acc) if v]
                g = g if acc[-1][1] > 0 else -g
                n = _flat_poly(acc, g, _fraction(g * inv.numerator, L * inv.denominator))
            else:
                n = _QAB_CELLS[0].num
            # a cell numerator is nonzero and sigma injective: at an affine point (n, d) is canonical
            if not affine:  # cancelling against a monic d leaves it monic
                n, d, _ = _cancel(n, d)
            values[key] = _ratfunc(n, d)
        return list(map(values.__getitem__, order))

    return evaluate


_last = None  # the evaluation kept for the last point: see _evaluation


def _evaluation(a: Scalar, b: Scalar) -> list:
    """The tables' evaluation at (a, b), kept for the last point as
    [key, evaluate, kernel rows].  The key is (field, a, b) after
    _point, so a point of Q and the same constants in Q(a, b) never
    share it; the rows stay None until kernel_basis builds them, there or
    for recover_parameters at a point it reads off.  A degenerate point
    raises InvalidData and leaves the kept one as it was."""
    global _last
    key, entry = _kept(a, b)
    if entry is None:
        entry = _last = [key, _table_evaluator(*key[1:]), None]
    return entry


def _kept(a: Scalar, b: Scalar) -> tuple:
    """The key of (a, b) and the kept evaluation if it is that point's,
    else None."""
    a, b = _point(a, b)
    key = (type(a), a, b)
    entry = _last  # read once: another thread may replace it meanwhile
    return key, entry if entry is not None and entry[0] == key else None


def kernel_basis(a: Scalar, b: Scalar) -> Subspace:
    """The kernel of jbar_matrix(a, b) inside E^24, by evaluating the
    committed generic kernel; InvalidData at a degenerate point.  The rows
    are kept with the last point's evaluation, and a repeat call there
    returns them again."""
    entry = _evaluation(a, b)
    if entry[2] is None:
        values = entry[1](_KERNEL_PLAN)
        entry[2] = tuple(row(values) for row in _KERNEL_ROWS)
    return Subspace(rows=entry[2], ambient=24)


def jbar_rank(a: Scalar, b: Scalar) -> int:
    """24 minus the 17 rows that the committed kernel has at every
    nondegenerate point, read off the table without evaluating a cell.
    At the kept point its evaluation has checked the point already; any
    other point is checked, InvalidData if degenerate, and not kept."""
    key, entry = _kept(a, b)
    if entry is None:
        _require_nondegenerate(*key[1:])
    return 24 - len(_KERNEL_PIVOTS)


# ---------------------------------------------------------------------------
# Parabolic gluing subspace (independent of a and b)
# ---------------------------------------------------------------------------

def glue_generators():
    """The 16 difference vectors (z)_w - (z)_{s_delta w}, one per unordered
    pair {w, s_delta w} per Levi-center basis element."""
    from .weyl import LEVI_CENTERS, S1, S2, W_ALL  # the Weyl group, in block order

    out = []
    for s_delta, z_basis in ((S1, LEVI_CENTERS["P"]), (S2, LEVI_CENTERS["Q"])):
        for i, w in enumerate(W_ALL):
            other = s_delta * w
            if i > W_ALL.index(other):
                continue
            for z in z_basis:
                vec = [x - y for x, y in zip(embed_block(z, w), embed_block(z, other))]
                out.append(tuple(vec))
    return out


@lru_cache(maxsize=1)
def glue_subspace() -> Subspace:
    """The gluing subspace of E^24 (dimension 15)."""
    return Subspace.span(glue_generators(), ambient=24)


# ---------------------------------------------------------------------------
# Hodge-parameter recovery and the invariant plane
# ---------------------------------------------------------------------------


class LInvariantPlane(Value):
    """Kernel-mod-glue presentation: two representatives in the generator
    coordinates f1..f4, g1..g4, the rows of the committed plane table at
    (a, b), plus the parameters they encode."""

    basis_fg: tuple
    a: Scalar
    b: Scalar
    kernel_dim: int
    glue_dim: int

    @property
    def dim(self) -> int:
        return self.kernel_dim - self.glue_dim


def l_invariant_plane(a: Scalar, b: Scalar) -> LInvariantPlane:
    """The plane K / glue at (a, b), by evaluating the committed plane
    table (InvalidData at a degenerate point).  basis_fg is its two rows
    as the evaluator gives them: polynomials in (a, b), so the plane has
    no poles off the degenerate locus.  (a, b) is read off them by two
    ratios that no scale of a row moves: b = -g2/g3 - 1 in row 0, where
    g3 = 2b, and a = b g4/g2 in row 1, where g2 = 2b^2."""
    values = _evaluation(a, b)[1](_PLANE_PLAN)
    basis_fg = (tuple(values[:8]), tuple(values[8:]))
    (*_, g2, g3, _), (*_, h2, _, h4) = basis_fg
    b = -g2 / g3 - 1
    return LInvariantPlane(
        basis_fg=basis_fg, a=b * h4 / h2, b=b, kernel_dim=len(_KERNEL_PIVOTS), glue_dim=glue_subspace().dim
    )


def recover_parameters(K: Subspace):
    """Read (a, b) back from the kernel, then check the whole kernel.

    K must be a Subspace; a TypeError names any other type.
    Rows that kernel_basis kept for the last point, the same tuple, are
    the table evaluated there by construction, so that point is returned
    and no cell is compared.
    Any other K's rows must have 24 entries.  One rref brings them, a
    basis or any other spanning set, to pivot form, whose pivots must be
    the committed table's _KERNEL_PIVOTS.  In the table, row 0 column 13
    is 1/a and row 1 column 13 is -(1 + 2b)/a, so a and b are read off
    those two cells.  The rows must then equal kernel_basis(a, b), cell
    by canonical cell, in every free column; the pivot columns already
    do.  That point is then the one kept, so kernel_basis, matrix_suite
    and l_invariant_plane there evaluate nothing new.
    By the certificate in tests/test_kernel.py every kernel at a
    nondegenerate point passes, and every other input raises NotALine with
    a witness: a row length, the pivots, a zero cell, the vanishing factor,
    or the first mismatching (row, column).
    """
    if not isinstance(K, Subspace):
        raise TypeError(f"K must be a Subspace, not {type(K).__name__!r}")
    rows, entry = K.rows, _last
    if entry is not None and entry[2] is not None and rows is entry[2]:
        return entry[0][1:]
    for r, row in enumerate(rows):
        if len(row) != 24:
            raise NotALine(f"kernel row {r} has {len(row)} entries, not 24")
    rows, pivots = rref(coerce_rows(rows))
    if tuple(pivots) != _KERNEL_PIVOTS:
        raise NotALine(f"kernel has pivot columns {pivots}, not those of the committed table")
    inv_a, cell = rows[0][13], rows[1][13]
    if not inv_a:
        raise NotALine("kernel cell (0, 13), which is 1/a, vanishes")
    a = 1 / inv_a
    b = -(a * cell + 1) / 2
    try:
        table = kernel_basis(a, b).rows
    except InvalidData:  # the error path alone builds the factors again
        factor = vanishing_factor(a, b)
        raise NotALine(f"kernel reads off a degenerate point: factor {factor} vanishes") from None
    for r, (row, want) in enumerate(zip(rows, table)):
        for c in _KERNEL_FREE:
            if row[c] != want[c]:
                raise NotALine(f"kernel differs from the committed table at cell ({r}, {c})")
    return a, b


# ---------------------------------------------------------------------------
# Matrix suite in the filtration basis
# ---------------------------------------------------------------------------


def matrix_suite(a: Scalar, b: Scalar) -> dict:
    """Images of the eight distinguished generators, written in the
    filtration basis (v1, v2, v3, v4), by evaluating the committed suite
    table."""
    values = _evaluation(a, b)[1](_SUITE_PLAN)
    rows = [values[i : i + 4] for i in range(0, len(values), 4)]
    return {label: rows[i : i + 4] for label, i in zip(_SUITE_TABLE, range(0, len(rows), 4))}
