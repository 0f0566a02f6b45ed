"""Print the committed tables of ``src/gsp4hodge/kernel.py`` from the
eliminated results they stand for, over Q(a, b):

    PYTHONPATH=src python tests/make_tables.py

The kernel table is row_space(nullspace(jbar_matrix(a, b), 24)), the
suite table is oracles.matrix_suite_by_elimination(a, b), and the plane
table is the two meets of oracles.generator_meets on that kernel, in the
generator coordinates, scaled by 2b and 2ab to polynomials.  Each cell is
printed in the table format of kernel.py: an integer, or
(den, c1, ca, cb, caa, cab, cbb) over the first of the denominators
(1, a, q, aq, b + 1, a + b), q = ab + a + b, that clears it.  A denominator
is written as the tuple of indices of its factors in NONDEG_FACTORS, so the
names line binds each name to a factor product.  The output is the source
text of the names line and of the table literals, one block each;
test_make_tables checks that kernel.py contains every block verbatim, so
no table is edited by hand.
"""

from functools import lru_cache
from math import prod

from gsp4hodge.kernel import GENERATOR_LABELS, jbar_matrix
from gsp4hodge.linalg import nullspace, row_space
from gsp4hodge.scalars import RatFunc
from oracles import RECOVERY_LABELS, _nondeg_factor_values, generator_meets, matrix_suite_by_elimination

A = RatFunc.var("a")
B = RatFunc.var("b")

#: The denominators 1, a, q, aq, b + 1, a + b: each name with the indices of
#: its factors in NONDEG_FACTORS.
NAMED_FACTORS = (("_1", ()), ("_A", (0,)), ("_Q", (4,)), ("_AQ", (0, 4)), ("_B1", (2,)), ("_S", (3,)))
FACTORS = _nondeg_factor_values(A, B)
#: Each name with its denominator over Q(a, b), by field operations.
DENOMINATORS = tuple(
    (name, prod((FACTORS[i] for i in factors), start=RatFunc.const(1))) for name, factors in NAMED_FACTORS
)
#: Exponents of the monomials 1, a, b, a^2, ab, b^2 of a cell's numerator.
MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def cell(x: RatFunc) -> str:
    """The source text of x as a table cell."""
    if x.is_const() and x.const_value().denominator == 1:
        return str(int(x.const_value()))
    for name, den in DENOMINATORS:
        num = x * den
        if not num.den.is_const():
            continue
        terms = num.num._terms()
        coeffs = [terms.get(m, 0) for m in MONOMIALS]
        if set(terms) <= set(MONOMIALS) and all(c.denominator == 1 for c in coeffs if c):
            return "(" + ", ".join([name] + [str(int(c)) for c in coeffs]) + ")"
    raise ValueError(f"{x} is not a table cell")


def row(xs) -> str:
    return "(" + ", ".join(cell(x) for x in xs) + ")"


@lru_cache(maxsize=1)
def eliminated_kernel() -> tuple:
    """The RREF kernel of jbar_matrix over Q(a, b), by elimination."""
    return tuple(row_space(nullspace(jbar_matrix(A, B), 24)))


def kernel_table() -> list:
    """Source lines of the kernel's pivots, free columns and free block."""
    rows = eliminated_kernel()
    pivots = tuple(next(c for c, x in enumerate(r) if x) for r in rows)
    free = tuple(c for c in range(24) if c not in pivots)
    return [
        f"_KERNEL_PIVOTS = {pivots}",
        f"_KERNEL_FREE = {free}",
        "_KERNEL_FREE_BLOCK = (",
        *(f"    {row(r[c] for c in free)}," for r in rows),
        ")",
    ]


def suite_table() -> list:
    """Source lines of the eight generator matrices."""
    suite = matrix_suite_by_elimination(A, B)
    return [
        "_SUITE_TABLE = {",
        *(f'    "{label}": ({", ".join(row(r) for r in M)}),' for label, M in suite.items()),
        "}",
    ]


def plane_table() -> list:
    """Source lines of the two plane representatives."""
    rows = []
    for labels, (meet,), scale in zip(RECOVERY_LABELS, generator_meets(eliminated_kernel()), (2 * B, 2 * A * B)):
        coords = dict(zip(labels, meet))
        rows.append(f"    {row(coords.get(label, RatFunc.const(0)) * scale for label in GENERATOR_LABELS)},")
    return ["_PLANE_TABLE = (", *rows, ")"]


def tables() -> list:
    """The source blocks: denominator names, kernel, suite and plane tables."""
    names, factors = zip(*NAMED_FACTORS)
    blocks = ([f"{', '.join(names)} = {', '.join(map(repr, factors))}"], kernel_table(), suite_table(), plane_table())
    return ["\n".join(lines) + "\n" for lines in blocks]


if __name__ == "__main__":
    print("\n".join(tables()), end="")
