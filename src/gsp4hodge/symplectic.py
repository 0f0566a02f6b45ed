"""The symplectic space (E^4, J): group and Lie-algebra predicates,
subspace algebra and anisotropic flags.

Conventions, fixed package-wide: vectors are rows, matrices act on column
vectors, and the basis order is (e1, e2, e3, e4).  The alternating form is
r(x, y) = x J y^T for the fixed antidiagonal J below.
"""

from __future__ import annotations

from fractions import Fraction as Q

from ._value import Value
from .errors import InvalidData, NotSymplectic
from .linalg import (
    coerce_rows,
    intersect_row_spaces,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    nullspace,
    rank,
    row_space,
    trace,
    transpose,
)
from .scalars import Scalar, is_zero, require_type

#: The fixed alternating form.  J^2 = -I and J^T = -J.
J = [
    [Q(0), Q(0), Q(0), Q(1)],
    [Q(0), Q(0), Q(1), Q(0)],
    [Q(0), Q(-1), Q(0), Q(0)],
    [Q(-1), Q(0), Q(0), Q(0)],
]


def _square(M):
    """M lifted by coerce_rows, if it is 4 x 4; else InvalidData names its row lengths."""
    M = coerce_rows(M)
    if len(M) != 4 or any(len(r) != 4 for r in M):
        raise InvalidData(f"expected a 4 x 4 matrix, got rows of lengths {[len(r) for r in M]}")
    return M


def similitude(M) -> Scalar:
    """The scalar sim(M) with M^T J M = sim(M) J; raises NotSymplectic."""
    M = _square(M)
    lhs = mat_mul(mat_mul(transpose(M), J), M)
    c = lhs[0][3]
    if is_zero(c) or not mat_eq(lhs, mat_scale(J, c)):
        raise NotSymplectic("M^T J M is not a nonzero multiple of J")
    return c


def lie_membership(A) -> tuple[bool, Scalar]:
    """Whether A^T J + J A = (tr(A)/2) J; returns (flag, tr(A)/2)."""
    A = _square(A)
    f = trace(A) / 2
    lhs = mat_add(mat_mul(transpose(A), J), mat_mul(J, A))
    return mat_eq(lhs, mat_scale(J, f)), f


def adjoint(A):
    """The form-adjoint A* = J^{-1} A^T J (so r(Ax, y) = r(x, A*y))."""
    A = _square(A)
    # J^{-1} = -J
    return mat_scale(mat_mul(mat_mul(J, transpose(A)), J), -1)


def s_involution(A):
    """The twist A -> -A* + (tr A / 2) I; its fixed space is gsp4."""
    A = _square(A)
    f = trace(A) / 2
    shift = [[f if i == j else f * 0 for j in range(4)] for i in range(4)]
    return mat_add(mat_scale(adjoint(A), -1), shift)


# ---------------------------------------------------------------------------
# A fixed basis of gsp4: 3 torus elements and 8 root vectors.
# Order: H_a = diag(1,0,0,-1), H_b = diag(0,1,-1,0), H_c = diag(0,0,1,1),
# then X_a, X_{-a}, X_b, X_{-b}, X_{ab}, X_{-ab}, X_{aab}, X_{-aab}
# (short root a, long root b).
# ---------------------------------------------------------------------------


def gsp4_coordinates(A) -> list:
    """Coordinates of a gsp4 element in the fixed 11-dim basis.

    Raises InvalidData when A is not in gsp4.
    """
    ok, _ = lie_membership(A)
    if not ok:
        raise InvalidData("matrix is not in gsp4")
    A = coerce_rows(A)
    return [
        A[0][0],            # H_a
        A[1][1],            # H_b
        A[1][1] + A[2][2],  # H_c
        A[0][1],            # X_a   (paired with -A[2][3])
        A[1][0],            # X_-a
        A[1][2],            # X_b
        A[2][1],            # X_-b
        A[0][2],            # X_ab  (paired with A[1][3])
        A[2][0],            # X_-ab
        A[0][3],            # X_aab
        A[3][0],            # X_-aab
    ]


# ---------------------------------------------------------------------------
# Subspaces and flags
# ---------------------------------------------------------------------------


class Subspace(Value):
    """Row span inside E^ambient.  Subspace.span brings its vectors to
    canonical reduced-echelon form; Subspace(rows=...) keeps its rows as
    given.  Equality is structural, so it compares spans only between
    canonical rows.  The flags live in E^4, the kernel and the glue in E^24."""

    rows: tuple
    ambient: int = 4

    @staticmethod
    def span(vectors, ambient: int = 4) -> "Subspace":
        return Subspace(rows=tuple(row_space(vectors)), ambient=ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return rank([*self.rows, v]) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in require_type("other", other, (Subspace,)).rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        other = require_type("other", other, (Subspace,))
        rows = intersect_row_spaces(list(self.rows), list(other.rows), self.ambient)
        return Subspace(rows=tuple(rows), ambient=self.ambient)

    def perp(self) -> "Subspace":
        """Annihilator under the J-form: {y : x J y^T = 0 for all x here}."""
        UJ = mat_mul(coerce_rows(self.rows), J)
        return Subspace.span(nullspace(UJ, 4))


FLAG_DIMS = {"complete": (1, 2, 3), "siegel": (2,), "klingen": (1, 3)}


class Flag(Value):
    """Nested subspaces with the member dimensions dictated by the kind."""

    members: tuple
    kind: str

    def __post_init__(self):
        dims = FLAG_DIMS.get(self.kind)
        if dims is None:
            raise InvalidData(f"unknown flag kind {self.kind!r}")
        got = tuple(require_type(f"members[{i}]", m, (Subspace,)).dim for i, m in enumerate(self.members))
        if got != dims:
            raise InvalidData(f"{self.kind} flag needs member dims {dims}, got {got}")
        for small, big in zip(self.members, self.members[1:]):
            if not big.contains_subspace(small):
                raise InvalidData("flag members are not nested")


def flag_anisotropy_check(flag: Flag) -> bool:
    """True iff every member equals the perp of its dual-index member."""
    ms = require_type("flag", flag, (Flag,)).members
    return all(ms[i] == ms[len(ms) - 1 - i].perp() for i in range(len(ms)))
