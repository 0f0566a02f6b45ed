import random
import re
from fractions import Fraction as Q

import pytest

from gsp4hodge.errors import InvalidData, NotSymplectic
from gsp4hodge.linalg import (
    identity,
    mat_eq,
    mat_mul,
    mat_scale,
    rank,
    transpose,
)
from gsp4hodge.symplectic import (
    J,
    Flag,
    Subspace,
    adjoint,
    flag_anisotropy_check,
    gsp4_coordinates,
    lie_membership,
    s_involution,
    similitude,
)
from oracles import _E, det, gsp4_basis, mat_sub, symplectic_form

E = [tuple(Q(1) if j == i else Q(0) for j in range(4)) for i in range(4)]


def rand_mat(rng, span=5):
    return [[Q(rng.randint(-span, span)) for _ in range(4)] for _ in range(4)]


class TestShape:
    @pytest.mark.parametrize("call", (similitude, lie_membership, adjoint, s_involution), ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "M, lengths",
        (([], []), ([[1, 2], [3, 4]], [2, 2]), ([[1, 0, 0, 0]] * 3 + [[1, 0]], [4, 4, 4, 2])),
        ids=("empty", "two-by-two", "ragged"),
    )
    def test_not_four_by_four_is_invalid(self, call, M, lengths):
        # each once ended in a bare IndexError
        with pytest.raises(InvalidData, match=rf"^expected a 4 x 4 matrix, got rows of lengths {re.escape(str(lengths))}$"):
            call(M)


class TestJForm:
    def test_j_squared(self):
        assert mat_eq(mat_mul(J, J), mat_scale(identity(4), Q(-1)))

    def test_j_antisymmetric(self):
        assert mat_eq(transpose(J), mat_scale(J, Q(-1)))


class TestSimilitude:
    def test_identity(self):
        assert similitude(identity(4)) == 1

    def test_torus_element(self):
        a, b, c = Q(2), Q(3), Q(7)
        M = [[a, 0, 0, 0], [0, b, 0, 0], [0, 0, c / b, 0], [0, 0, 0, c / a]]
        assert similitude(M) == c

    def test_s2_generator(self):
        s2 = [[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]]
        assert similitude(s2) == 1

    def test_s1_generator(self):
        s1 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        assert similitude(s1) == 1

    def test_rejects_non_symplectic(self):
        M = identity(4)
        M[0][1] = Q(1)
        M[3][2] = Q(1)
        with pytest.raises(NotSymplectic):
            similitude(M)

    def test_sim_squared_is_det(self):
        # random B-elements: torus times positive unipotents
        rng = random.Random(2)
        for _ in range(50):
            M = _random_gsp4_element(rng)
            assert similitude(M) ** 2 == det(M)


def _exp_nilpotent(X, t):
    return [[(Q(1) if i == j else Q(0)) + t * X[i][j] for j in range(4)] for i in range(4)]


def _random_gsp4_element(rng):
    basis = gsp4_basis()
    roots = basis[3:]
    a, b, c = (Q(rng.randint(1, 5)) for _ in range(3))
    M = [[a, 0, 0, 0], [0, b, 0, 0], [0, 0, c / b, 0], [0, 0, 0, c / a]]
    for _ in range(3):
        X = roots[rng.randrange(len(roots))]
        M = mat_mul(M, _exp_nilpotent(X, Q(rng.randint(-3, 3))))
    return M


class TestLieMembership:
    def test_torus(self):
        D = [[Q(1), 0, 0, 0], [0, Q(2), 0, 0], [0, 0, Q(4), 0], [0, 0, 0, Q(5)]]
        ok, f = lie_membership(D)
        assert ok and f == 6  # t1 + t4

    def test_e12_alone_fails(self):
        # E12 by itself is not a root vector here; the anti-paired E34 term
        # is required.
        ok, _ = lie_membership(_E(0, 1))
        assert not ok
        ok, _ = lie_membership(mat_sub(_E(0, 1), _E(2, 3)))
        assert ok

    def test_sum_e21_e34(self):
        ok, _ = lie_membership([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        assert not ok  # E21 + E34 mixes a root vector with half of another

    def test_brute_force_elementaries(self):
        # oracle: direct definition A^T J + J A == (tr A/2) J on all E_ij
        from gsp4hodge.linalg import mat_add

        for i in range(4):
            for j in range(4):
                A = _E(i, j)
                lhs = mat_add(mat_mul(transpose(A), J), mat_mul(J, A))
                f = Q(1, 2) if i == j else Q(0)
                expect = mat_eq(lhs, mat_scale(J, f))
                got, _ = lie_membership(A)
                assert got == expect

    def test_basis_members(self):
        for M in gsp4_basis():
            ok, _ = lie_membership(M)
            assert ok


class TestSInvolution:
    def test_identity(self):
        assert mat_eq(s_involution(identity(4)), identity(4))

    def test_e11(self):
        got = s_involution(_E(0, 0))
        expect = [[Q(1, 2), 0, 0, 0], [0, Q(1, 2), 0, 0], [0, 0, Q(1, 2), 0], [0, 0, 0, Q(-1, 2)]]
        assert mat_eq(got, [[Q(x) for x in row] for row in expect])

    def test_involution_on_random(self):
        rng = random.Random(3)
        for _ in range(100):
            A = rand_mat(rng)
            assert mat_eq(s_involution(s_involution(A)), A)

    def test_fixed_space_dim_11(self):
        # rank of (1 - s)/2 on the 16-dim matrix space is 5
        cols = []
        for i in range(4):
            for j in range(4):
                A = _E(i, j)
                D = mat_scale(mat_sub(A, s_involution(A)), Q(1, 2))
                cols.append([D[r][c] for r in range(4) for c in range(4)])
        assert rank(cols) == 5

    def test_projection_image_is_gsp4(self):
        # (1+s)/2 is idempotent with image exactly gsp4
        from gsp4hodge.linalg import mat_add

        rng = random.Random(4)
        span_rows = []
        for _ in range(40):
            A = rand_mat(rng)
            P = mat_scale(mat_add(A, s_involution(A)), Q(1, 2))
            assert lie_membership(P)[0]
            assert mat_eq(mat_scale(mat_add(P, s_involution(P)), Q(1, 2)), P)
            span_rows.append([P[r][c] for r in range(4) for c in range(4)])
        assert rank(span_rows) == 11

    def test_adjoint_antihomomorphism(self):
        rng = random.Random(5)
        for _ in range(200):
            A, B = rand_mat(rng), rand_mat(rng)
            assert mat_eq(adjoint(mat_mul(A, B)), mat_mul(adjoint(B), adjoint(A)))

    def test_adjoint_defines_form_transpose(self):
        rng = random.Random(6)
        for _ in range(50):
            A = rand_mat(rng)
            x = tuple(Q(rng.randint(-4, 4)) for _ in range(4))
            y = tuple(Q(rng.randint(-4, 4)) for _ in range(4))
            Ax = tuple(sum(A[i][j] * x[j] for j in range(4)) for i in range(4))
            Asty = tuple(sum(adjoint(A)[i][j] * y[j] for j in range(4)) for i in range(4))
            assert symplectic_form(Ax, y) == symplectic_form(x, Asty)


class TestCriterion7ByLinearity:
    """Criterion 7 for every M over any field, not a sample.  s_involution
    and adjoint are linear in A, and so is the projection
    P(A) = (A + s(A))/2.  So s(s(A)) = A, P(A) in gsp4 (a linear condition)
    and P(P(A)) = P(A) hold for all A once they hold on the 16 elementary
    matrices E_ij, and adjoint(MN) = adjoint(N) adjoint(M), bilinear in
    (M, N), holds once it holds on the 256 pairs (E_ij, E_kl)."""

    UNITS = [_E(i, j) for i in range(4) for j in range(4)]

    @staticmethod
    def project(A):
        return [[(x + y) / 2 for x, y in zip(r, s)] for r, s in zip(A, s_involution(A))]

    def test_involution(self):
        assert all(mat_eq(s_involution(s_involution(E)), E) for E in self.UNITS)

    def test_projection_lies_in_gsp4_and_is_idempotent(self):
        for E in self.UNITS:
            P = self.project(E)
            assert lie_membership(P)[0] and mat_eq(self.project(P), P)

    def test_adjoint_reverses_products(self):
        for E in self.UNITS:
            for F in self.UNITS:
                assert mat_eq(adjoint(mat_mul(E, F)), mat_mul(adjoint(F), adjoint(E)))


class TestSubspaces:
    def test_perp_of_e1(self):
        got = Subspace.span([E[0]]).perp()
        assert got == Subspace.span([E[0], E[1], E[2]])

    def test_perp_of_zero_and_whole(self):
        zero, whole = Subspace.span([]), Subspace.span(E)
        assert zero.perp() == whole and whole.perp() == zero

    def test_siegel_self_perp(self):
        U = Subspace.span([E[0], E[1]])
        assert U.perp() == U

    def test_intersection_with_hodge_f3(self):
        a, b = Q(5), Q(3)
        v1 = (a, Q(-1), Q(1), Q(-1))
        v2 = (b, b + 1, Q(-1), Q(0))
        v3 = (Q(1), Q(1), Q(0), Q(0))
        F3 = Subspace.span([v1, v2, v3])
        got = Subspace.span([E[0], E[1]]).intersect(F3)
        assert got == Subspace.span([v3])

    def test_dimension_formula(self):
        rng = random.Random(7)
        for _ in range(60):
            U = Subspace.span([tuple(Q(rng.randint(-3, 3)) for _ in range(4)) for _ in range(rng.randint(1, 3))])
            V = Subspace.span([tuple(Q(rng.randint(-3, 3)) for _ in range(4)) for _ in range(rng.randint(1, 3))])
            assert U.intersect(V).dim + Subspace.span(U.rows + V.rows).dim == U.dim + V.dim
            assert U.perp().perp() == U
            assert U.perp().dim == 4 - U.dim

    def test_dispatcher(self):
        U = Subspace.span([E[0]])
        assert U.perp().dim == 3
        assert U.contains(E[0])


class TestFlags:
    def test_standard_complete_flag_anisotropic(self):
        F = Flag(
            members=(
                Subspace.span([E[0]]),
                Subspace.span([E[0], E[1]]),
                Subspace.span([E[0], E[1], E[2]]),
            ),
            kind="complete",
        )
        assert flag_anisotropy_check(F)

    def test_e1_e3_siegel_flag(self):
        # r(e1, e3) = 0, so <e1, e3> is its own perp and the flag passes.
        assert symplectic_form(E[0], E[2]) == 0
        assert symplectic_form(E[0], E[3]) == 1
        F = Flag(members=(Subspace.span([E[0], E[2]]),), kind="siegel")
        assert flag_anisotropy_check(F)

    def test_non_anisotropic_siegel(self):
        F = Flag(members=(Subspace.span([E[0], E[3]]),), kind="siegel")
        assert not flag_anisotropy_check(F)

    def test_stabilizers(self):
        # upper-triangular group elements stabilize the standard complete
        # flag; adding the opposite short (resp. long) root generator keeps
        # the Siegel (resp. Klingen) members stable.
        rng = random.Random(8)
        basis = gsp4_basis()
        X_a, X_ma, X_b, X_mb, X_ab, X_aab = basis[3], basis[4], basis[5], basis[6], basis[7], basis[9]
        members = {
            "complete": [Subspace.span([E[0]]), Subspace.span([E[0], E[1]]), Subspace.span([E[0], E[1], E[2]])],
            "siegel": [Subspace.span([E[0], E[1]])],
            "klingen": [Subspace.span([E[0]]), Subspace.span([E[0], E[1], E[2]])],
        }
        gens = {
            "complete": [X_a, X_b, X_ab, X_aab],
            "siegel": [X_a, X_b, X_ab, X_aab, X_ma],
            "klingen": [X_a, X_b, X_ab, X_aab, X_mb],
        }
        for kind, flag_members in members.items():
            for _ in range(25):
                M = _random_word_element(rng, gens[kind])
                similitude(M)  # must be in the group
                for V in flag_members:
                    image = Subspace.span([tuple(sum(M[i][j] * v[j] for j in range(4)) for i in range(4)) for v in V.rows])
                    assert image == V


def _random_word_element(rng, root_gens):
    a, b, c = (Q(rng.choice([1, 2, 3, -1])) for _ in range(3))
    c = abs(c) + 3
    M = [[a, 0, 0, 0], [0, b, 0, 0], [0, 0, c / b, 0], [0, 0, 0, c / a]]
    M = [[Q(x) for x in row] for row in M]
    for _ in range(4):
        X = root_gens[rng.randrange(len(root_gens))]
        M = mat_mul(M, _exp_nilpotent(X, Q(rng.randint(-2, 2))))
    return M


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: Flag(members=(Subspace.span([E[0], E[1]]),), kind="klingen"),
         "klingen flag needs member dims (1, 3), got (2,)"),
        (lambda: Flag(members=(Subspace.span([E[0]]), Subspace.span([E[1], E[2]]), Subspace.span(E[1:])),
                      kind="complete"), "flag members are not nested"),
        (lambda: gsp4_coordinates([[1, 0, 0, 0]] + [[0] * 4] * 3), "matrix is not in gsp4"),
    ),
    ids=("Flag-dims", "Flag-not-nested", "gsp4_coordinates-off-gsp4"),
)
def test_invalid_data_names_its_cause(call, message):
    with pytest.raises(InvalidData, match=f"^{re.escape(message)}$"):
        call()


class TestGsp4Coordinates:
    def test_round_trip(self):
        from gsp4hodge.linalg import mat_add

        rng = random.Random(9)
        basis = gsp4_basis()
        for _ in range(40):
            coeffs = [Q(rng.randint(-4, 4)) for _ in range(11)]
            M = [[Q(0)] * 4 for _ in range(4)]
            for c, G in zip(coeffs, basis):
                M = mat_add(M, mat_scale(G, c))
            assert gsp4_coordinates(M) == coeffs
