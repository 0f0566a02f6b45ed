import random
from fractions import Fraction as Q
from itertools import combinations
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gsp4hodge._polygcd
import gsp4hodge.kernel
from gsp4hodge.errors import DegreeCapExceeded, InvalidData, NotALine
from gsp4hodge.kernel import (
    GENERATOR_LABELS,
    eigenline_grid,
    embed_block,
    glue_generators,
    glue_subspace,
    jbar_matrix,
    jbar_rank,
    kernel_basis,
    l_invariant_plane,
    matrix_suite,
    nu_operator,
    recover_parameters,
    _KERNEL_CELLS,
    _KERNEL_FREE,
    _KERNEL_FREE_BLOCK,
    _KERNEL_PIVOTS,
    _PLANE_TABLE,
    _SUITE_TABLE,
    _affine_point,
    _cell_layout,
    _evaluation,
    _plan,
    _require_nondegenerate,
    _table_evaluator,
)
from gsp4hodge.linalg import (
    coerce_rows,
    inverse,
    mat_eq,
    mat_mul,
    nullspace,
    rank,
    row_space,
    transpose,
)
from gsp4hodge.phimodule import (
    NONDEG_FACTORS,
    coordinate_subspace,
    filtration_basis,
    nondeg_factors,
    vanishing_factor,
)
from gsp4hodge.scalars import Poly2, RatFunc, is_zero, parse_scalar, poly_divexact, poly_gcd, ring_pair
from gsp4hodge.symplectic import J as FORM, Subspace, gsp4_coordinates, lie_membership
from gsp4hodge.weyl import S1, S2, W_ALL, W_ID, from_word
from make_tables import tables
from oracles import (
    GENERATOR_DEF_BY_WORD,
    RECOVERY_LABELS,
    block_permutation,
    _nondeg_factor_values,
    _projected_line,
    det,
    generator_meets,
    generator_vector_by_word,
    hodge_borel_basis,
    matrix_suite_by_elimination,
    parameters_from_meets,
    phi,
    phi_s1,
    phi_s2,
    table_evaluator_by_field_ops,
)

A = RatFunc.var("a")
B = RatFunc.var("b")
ONE = RatFunc.const(1)
ZERO = RatFunc.const(0)


def rand_valid_ab(rng):
    while True:
        a = Q(rng.randint(-9, 9), rng.randint(1, 4))
        b = Q(rng.randint(-9, 9), rng.randint(1, 4))
        if a * b * (b + 1) * (a + b) * (a * b + a + b) != 0:
            return a, b


def unipotent_conjugator(grid, w):
    """The matrix n with n e_{w^{-1}(i)} = (i-th line of w); unipotent in
    the basis reordered by w^{-1} thanks to the line normalization."""
    inv = w.inv().perm
    cols = {}
    for i in (1, 2, 3, 4):
        cols[inv[i - 1] - 1] = grid.line(w, i)
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def nu_via_conjugation(grid, w, t):
    """A second route to nu_operator: conjugate a permuted diagonal by the
    unipotent change of basis.  The diagonal carries t_i at position
    w^{-1}(i), the slot whose eigenline receives eigenvalue t_i."""
    inv = w.inv().perm
    D = [[Q(0)] * 4 for _ in range(4)]
    for i in (1, 2, 3, 4):
        D[inv[i - 1] - 1][inv[i - 1] - 1] = t[i - 1]
    n = unipotent_conjugator(grid, w)
    return mat_mul(mat_mul(n, coerce_rows(D)), inverse(n))


def expected_suite():
    """The eight generator images in the filtration basis, symbolically."""
    a, b = A, B
    two = RatFunc.const(2)
    f1 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    f2 = [[1, 0, 0, 0], [0, 1, two / (b + 1), 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    q = a * b + a + b
    f3 = [
        [1, 0, two / q, two * (b + 1) / q],
        [0, 1, two * (a + 1) / q, two / q],
        [0, 0, -1, 0],
        [0, 0, 0, -1],
    ]
    s = a + b
    f4 = [
        [1, 0, two / s, two / s],
        [0, 1, two / s, two / s],
        [0, 0, -1, 0],
        [0, 0, 0, -1],
    ]
    g1 = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]
    g2 = [[1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, -1]]
    g3 = [
        [1, -(b + 1), -1, 0],
        [0, 0, 0, -1],
        [0, 0, 0, b + 1],
        [0, 0, 0, -1],
    ]
    g4 = [
        [1, b / a, 1 / a, two / a],
        [0, 0, 0, 1 / a],
        [0, 0, 0, -(b / a)],
        [0, 0, 0, -1],
    ]
    out = {}
    for name, M in (("f1", f1), ("f2", f2), ("f3", f3), ("f4", f4),
                    ("g1", g1), ("g2", g2), ("g3", g3), ("g4", g4)):
        out[name] = [[x if isinstance(x, RatFunc) else RatFunc.const(x) for x in row] for row in M]
    return out


class TestEigenlineGrid:
    def test_identity_lines(self):
        grid = eigenline_grid(Q(2), Q(3))
        assert grid.line(W_ID, 1) == (1, 0, 0, 0)
        # third line of the identity block is v2 normalized at e3... the
        # leading slot is e_3, so v2/(-1)
        b = Q(3)
        assert grid.line(W_ID, 3) == (-b, -(b + 1), 1, 0)
        assert Subspace.span([grid.line(W_ID, 3)]) == Subspace.span([(b, b + 1, Q(-1), Q(0))])

    def test_s1_third_line_is_v1_plus_v2(self):
        a, b = Q(2), Q(3)
        grid = eigenline_grid(a, b)
        v1 = (a, Q(-1), Q(1), Q(-1))
        v2 = (b, b + 1, Q(-1), Q(0))
        expect = Subspace.span([tuple(x + y for x, y in zip(v1, v2))])
        assert Subspace.span([grid.line(S1, 3)]) == expect

    def test_lines_decompose_space(self):
        grid = eigenline_grid(Q(2), Q(3))
        for w in W_ALL:
            vecs = [grid.line(w, i) for i in (1, 2, 3, 4)]
            assert rank(vecs) == 4

    def test_degenerate_raises_with_witness(self):
        # b = -1 is a degenerate point; every route through the eigenline
        # grid rejects it up front, naming the factor that vanishes.
        for route in (eigenline_grid, matrix_suite):
            with pytest.raises(InvalidData, match=r"^nondegeneracy-polynomial: factor b\+1 vanishes$"):
                route(Q(1), Q(-1))

    def test_symbolic_grid(self):
        grid = eigenline_grid(A, B)
        assert len(grid.lines) == 8

    @pytest.mark.parametrize("point", ("2,3", "-3/2,5/4", "tall", "symbolic"))
    def test_lines_match_elimination(self, point):
        # every line spans E_{w^{-1}{1..i}} ∩ F_H^{5-i}, eliminated by
        # Subspace.intersect, for each of the 8 Weyl elements
        points = {"2,3": (Q(2), Q(3)), "-3/2,5/4": (Q(-3, 2), Q(5, 4)), "symbolic": (A, B)}
        a, b = points[point] if point in points else seeded_points(1, True, seed=37)[0]
        grid = eigenline_grid(a, b)
        hodge = filtration_basis(a, b)
        assert len(grid.lines) == 8
        for w in W_ALL:
            inv = w.inv().perm
            for i in (1, 2, 3, 4):
                expect = coordinate_subspace(inv[:i]).intersect(Subspace.span(hodge[: 5 - i]))
                assert Subspace.span([grid.line(w, i)]) == expect, (w, i)


class TestNuOperator:
    def test_central_scalar(self):
        grid = eigenline_grid(Q(2), Q(3))
        for w in (W_ID, S1, from_word("s1s2")):
            M = nu_operator(grid, w, (Q(5), Q(5), Q(5), Q(5)))
            assert mat_eq(M, [[Q(5) if i == j else Q(0) for j in range(4)] for i in range(4)])

    def test_lie_membership_all_blocks(self):
        grid = eigenline_grid(Q(2), Q(3))
        rng = random.Random(0)
        for w in W_ALL:
            t1, t2, t3 = (Q(rng.randint(-4, 4)) for _ in range(3))
            t = (t1, t2, t3, t2 + t3 - t1)
            ok, _ = lie_membership(nu_operator(grid, w, t))
            assert ok

    def test_preserves_both_flags(self):
        from gsp4hodge.phimodule import PhiModuleData, standard_filtration

        a, b = Q(2), Q(3)
        grid = eigenline_grid(a, b)
        hf = standard_filtration(
            PhiModuleData(p=3, alphas=(Q(1), Q(9), Q(81), Q(729)), weights=(0, -2, -4, -6), a=a, b=b)
        )
        for w in W_ALL:
            M = nu_operator(grid, w, (Q(1), Q(2), Q(2), Q(3)))
            for i in (1, 2, 3):
                V = hf.member(i)
                img = [tuple(sum(M[r][c] * v[c] for c in range(4)) for r in range(4)) for v in V.rows]
                assert all(V.contains(x) for x in img)

    def test_torus_constraint_enforced(self):
        grid = eigenline_grid(Q(2), Q(3))
        with pytest.raises(InvalidData):
            nu_operator(grid, W_ID, (Q(1), Q(0), Q(0), Q(0)))

    def test_conjugation_route_agrees(self):
        grid = eigenline_grid(Q(2), Q(3))
        rng = random.Random(1)
        for w in W_ALL:
            t1, t2, t3 = (Q(rng.randint(-4, 4)) for _ in range(3))
            t = (t1, t2, t3, t2 + t3 - t1)
            assert mat_eq(nu_operator(grid, w, t), nu_via_conjugation(grid, w, t))

    def test_conjugator_unipotent_in_w_order(self):
        grid = eigenline_grid(Q(2), Q(3))
        for w in W_ALL:
            n = unipotent_conjugator(grid, w)
            # in the basis reordered by w^{-1}, n is upper unipotent
            P = w.inv().matrix()
            Pinv = w.matrix()
            conj = mat_mul(mat_mul(Pinv, n), P)
            for i in range(4):
                assert conj[i][i] == 1
                for j in range(i):
                    assert conj[i][j] == 0


class TestMatrixSuite:
    """The library evaluates the committed suite table; the oracle route
    eliminates the suite (grid -> nu_operator -> conjugation).  Both must
    give the closed forms."""

    ROUTES = (matrix_suite, matrix_suite_by_elimination)

    def test_symbolic_exact_match(self):
        want = expected_suite()
        for route in self.ROUTES:
            got = route(A, B)
            for name in GENERATOR_LABELS:
                assert mat_eq(got[name], want[name]), (route, name)
            assert all(type(x) is RatFunc for M in got.values() for row in M for x in row)

    def test_rational_point_match(self):
        a, b = Q(2), Q(3)
        want = expected_suite()
        for route in self.ROUTES:
            got = route(a, b)
            for name in GENERATOR_LABELS:
                evaluated = [[x.evaluate(a, b) for x in row] for row in want[name]]
                assert mat_eq(got[name], evaluated), (route, name)
            assert all(type(x) is Q for M in got.values() for row in M for x in row)

    def test_spot_entries(self):
        got = matrix_suite(A, B)
        assert got["f2"][1][2] == RatFunc.const(2) / (B + 1)
        assert got["g4"][0][1] == B / A
        q = RatFunc.const(2) / (A + B)
        for pos in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert got["f4"][pos[0]][pos[1]] == q


class TestJbar:
    def test_rank_seven_at_one_one(self):
        assert jbar_rank(Q(1), Q(1)) == 7

    def test_rank_and_kernel_random(self):
        rng = random.Random(7)
        for _ in range(10):
            a, b = rand_valid_ab(rng)
            assert jbar_rank(a, b) == 7
            assert kernel_basis(a, b).dim == 17

    def test_symbolic_rank_and_kernel(self):
        assert jbar_rank(A, B) == 7
        assert kernel_basis(A, B).dim == 17

    def test_block_injectivity(self):
        # every single 3-column block has rank 3
        M = jbar_matrix(Q(2), Q(3))
        for k in range(8):
            block = [[row[3 * k + j] for j in range(3)] for row in M]
            assert rank(block) == 3

    def test_image_is_hodge_borel(self):
        a, b = Q(2), Q(3)
        image = transpose(jbar_matrix(a, b))  # the columns, as rows
        borel = hodge_borel_basis(a, b)
        assert len(borel) == 7
        assert row_space(image) == row_space(list(borel))

    def test_generator_images_match_suite(self):
        a, b = Q(2), Q(3)
        grid = eigenline_grid(a, b)
        M = jbar_matrix(a, b)
        for label in GENERATOR_LABELS:
            vec = generator_vector_by_word(label)
            image = [sum(x * y for x, y in zip(row, vec)) for row in M]
            t, w = GENERATOR_DEF_BY_WORD[label]
            assert image == gsp4_coordinates(nu_operator(grid, w, t))


class TestGlue:
    def test_generator_count(self):
        assert len(glue_generators()) == 16

    def test_dimension_fifteen(self):
        assert glue_subspace().dim == 15

    def test_contained_in_kernel(self):
        rng = random.Random(3)
        for _ in range(5):
            a, b = rand_valid_ab(rng)
            M = jbar_matrix(a, b)
            for g in glue_subspace().rows:
                img = [sum(row[i] * g[i] for i in range(24)) for row in M]
                assert all(x == 0 for x in img)

    def test_quotient_dimension_two(self):
        a, b = Q(2), Q(3)
        K = kernel_basis(a, b)
        combined = rank(list(K.rows) + list(glue_subspace().rows))
        assert combined == 17
        assert K.dim - glue_subspace().dim == 2

    def test_central_differences_in_glue(self):
        glue = Subspace.span(list(glue_subspace().rows), ambient=24)
        center = (Q(1), Q(1), Q(1), Q(1))
        for w in W_ALL:
            for w2 in W_ALL:
                if w == w2:
                    continue
                diff = tuple(x - y for x, y in zip(embed_block(center, w), embed_block(center, w2)))
                assert glue.contains(diff)


class TestRecovery:
    def test_round_trip_2_3(self):
        assert recover_parameters(kernel_basis(Q(2), Q(3))) == (Q(2), Q(3))

    def test_round_trip_symbolic(self):
        a, b = recover_parameters(kernel_basis(A, B))
        assert a == A and b == B

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(25):
            a, b = rand_valid_ab(rng)
            assert recover_parameters(kernel_basis(a, b)) == (a, b)

    def test_distinct_parameters_distinct_kernels(self):
        rng = random.Random(13)
        seen = {}
        for _ in range(10):
            a, b = rand_valid_ab(rng)
            K = kernel_basis(a, b)
            key = K.rows
            assert key not in seen or seen[key] == (a, b)
            seen[key] = (a, b)
        assert len(seen) >= 9

    def test_corrupted_kernel_raises(self):
        # a kernel missing the informative directions: the glue alone
        with pytest.raises(NotALine, match="pivot columns"):
            recover_parameters(glue_subspace())

    def test_perturbed_cell_is_named(self):
        # a free cell away from the two read-off cells of column 13
        rows = [list(r) for r in kernel_basis(Q(2), Q(3)).rows]
        rows[3][19] += 1
        K = Subspace(rows=tuple(map(tuple, rows)), ambient=24)
        with pytest.raises(NotALine, match=r"cell \(3, 19\)$"):
            recover_parameters(K)

    def test_perturbed_q_cell_is_named(self):
        # cell (0, 11) is (2a + 2ab)/q, a Fraction compared in canonical form
        rows = [list(r) for r in kernel_basis(Q(2), Q(3)).rows]
        rows[0][11] += 1
        K = Subspace(rows=tuple(map(tuple, rows)), ambient=24)
        with pytest.raises(NotALine, match=r"cell \(0, 11\)$"):
            recover_parameters(K)

    def test_perturbed_symbolic_cell_is_named(self):
        # cell (1, 19) is over a*q, a RatFunc compared in canonical form
        rows = [list(r) for r in kernel_basis(*shifted(3, 2, 5)).rows]
        rows[1][19] += 1
        K = Subspace(rows=tuple(map(tuple, rows)), ambient=24)
        with pytest.raises(NotALine, match=r"cell \(1, 19\)$"):
            recover_parameters(K)

    def test_zero_read_off_cell(self):
        # cell (0, 13) is 1/a, so a zero there reads off no point
        rows = [list(r) for r in kernel_basis(Q(2), Q(3)).rows]
        rows[0][13] = Q(0)
        K = Subspace(rows=tuple(map(tuple, rows)), ambient=24)
        with pytest.raises(NotALine, match=r"cell \(0, 13\), which is 1/a, vanishes"):
            recover_parameters(K)

    def test_degenerate_table_names_factor(self):
        # the kernel table's denominators a, q and a*q are nonzero at (2, -1),
        # so the field-operation route evaluates it there, but the point read
        # off it is degenerate
        value = table_evaluator_by_field_ops(Q(2), Q(-1))
        rows = []
        for pivot, cells in zip(_KERNEL_PIVOTS, _KERNEL_FREE_BLOCK):
            row = [Q(0)] * 24
            row[pivot] = Q(1)
            for col, cell in zip(_KERNEL_FREE, cells):
                row[col] = value(cell)
            rows.append(tuple(row))
        K = Subspace(rows=tuple(rows), ambient=24)
        with pytest.raises(NotALine, match="factor b\\+1 vanishes"):
            recover_parameters(K)

    def test_entry_in_another_rows_pivot_column(self):
        # column 0 is row 0's pivot.  Row 3's free cells are untouched, so
        # only the form check stands between this span and a comparison of
        # free columns that would pass; rref subtracts row 0 from row 3.
        rows = [list(r) for r in kernel_basis(Q(2), Q(3)).rows]
        rows[3][0] = Q(1)
        K = Subspace(rows=tuple(map(tuple, rows)), ambient=24)
        with pytest.raises(NotALine, match=r"cell \(3, 11\)$"):
            recover_parameters(K)

    def test_row_length_is_checked(self):
        rows = kernel_basis(Q(2), Q(3)).rows
        K = Subspace(rows=rows[:2] + (rows[2] + (Q(0),),) + rows[3:], ambient=24)
        with pytest.raises(NotALine, match="kernel row 2 has 25 entries, not 24"):
            recover_parameters(K)

    def test_row_scaled_at_its_pivot_recovers(self, monkeypatch):
        rows = [list(r) for r in kernel_basis(Q(-3, 2), Q(5, 4)).rows]
        rows[4] = [3 * x for x in rows[4]]
        K = Subspace(rows=tuple(map(tuple, rows)), ambient=24)
        assert self.count_rrefs(monkeypatch, K) == ((Q(-3, 2), Q(5, 4)), 1)

    def test_duplicated_row_recovers(self):
        rows = kernel_basis(Q(-3, 2), Q(5, 4)).rows
        K = Subspace(rows=rows[:5] + rows[4:], ambient=24)
        assert recover_parameters(K) == (Q(-3, 2), Q(5, 4))

    @staticmethod
    def count_rrefs(monkeypatch, K):
        """recover_parameters(K) and the number of rref calls it made."""
        import gsp4hodge.kernel
        import gsp4hodge.linalg

        calls = []
        real = gsp4hodge.linalg.rref

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        for module in (gsp4hodge.kernel, gsp4hodge.linalg):
            monkeypatch.setattr(module, "rref", counted)
        return recover_parameters(K), len(calls)

    def test_table_rows_take_no_elimination(self, monkeypatch):
        # the rows kernel_basis kept are the table there: no elimination
        assert self.count_rrefs(monkeypatch, kernel_basis(Q(2), Q(3))) == ((Q(2), Q(3)), 0)

    def test_non_echelon_basis_takes_one_elimination(self, monkeypatch):
        rows = TestRecoveryFromAnyBasis.row_sums(kernel_basis(Q(2), Q(3)).rows)
        K = Subspace(rows=rows, ambient=24)
        assert self.count_rrefs(monkeypatch, K) == ((Q(2), Q(3)), 1)

    def test_one_evaluation_per_point(self, monkeypatch):
        # kernel, rank and recovery at one point evaluate the committed tables
        # once: recovery knows the rows kernel_basis built there and compares
        # no cell; jbar_rank reads its row count off the table.  A rebuilt
        # copy of those rows is another kernel, read off the kept point: its
        # free cells are compared with the kept rows, and nothing is
        # evaluated.  A copy of another point's kernel evaluates the tables
        # once, at the point read off it, which stays kept for kernel_basis
        # and matrix_suite there
        def copied(K):
            return Subspace(rows=tuple(tuple(Q(str(x)) for x in row) for row in K.rows), ambient=24)

        other = copied(kernel_basis(Q(-3, 2), Q(5, 4)))
        evaluations, real = [], gsp4hodge.kernel._table_evaluator
        monkeypatch.setattr(gsp4hodge.kernel, "_table_evaluator", lambda a, b: evaluations.append((a, b)) or real(a, b))
        K = kernel_basis(Q(2), Q(3))
        assert jbar_rank(Q(2), Q(3)) == 7
        assert recover_parameters(K) == (Q(2), Q(3))
        assert evaluations == [(Q(2), Q(3))]
        copy = copied(K)
        assert copy == K and copy.rows is not K.rows
        assert recover_parameters(copy) == (Q(2), Q(3))
        assert evaluations == [(Q(2), Q(3))]
        assert recover_parameters(other) == (Q(-3, 2), Q(5, 4))
        assert evaluations == [(Q(2), Q(3)), (Q(-3, 2), Q(5, 4))]
        assert kernel_basis(Q(-3, 2), Q(5, 4)) == other
        assert matrix_suite(Q(-3, 2), Q(5, 4)) == matrix_suite_by_elimination(Q(-3, 2), Q(5, 4))
        assert len(evaluations) == 2


class TestKeptEvaluation:
    """kernel._last keeps the tables evaluated at the last point."""

    def test_each_field_its_own(self):
        # 2 and Q(2) are one point of Q after coerce_rows; RatFunc.const(2)
        # is a point of Q(a, b) and never shares the entry with it
        for a, b, field in ((2, 3, Q), (Q(2), Q(3), Q), (RatFunc.const(2), RatFunc.const(3), RatFunc), (2, 3, Q)):
            K = kernel_basis(a, b)
            assert all(type(x) is field for row in K.rows for x in row)
            assert gsp4hodge.kernel._last[0] == (field, a, b)
            got = recover_parameters(K)
            assert got == (a, b) and all(type(x) is field for x in got)
        assert kernel_basis(Q(2), Q(3)) == kernel_basis(RatFunc.const(2), RatFunc.const(3))

    def test_points_in_turn(self):
        # A, B, A: each kernel and suite is its point's, and a kernel of a
        # point that is no longer kept still recovers, by the full check
        points = [(Q(2), Q(3)), (Q(-3, 2), Q(5, 4)), (Q(2), Q(3))]
        kernels = []
        for a, b in points:
            K = kernel_basis(a, b)
            assert K.rows == tuple(row_space(nullspace(jbar_matrix(a, b), 24)))
            assert matrix_suite(a, b) == matrix_suite_by_elimination(a, b)
            assert recover_parameters(K) == (a, b)
            kernels.append(K)
        assert recover_parameters(kernels[1]) == points[1]
        assert kernels[0] == kernels[2] and kernels[0].rows is not kernels[2].rows

    @pytest.mark.parametrize("point", ((Q(-7, 3), Q(11, 5)), (A + 7, 3 * B - 2)), ids=("Q", "Qab"))
    def test_plans_are_built_at_import(self, monkeypatch, point):
        # each table's plan was built with the tables: the kernel at a new
        # point, recovery of a rebuilt copy of its rows (which evaluates the
        # kernel again), the suite and the plane there plan nothing
        plans, real = [], gsp4hodge.kernel._plan
        monkeypatch.setattr(gsp4hodge.kernel, "_plan", lambda cells: plans.append(cells) or real(cells))
        gsp4hodge.kernel._last = None
        rows = kernel_basis(*point).rows
        gsp4hodge.kernel._last = None
        assert recover_parameters(Subspace(rows=tuple(map(tuple, rows)), ambient=24)) == point
        assert matrix_suite(*point) == matrix_suite_by_elimination(*point)
        plane = l_invariant_plane(*point)
        assert (plane.a, plane.b) == point
        assert not plans

    @pytest.mark.parametrize("call", (kernel_basis, matrix_suite, l_invariant_plane))
    def test_degenerate_point_keeps_the_entry(self, call):
        K = kernel_basis(Q(2), Q(3))
        entry = gsp4hodge.kernel._last
        kept = list(entry)
        for _ in range(2):
            with pytest.raises(InvalidData, match="factor b\\+1 vanishes"):
                call(Q(2), Q(-1))
            assert gsp4hodge.kernel._last is entry and entry == kept
        assert recover_parameters(K) == (Q(2), Q(3)) and kernel_basis(Q(2), Q(3)).rows is K.rows

    @pytest.mark.parametrize(
        "kept, other",
        (((Q(2), Q(3)), (Q(-3, 2), Q(5, 4))), ((A + 3, 2 * B + 5), (A + 1, B + 1))),
        ids=("Q", "Qab"),
    )
    def test_rank_elsewhere_keeps_the_entry(self, monkeypatch, kept, other):
        # jbar_rank at another point checks it and keeps nothing of it, so
        # the kept kernel still recovers off the entry, with no evaluation
        K = kernel_basis(*kept)
        entry = gsp4hodge.kernel._last
        assert jbar_rank(*other) == 7
        with pytest.raises(InvalidData, match="factor b\\+1 vanishes"):
            jbar_rank(kept[0], kept[0] * 0 - 1)
        assert gsp4hodge.kernel._last is entry

        def forbidden(a, b):
            raise AssertionError("recovery evaluated the tables again")

        monkeypatch.setattr(gsp4hodge.kernel, "_table_evaluator", forbidden)
        assert recover_parameters(K) == kept

    @pytest.mark.parametrize("symbolic", (False, True), ids=("Q", "Qab"))
    @pytest.mark.parametrize(
        "cell, change, witness",
        (
            ((3, 19), "+1", "kernel differs from the committed table at cell (3, 19)"),
            ((0, 11), "+1", "kernel differs from the committed table at cell (0, 11)"),
            ((0, 13), "+1", "kernel differs from the committed table at cell (0, 11)"),
            ((1, 13), "+1", "kernel differs from the committed table at cell (0, 11)"),
            ((0, 13), "0", "kernel cell (0, 13), which is 1/a, vanishes"),
            ((3, 0), "+1", "kernel differs from the committed table at cell (3, 11)"),
            ((5, 5), "*2", "kernel differs from the committed table at cell (5, 11)"),
            ((2, 12), "+1", "kernel differs from the committed table at cell (2, 13)"),
            # a free cell left of its row's own pivot: rref moves that pivot there
            ((12, 11), "+1", f"kernel has pivot columns {[*range(13), 15, 16, 18, 20]}, not those of the committed table"),
            ((16, 13), "+1", f"kernel has pivot columns {[*range(11), 12, 13, 14, 15, 16, 18]}, not those of the committed table"),
        ),
    )
    def test_changed_copy_gets_its_witness(self, symbolic, cell, change, witness):
        # the kept rows with one cell changed are another kernel, and get
        # the witness the full check gives it with no entry kept
        point = shifted(3, 2, 5) if symbolic else (Q(2), Q(3))
        rows = [list(row) for row in kernel_basis(*point).rows]
        r, c = cell
        rows[r][c] = {"+1": rows[r][c] + 1, "0": rows[r][c] * 0, "*2": rows[r][c] * 2}[change]
        K = Subspace(rows=tuple(map(tuple, rows)), ambient=24)
        with pytest.raises(NotALine) as kept:
            recover_parameters(K)
        gsp4hodge.kernel._last = None
        with pytest.raises(NotALine) as cleared:
            recover_parameters(K)
        assert str(kept.value) == str(cleared.value) == witness

    def test_rebuilt_copies_take_the_full_check(self):
        # the round trip's points again, each kernel rebuilt from its text as
        # a document would bring it: recovery compares every free cell
        rng = random.Random(11)
        points = [rand_valid_ab(rng) for _ in range(25)] + [
            shifted(Q(1, 2), 2, -1),
            ((A + 1) / (B + 2), A / (B - 1)),
            # the Weyl image phi_s1(a, b), where ad = bd = a, and a point of degree 4
            (1 / A, B / A),
            ((A + B + 1) ** 4, (B + 2 * A + 5) ** 4),
        ]
        for a, b in points:
            symbolic = isinstance(a, RatFunc)
            rows = kernel_basis(a, b).rows
            copy = Subspace(rows=tuple(tuple(parse_scalar(str(x), symbolic) for x in row) for row in rows), ambient=24)
            assert copy == kernel_basis(a, b) and copy.rows is not rows
            assert recover_parameters(copy) == (a, b)

    def test_repeat_reads_no_degree_cap(self, monkeypatch):
        point = ((A + 1) ** 3, B**3 + A)
        K, suite = kernel_basis(*point), matrix_suite(*point)
        monkeypatch.setenv("GSP4H_MAX_DEGREE", "2")
        assert kernel_basis(*point).rows is K.rows and matrix_suite(*point) == suite
        assert recover_parameters(K) == point
        gsp4hodge.kernel._last = None
        with pytest.raises(DegreeCapExceeded, match="GSP4H_MAX_DEGREE=2"):
            kernel_basis(*point)

    def test_threads_keep_their_own_points(self):
        # four threads replace the one entry under each other as often as a
        # short switch interval allows; each must still get its own point's
        # kernel, and recover its own point from it
        import sys
        import threading

        points = seeded_points(4, False, seed=47)
        want = {p: tuple(row_space(nullspace(jbar_matrix(*p), 24))) for p in points}
        wrong = []

        def work(p):
            for _ in range(150):
                K = kernel_basis(*p)
                if K.rows != want[p] or recover_parameters(K) != p:
                    wrong.append(p)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(p,)) for p in points]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong

    def test_kept_cells_refuse_edits(self):
        # every caller at the kept point shares its cells, so none may change
        # one: the RatFunc fields refuse assignment and deletion, and the next
        # kernel there is the one built
        point = shifted(3, 2, 5)
        K = kernel_basis(*point)
        text = [[str(x) for x in row] for row in K.rows]
        cell = K.rows[0][13]
        with pytest.raises(AttributeError):
            cell.num = Poly2.const(7)
        with pytest.raises(AttributeError):
            del cell.den
        again = kernel_basis(*point)
        assert again.rows is K.rows and again.rows[0][13] == 1 / point[0]
        assert [[str(x) for x in row] for row in again.rows] == text
        assert recover_parameters(again) == point
        gsp4hodge.kernel._last = None
        assert kernel_basis(*point) == K

    def test_kept_point_takes_no_polynomial_arithmetic(self, monkeypatch):
        # at the symbolic point just built, recovery reads the kept rows and
        # a repeat suite reads the kept values: no product, no gcd
        import gsp4hodge.scalars

        point = shifted(3, 2, 5)
        K, suite = kernel_basis(*point), matrix_suite(*point)

        def forbidden(*args):
            raise AssertionError("polynomial arithmetic at the kept point")

        monkeypatch.setattr(gsp4hodge.scalars, "_mul", forbidden)
        monkeypatch.setattr(gsp4hodge.scalars, "poly_gcd", forbidden)
        assert recover_parameters(K) == point
        assert matrix_suite(*point) == suite
        assert kernel_basis(*point).rows is K.rows


class TestWeylRelabeling:
    """Relabeling the refinement by w moves (a, b) to phi_w(a, b) and the
    blocks of E^24 by R_w, the block of u to that of u * w^-1:
    K(phi_w(a, b)) = R_w K(a, b)."""

    ORBIT_OF_2_3 = {
        (Q(2), Q(3)), (Q(1, 2), Q(3, 2)), (Q(-2), Q(-3, 4)), (Q(-1, 2), Q(3, 8)),
        (Q(-1, 2), Q(-3, 5)), (Q(-2), Q(6, 5)), (Q(1, 2), Q(-3, 11)), (Q(2), Q(-6, 11)),
    }

    def test_action_on_parameters(self):
        point = (Q(2), Q(3))
        assert {phi(w, point) for w in W_ALL} == self.ORBIT_OF_2_3
        for v in W_ALL:
            for w in W_ALL:
                assert phi(v * w, point) == phi(v, phi(w, point))

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(
        a=st.builds(Q, st.integers(-(2**40), 2**40), st.integers(1, 2**40)),
        b=st.builds(Q, st.integers(-(2**40), 2**40), st.integers(1, 2**40)),
    )
    def test_recovery_of_the_relabeled_kernel(self, a, b):
        # R_w K(a, b) is no kernel the entry built, for w = e a new tuple of
        # its rows, so recovery takes one rref and the full check
        assume(vanishing_factor(a, b) is None)
        rows = kernel_basis(a, b).rows
        for w in W_ALL:
            K = Subspace(rows=block_permutation(w, rows), ambient=24)
            with pytest.MonkeyPatch.context() as patch:
                assert TestRecovery.count_rrefs(patch, K) == (phi(w, (a, b)), 1)

    @pytest.mark.parametrize("point", ((Q(2), Q(3)), (A, B)), ids=("Q", "Qab"))
    def test_plane_of_the_relabeled_point(self, point):
        # the plane at phi_w(a, b) reads phi_w(a, b) back, and its cells are
        # the field route's, in type and canonical form; over Q(a, b) no
        # orbit point but (a, b) is affine, so the plane's cells there are
        # reduced by _cancel
        for w in W_ALL:
            image = phi(w, point)
            if type(point[0]) is RatFunc:
                ring = [x for pair in nondeg_factors(*image)[:2] for x in pair]
                assert _affine_point(*ring) == (w == W_ID)
            gsp4hodge.kernel._last = None
            plane = l_invariant_plane(*image)
            assert (plane.a, plane.b) == image
            value = table_evaluator_by_field_ops(*image)
            for got, cells in zip(plane.basis_fg, _PLANE_TABLE):
                for x, cell in zip(got, cells):
                    want = value(cell)
                    assert type(x) is type(want) and x == want, (w.word, cell)

    def test_convention(self):
        # s1s2 is no involution: R_w moves the block of u to u * w^-1, and
        # moving it to u * w instead relabels by w^-1
        w, point = from_word("s1s2"), (Q(2), Q(3))
        rows = kernel_basis(*point).rows
        assert phi(w, point) != phi(w.inv(), point)
        assert recover_parameters(Subspace(rows=block_permutation(w.inv(), rows), ambient=24)) == phi(w.inv(), point)


# ---------------------------------------------------------------------------
# The committed generic kernel
# ---------------------------------------------------------------------------

FACTORS = tuple(f.num for f in (A, B, B + 1, A + B, A * B + A + B))
TALL = 2**64


def is_factor_product(p: Poly2) -> bool:
    """Whether p is a nonzero constant times a product of the five
    nondegeneracy factors (each is irreducible)."""
    if p.is_zero():
        return False  # every factor divides 0
    for f in FACTORS:
        while not poly_gcd(p, f).is_const():
            p = poly_divexact(p, f)
    return p.is_const() and not p.is_zero()


def seeded_points(n, tall, seed):
    rng = random.Random(seed)
    hi, den_hi = (TALL, TALL) if tall else (9, 5)
    points = []
    while len(points) < n:
        a = Q(rng.randint(-hi, hi), rng.randint(1, den_hi))
        b = Q(rng.randint(-hi, hi), rng.randint(1, den_hi))
        if a * b * (b + 1) * (a + b) * (a * b + a + b) != 0:
            points.append((a, b))
    return points


#: Every distinct cell of the kernel, suite and plane tables.
TABLE_CELLS = tuple(
    dict.fromkeys(
        [c for row in _KERNEL_FREE_BLOCK for c in row]
        + [c for M in _SUITE_TABLE.values() for row in M for c in row]
        + [c for row in _PLANE_TABLE for c in row]
    )
)


#: The plan of TABLE_CELLS, evaluated as one table.
TABLE_PLAN = _plan(TABLE_CELLS)


def table_values(evaluate) -> dict:
    """Every cell of TABLE_CELLS by its value from a table evaluator."""
    return dict(zip(TABLE_CELLS, evaluate(TABLE_PLAN)))


def shifted(c1, c2, c3):
    return A + RatFunc.const(c1), B * RatFunc.const(c2) + RatFunc.const(c3)


@pytest.fixture(scope="module")
def generic():
    """jbar_matrix by elimination and the committed kernel, over Q(a, b)."""
    return jbar_matrix(A, B), kernel_basis(A, B).rows


class TestCertificate:
    """The committed kernel K is the RREF kernel of the jbar matrix J over
    Q(a, b), and evaluating it is exact at every nondegenerate point
    (a0, b0), over Q or Q(a, b):

    1. the eigenline grid exists wherever the five factors are nonzero, so
       jbar_matrix(a0, b0) is J evaluated at (a0, b0);
    2. every denominator of J and K is a product of the five factors, so
       both evaluate there;
    3. J K^T = 0, so K(a0, b0) lies in the kernel, and K is in RREF with 17
       pivots, so K(a0, b0) has rank 17;
    4. a 7 x 7 minor of J is 4q^2/((a+b)(b+1)), q = ab + a + b, nonzero
       there, so the rank is 7 and K(a0, b0) spans the kernel.

    The RREF is unique, so K(a0, b0) = row_space(nullspace(jbar_matrix(a0, b0))).
    The same kind of argument covers the committed suite and plane tables,
    the glue and the general position of the Hodge flag."""

    def test_grid_exists_off_the_factors(self):
        # The line F_w^i ∩ F_H^{5-i} exists, with a nonzero leading
        # coefficient, iff F_w^{i-1} and F_H^{5-i} span E^4.
        hodge = filtration_basis(A, B)
        for w in W_ALL:
            inv = w.inv().perm
            for i in (1, 2, 3, 4):
                coord = [[ONE if c == inv[k] - 1 else ZERO for c in range(4)] for k in range(i - 1)]
                minor = det(coord + [list(v) for v in hodge[: 5 - i]])
                assert minor.den.is_const() and is_factor_product(minor.num), (w, i)

    def test_denominators_are_factor_products(self, generic):
        J, K = generic
        for x in [x for row in J for x in row] + [x for row in K for x in row]:
            assert is_factor_product(x.den), x

    def test_kernel_is_annihilated(self, generic):
        J, K = generic
        for row in J:
            for k in K:
                assert sum((x * y for x, y in zip(row, k) if x and y), ZERO) == 0

    def test_rref_with_seventeen_pivots(self, generic):
        _, K = generic
        assert row_space(list(K)) == list(K)
        assert len(K) == 17

    def test_rank_seven_minor(self, generic):
        J, _ = generic
        minor = [[J[r][c] for c in (0, 1, 2, 3, 7, 9, 13)] for r in (0, 1, 2, 3, 4, 5, 7)]
        q = A * B + A + B
        assert det(minor) == RatFunc.const(4) * q * q / ((A + B) * (B + 1))

    def test_read_off_cells(self, generic):
        # recover_parameters reads a and b off these two cells
        _, K = generic
        assert K[0][13] == ONE / A
        assert K[1][13] == -(ONE + 2 * B) / A

    def test_projection_route(self, generic, monkeypatch):
        """The paper's route from the kernel to (a, b), over Q(a, b): it
        divides only by factor products, among them every pivot of the two
        7 x 7 meet systems and the divisors v and u2 of the projected
        lines, so it commutes with evaluation at every nondegenerate point,
        where it returns (a, b)."""
        _, K = generic
        divisors = []
        real = RatFunc.__truediv__

        def recorded(x, y):
            divisors.append(y)
            return real(x, y)

        monkeypatch.setattr(RatFunc, "__truediv__", recorded)
        meets = generator_meets(K)  # K is in RREF: only the meet systems divide
        assert [len(m) for m in meets] == [1, 1] and divisors
        assert parameters_from_meets(meets) == (A, B)
        _, v = _projected_line(meets[0], RECOVERY_LABELS[0], ("g2", "g3"))
        u2, _ = _projected_line(meets[1], RECOVERY_LABELS[1], ("g2", "g4"))
        for x in divisors + [v, u2]:
            assert is_factor_product(x.num) and is_factor_product(x.den), x

    def test_suite_table(self, monkeypatch):
        """Eliminating the suite over Q(a, b) divides only by factor
        products, so it commutes with evaluation at every nondegenerate
        point, and it equals the table over Q(a, b); the table evaluates
        at those points too (next test), so the two agree there."""
        divisors = []
        real = RatFunc.__truediv__

        def recorded(x, y):
            divisors.append(y)
            return real(x, y)

        monkeypatch.setattr(RatFunc, "__truediv__", recorded)
        eliminated = matrix_suite_by_elimination(A, B)
        monkeypatch.undo()
        assert divisors
        for x in divisors:
            assert is_factor_product(x.num) and is_factor_product(x.den), x
        table = matrix_suite(A, B)
        for label in GENERATOR_LABELS:
            assert mat_eq(eliminated[label], table[label]), label

    def test_table_denominators_are_factor_products(self):
        # a table denominator is written as the indices of its factors
        cells = [c for row in _KERNEL_FREE_BLOCK for c in row]
        cells += [c for M in _SUITE_TABLE.values() for row in M for c in row]
        cells += [c for row in _PLANE_TABLE for c in row]
        used = {c[0] for c in cells if isinstance(c, tuple)} - {()}
        assert used == {(0,), (4,), (0, 4), (2,), (3,)}
        factors = _nondeg_factor_values(A, B)
        for d in used:
            assert all(i in range(len(NONDEG_FACTORS)) for i in d), d
            den = prod((factors[i] for i in d), start=ONE)
            assert den.den.is_const() and is_factor_product(den.num), d

    def test_glue_in_every_kernel(self, generic):
        # J glue^T = 0 over Q(a, b), so the glue (dimension 15) lies in the
        # kernel (dimension 17) at every nondegenerate point: the quotient
        # has dimension 2 there
        J, _ = generic
        for g in glue_subspace().rows:
            for row in J:
                assert sum((x * y for x, y in zip(row, g) if x and y), ZERO) == 0

    @staticmethod
    def plane_rows():
        """The plane table over Q(a, b), one row per meet."""
        evaluate = _table_evaluator(A, B)
        return [evaluate(_plan(cells)) for cells in _PLANE_TABLE]

    def test_plane_rows_are_meet_multiples(self, generic):
        _, K = generic
        for labels, (meet,), row in zip(RECOVERY_LABELS, generator_meets(K), self.plane_rows()):
            coords = dict(zip(labels, meet))
            pairs = list(zip(row, (coords.get(label, ZERO) for label in GENERATOR_LABELS)))
            # x / m = y / n for every two coordinates
            assert any(row) and all(x * n == y * m for x, m in pairs for y, n in pairs)

    def test_plane_meets_are_lines(self, generic):
        """ann, 1 at each free column f and -K[r][f] at row r's pivot, spans
        the annihilator of K at every nondegenerate point, and so does its
        evaluation there, since its cells are the table's.  Each meet is
        the null space of ann times its seven generator vectors; the table
        row lies in it, and a 6 x 6 minor of the system is a constant times
        a factor product, so the meet is the line through the evaluated
        row at every nondegenerate point."""
        _, K = generic
        ann = []
        for f in _KERNEL_FREE:
            vec = [ZERO] * 24
            vec[f] = ONE
            for r, pivot in zip(K, _KERNEL_PIVOTS):
                vec[pivot] = -r[f]
            ann.append(vec)
        for labels, row in zip(RECOVERY_LABELS, self.plane_rows()):
            coords = [row[GENERATOR_LABELS.index(label)] for label in labels]
            gens = [generator_vector_by_word(label) for label in labels]
            system = [[sum((x * y for x, y in zip(v, g) if y), ZERO) for g in gens] for v in ann]
            assert all(sum((x * c for x, c in zip(eq, coords)), ZERO) == 0 for eq in system)
            minors = (
                det([[system[r][c] for c in cols] for r in rows])
                for rows in combinations(range(7), 6)
                for cols in combinations(range(7), 6)
            )
            assert any(is_factor_product(m.num) and is_factor_product(m.den) for m in minors if m), labels

    def test_plane_rows_independent_modulo_glue(self):
        """Reduced modulo the glue's RREF, the two rows' vectors in E^24
        have the 2 x 2 minor 4ab^2 at columns 19 and 22, a factor product.
        So at every nondegenerate point they are independent modulo the
        glue, and with it span the 17-dimensional kernel."""
        gens = [generator_vector_by_word(label) for label in GENERATOR_LABELS]
        glue = glue_subspace().rows
        reduced = []
        for row in self.plane_rows():
            vec = [sum((x * g[k] for x, g in zip(row, gens) if g[k]), ZERO) for k in range(24)]
            for g in glue:
                lead = vec[next(k for k, y in enumerate(g) if y)]
                vec = [x - lead * y for x, y in zip(vec, g)]
            reduced.append(vec)
        (u, v), (w, z) = [(vec[19], vec[22]) for vec in reduced]
        assert u * z - v * w == RatFunc.const(4) * A * B * B

    def test_plane_table_is_polynomial(self):
        """Every plane cell is an integer or has the empty denominator (),
        so the plane's rows are polynomials in (a, b), with no poles at
        all; over Q(a, b) every cell of basis_fg has denominator 1."""
        assert all(isinstance(c, int) or c[0] == () for row in _PLANE_TABLE for c in row)
        plane = l_invariant_plane(A, B)
        assert all(x.den == Poly2.const(1) for row in plane.basis_fg for x in row)

    def test_hodge_flag_in_general_position(self):
        """For each of the 42 pairs (E_S, F^j), |S| = 1..3 and j = 1..3,
        some maximal minor of [E_S; F^j] is a constant times a factor
        product.  So at every nondegenerate point E_S + F^j has dimension
        min(4, |S| + j): general_position holds, and _coordinate_meets(S)
        is max(0, |S| + j - 4)."""
        hodge = filtration_basis(A, B)
        for size in (1, 2, 3):
            for S in combinations((1, 2, 3, 4), size):
                units = [[ONE if c == i - 1 else ZERO for c in range(4)] for i in S]
                for j in (1, 2, 3):
                    M = units + [list(v) for v in hodge[:j]]
                    n = min(4, len(M))
                    minors = (
                        det([[M[r][c] for c in cols] for r in rows])
                        for rows in combinations(range(len(M)), n)
                        for cols in combinations(range(4), n)
                    )
                    assert any(m.den.is_const() and is_factor_product(m.num) for m in minors), (S, j)

    def test_standard_flag_is_anisotropic(self):
        """v_i J v_j^T = 0 whenever i + j <= 4, so F^i lies in (F^(4-i))^perp
        for i = 1, 2, 3, and a 3 x 3 minor of v1, v2, v3 is a nonzero
        constant, so F^i has dimension i at every (a, b).  J is
        nondegenerate, so (F^(4-i))^perp has dimension i too, and the two
        are equal: flag_anisotropy_check holds at every (a, b)."""
        hodge = filtration_basis(A, B)
        for i in (1, 2, 3):
            for j in range(1, 5 - i):
                row = [sum((x * c for x, c in zip(hodge[i - 1], column) if c), ZERO) for column in zip(*FORM)]
                assert sum((x * y for x, y in zip(row, hodge[j - 1])), ZERO) == 0, (i, j)
        minors = [det([[v[c] for c in cols] for v in hodge[:3]]) for cols in combinations(range(4), 3)]
        assert any(m and m.num.is_const() and m.den.is_const() for m in minors)

    # phi_s on (a, b) and on the five factors (a, b, b+1, a+b, q), q = ab + a + b
    RELABELINGS = (
        (S1, phi_s1, (ONE / A, B / A, (A + B) / A, (B + 1) / A, (A * B + A + B) / (A * A))),
        (S2, phi_s2, (-A, -B / (B + 1), ONE / (B + 1), -(A * B + A + B) / (B + 1), -(A + B) / (B + 1))),
    )

    def test_kernel_follows_the_relabeling(self):
        """K(phi_s(a, b)) = R_s K(a, b) over Q(a, b) for both generators.
        Both sides are actions of W, so this holds for every w."""
        K = kernel_basis(A, B).rows
        for s, phi_s, _ in self.RELABELINGS:
            relabeled = kernel_basis(*phi_s((A, B))).rows
            assert row_space(list(relabeled)) == row_space(list(block_permutation(s, K))), s

    def test_glue_is_relabeling_stable(self):
        glue = glue_subspace().rows
        for s, _, _ in self.RELABELINGS:
            assert row_space(list(block_permutation(s, glue))) == list(glue), s

    def test_degenerate_locus_is_stable(self):
        """Each factor at phi_s(a, b) is a unit times a product of the five
        factors: s1 swaps b+1 and a+b, s2 swaps a+b and q."""
        for s, phi_s, images in self.RELABELINGS:
            point = phi_s((A, B))
            factors = tuple(RatFunc(n, d) for n, d in nondeg_factors(*point))
            assert factors == images == _nondeg_factor_values(*point), s
            for f in factors:
                assert is_factor_product(f.num) and is_factor_product(f.den), (s, f)


def test_make_tables():
    # every committed table literal is the generator's output, verbatim
    source = Path(gsp4hodge.kernel.__file__).read_text(encoding="utf-8")
    for block in tables():
        assert block in source, block


class TestEvaluatedKernel:
    @pytest.mark.parametrize("tall", (False, True))
    def test_matches_elimination_over_q(self, tall):
        for a, b in seeded_points(8, tall, seed=29):
            rows = kernel_basis(a, b).rows
            assert rows == tuple(row_space(nullspace(jbar_matrix(a, b), 24)))
            assert all(type(x) is Q for r in rows for x in r)

    @pytest.mark.parametrize(
        "consts", ((0, 1, 0), (Q(1, 2), 2, -1), (-3, Q(-1, 3), 2))
    )
    def test_matches_elimination_over_qab(self, consts):
        a, b = shifted(*consts)
        rows = kernel_basis(a, b).rows
        assert rows == tuple(row_space(nullspace(jbar_matrix(a, b), 24)))
        assert all(type(x) is RatFunc for r in rows for x in r)

    @staticmethod
    def assert_evaluators_agree(a, b):
        # every cell of the three tables: the ring evaluator's value is the field
        # route's value, in the same type and canonical form
        value = table_values(_table_evaluator(a, b))
        oracle = table_evaluator_by_field_ops(a, b)
        for cell in TABLE_CELLS:
            want, got = oracle(cell), value[cell]
            assert type(got) is type(want) and got == want, cell

    @pytest.mark.parametrize(
        "point",
        seeded_points(4, False, seed=41)
        + seeded_points(4, True, seed=43)
        # negative table denominators: a, q and a + b at low and tall
        # height, then b + 1 and q
        + [(Q(-3, 2), Q(5, 4)), (Q(-TALL + 1, 3), Q(TALL - 5, TALL - 1)), (Q(5), Q(-7, 2))],
    )
    def test_ring_evaluator_matches_field_ops_over_q(self, point):
        self.assert_evaluators_agree(*point)

    @pytest.mark.parametrize(
        "point",
        [shifted(0, 1, 0), shifted(Q(1, 2), 2, -1), shifted(-3, Q(-1, 3), 2), shifted(3, 2, 5)]
        # denominators ad, bd != 1
        + [((A + 1) / (B + 2), A / (B - 1)), (1 / A, 1 / B), (A / (A + B + 1), (2 * B - 1) / (3 * A))]
        # the Weyl images (1/a, b/a) and (-a, -b/(b + 1)) of (a, b)
        + [(1 / A, B / A), (-A, -B / (B + 1))],
    )
    def test_ring_evaluator_matches_field_ops_over_qab(self, point):
        assert vanishing_factor(*point) is None
        self.assert_evaluators_agree(*point)

    @pytest.mark.parametrize(
        "point", [(Q(-7, 3), Q(5, 4)), (Q(-TALL - 1, 3), Q(TALL - 5, TALL - 1))], ids=("low", "tall")
    )
    def test_q_pass_calls_no_fraction_constructor(self, point):
        # each cell is built from its reduced pair by scalars._fraction and each
        # integer cell is built at import, so a fresh numeric kernel and its rank
        # never reach Fraction.__new__
        real, calls = Q.__dict__["__new__"], []

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return real.__func__(cls, *args, **kwargs)

        gsp4hodge.kernel._last = None
        Q.__new__ = counted
        try:
            kernel_basis(*point)
            jbar_rank(*point)
        finally:
            Q.__new__ = real
        assert calls == []

    @pytest.mark.parametrize(
        "points",
        ([(Q(2), Q(3)), (Q(-TALL - 1, 3), Q(5, 4))], [shifted(0, 1, 0), ((A + 1) / (B + 2), A / (B - 1))]),
        ids=("q", "qab"),
    )
    def test_integer_cells_are_shared_across_points(self, points):
        # an integer cell is its field's constant, built once at import
        first, second = (table_values(_table_evaluator(*p)) for p in points)
        integers = [c for c in TABLE_CELLS if isinstance(c, int)]
        assert integers and all(first[c] is second[c] == c for c in integers)

    @pytest.mark.parametrize(
        "point",
        (((A + 1) / (B + 2), A / (B - 1)), (1 / A, 1 / B), (-A, -B / (B + 1))),
        ids=("rational", "inverse", "s2"),
    )
    def test_pairs_share_no_power_of_ad_or_bd(self, monkeypatch, point):
        # a cell's pair carries only the powers of ad and bd that clear its
        # exponents, so at these points kernel_basis, recovery and
        # matrix_suite reduce every cell by a gcd of 1
        import gsp4hodge.scalars

        gcds, real = [], gsp4hodge.scalars.poly_gcd
        monkeypatch.setattr(gsp4hodge.scalars, "poly_gcd", lambda p, q: gcds.append(real(p, q)) or gcds[-1])
        gsp4hodge.kernel._last = None
        recover_parameters(kernel_basis(*point))
        matrix_suite(*point)
        assert len(gcds) > 20 and all(g == Poly2.const(1) for g in gcds)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.builds(Q, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
        b=st.builds(Q, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
    )
    def test_ring_evaluator_matches_field_ops_property(self, a, b):
        assume(vanishing_factor(a, b) is None)
        self.assert_evaluators_agree(a, b)

    @pytest.mark.parametrize("factor", NONDEG_FACTORS)
    def test_degenerate_points_raise(self, factor):
        numeric = {"a": (Q(0), Q(2)), "b": (Q(2), Q(0)), "b+1": (Q(2), Q(-1)),
                   "a+b": (Q(2), Q(-2)), "a*b+a+b": (Q(-1, 2), Q(1))}[factor]
        symbolic = {"a": (ZERO, B), "b": (A, ZERO), "b+1": (A, -ONE),
                    "a+b": (A, -A), "a*b+a+b": (-B / (B + 1), B)}[factor]
        for a, b in (numeric, symbolic):
            for fn in (kernel_basis, jbar_rank):
                with pytest.raises(InvalidData) as err:
                    fn(a, b)
                assert str(err.value) == f"nondegeneracy-polynomial: factor {factor} vanishes"


def _in_lowest_terms(num: Poly2, den: Poly2) -> bool:
    return gsp4hodge._polygcd._gcd(num._view, den._view) == {0: {0: 1}}


class TestAffinePoints:
    """At a point (a, b) -> (an, bn) that is an affine automorphism of
    Q[a, b], the table evaluator builds each cell as its canonical pair,
    without a gcd: the automorphism keeps every table cell in lowest terms,
    and each denominator is made monic once.  Every other point reduces
    its cells as before."""

    #: (a, b) and three points (a + c1, c2*b + c3) of the symbolic-generic kind.
    AFFINE = ((0, 1, 0), (Q(1, 2), 2, -1), (-3, Q(-1, 3), 2), (Q(2, 3), Q(-3, 2), Q(1, 3)))
    #: Points that are not affine automorphisms: singular linear maps, then
    #: a Weyl image and a rational-function point.
    NON_AFFINE = {
        "(a,a)": (A, A),
        "(a,2a)": (A, 2 * A),
        "(a+b,a+b)": (A + B, A + B),
        "phi_s1": (1 / A, B / A),
        "rational": ((A + 1) / (B + 2), A / (B - 1)),
    }

    #: Per non-affine point, the nonunit gcds and Poly2.leading_coeff calls of
    #: a kernel + recovery + suite op: one call per denominator layout and
    #: one per nonunit gcd, which poly_gcd makes monic.
    CANCELLING = {"phi_s1": (17, 26), "rational": (0, 9), "(a,a)": (21, 30)}

    @staticmethod
    def construction_counts(monkeypatch, point):
        """The distinct denominator layouts of the kernel and suite cells,
        recover_parameters(kernel_basis(point)), then a suite at point, and
        the lists of RatFunc.__init__ calls, Poly2.leading_coeff calls and
        poly_gcd results, which grow until monkeypatch.undo()."""
        suite = (c for M in _SUITE_TABLE.values() for row in M for c in row)
        layouts = {_cell_layout(c)[0] for c in (*_KERNEL_CELLS, *suite) if not isinstance(c, int)}
        inits, leads, gcds = [], [], []
        real_init, real_lead, real_gcd = RatFunc.__init__, Poly2.leading_coeff, gsp4hodge.scalars.poly_gcd
        gsp4hodge.kernel._last = None
        monkeypatch.setattr(gsp4hodge.scalars, "poly_gcd", lambda p, q: gcds.append(real_gcd(p, q)) or gcds[-1])
        monkeypatch.setattr(RatFunc, "__init__", lambda self, *args, **kw: inits.append(1) or real_init(self, *args, **kw))
        monkeypatch.setattr(Poly2, "leading_coeff", lambda self: leads.append(1) or real_lead(self))
        recovered = recover_parameters(kernel_basis(*point))
        matrix_suite(*point)
        return layouts, recovered, inits, leads, gcds

    def test_table_cells_are_in_lowest_terms(self):
        # the certificate the shortcut rests on: over Q[a, b] the numerator
        # and the factor product of every non-integer cell are coprime
        cells = [cell for cell in TABLE_CELLS if not isinstance(cell, int)]
        assert len(cells) == 43
        for den, *coeffs in cells:
            num = Poly2({m: Q(c) for m, c in zip(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)), coeffs)})
            assert _in_lowest_terms(num, prod((FACTORS[f] for f in den), start=Poly2.const(1))), (den, *coeffs)

    @pytest.mark.parametrize("consts", AFFINE, ids=("identity", "shift-1", "shift-2", "shift-3"))
    def test_affine_points_take_no_gcd(self, monkeypatch, consts):
        point = shifted(*consts)
        assert _affine_point(*(x for pair in nondeg_factors(*point)[:2] for x in pair))

        # each cell is built as its canonical pair: no gcd, no RatFunc.__init__,
        # and one leading coefficient per denominator layout, made monic once
        layouts, recovered, inits, leads, gcds = self.construction_counts(monkeypatch, point)
        assert not inits and len(leads) == len(layouts) == 9
        assert recovered == point
        # the plane's cells too; its read-off of (a, b) divides in the field
        cells = table_values(_evaluation(*point)[1])
        monkeypatch.undo()
        assert not gcds, "a gcd at an affine point"
        oracle = table_evaluator_by_field_ops(*point)
        assert all(type(x) is RatFunc and x == oracle(cell) for cell, x in cells.items())
        assert l_invariant_plane(*point).a == point[0]

    def test_affine_point_with_non_monic_denominators(self):
        # at (a + 2/3, -3b/2 + 1/3) q = ab + a + b and a*q lead with -3/2: the
        # evaluator's pairs are the canonical ones all the same
        point = shifted(Q(2, 3), Q(-3, 2), Q(1, 3))
        (an, _), *_, (qn, _) = nondeg_factors(*point)
        assert qn.leading_coeff() == (an * qn).leading_coeff() == Q(-3, 2)
        value, oracle = table_values(_table_evaluator(*point)), table_evaluator_by_field_ops(*point)
        for cell in TABLE_CELLS:
            x, y = value[cell], oracle(cell)
            assert (x.num, x.den, hash(x)) == (y.num, y.den, hash(y)), cell
            assert x.den.leading_coeff() == 1, cell

    def test_vanishing_cell_at_a_non_affine_point(self):
        # at (a, a/(a - 1)) kernel cell (0, 19), (ab - a - b)/(a*q), is zero
        point = (A, A / (A - 1))
        assert not _affine_point(*(x for pair in nondeg_factors(*point)[:2] for x in pair))
        gsp4hodge.kernel._last = None
        K = kernel_basis(*point)
        x = K.rows[0][19]
        assert x.num.is_zero() and x.den == Poly2.const(1) and x == ZERO and hash(x) == hash(ZERO)
        rows = tuple(tuple(parse_scalar(str(y), True) for y in row) for row in K.rows)
        gsp4hodge.kernel._last = None
        assert recover_parameters(Subspace(rows=rows, ambient=24)) == point

    def test_cells_sum_no_polynomials(self, monkeypatch):
        # a kernel + recovery + suite op sums Poly2s only for three factors in
        # nondeg_factors: each table cell numerator is an integer sum over the
        # terms of its monomials, not a linear_combination
        import gsp4hodge.scalars

        point = shifted(3, 2, 5)
        calls, real = [], gsp4hodge.scalars.linear_combination
        for module in (gsp4hodge.scalars, gsp4hodge.kernel):
            monkeypatch.setattr(module, "linear_combination", lambda terms: calls.append(1) or real(terms), raising=False)
        gsp4hodge.kernel._last = None
        assert recover_parameters(kernel_basis(*point)) == point
        matrix_suite(*point)
        monkeypatch.undo()
        assert len(calls) == 3

    @pytest.mark.parametrize("point, vanishing", (((A, A / (A - 1)), 3), ((A, A), 1)), ids=("(a,a/(a-1))", "(a,a)"))
    def test_vanishing_numerators_are_canonical(self, point, vanishing):
        # two kernel cells and a plane cell at (a, a/(a - 1)), and a plane cell
        # at (a, a), sum to 0: they are the canonical 0/1, and every cell is
        # the field route's in type, pair and hash
        value, oracle = table_values(_table_evaluator(*point)), table_evaluator_by_field_ops(*point)
        for cell in TABLE_CELLS:
            x, y = value[cell], oracle(cell)
            assert type(x) is type(y) is RatFunc, cell
            assert (x.num, x.den, hash(x)) == (y.num, y.den, hash(y)), cell
        zeros = [x for cell, x in value.items() if not isinstance(cell, int) and x.num.is_zero()]
        assert len(zeros) == vanishing and all(x.den == Poly2.const(1) for x in zeros)

    @pytest.mark.parametrize("name", CANCELLING)
    def test_other_points_build_no_ratfunc(self, monkeypatch, name):
        # each cell is cancelled once against its monic denominator and built
        # as the canonical pair that leaves: no RatFunc.__init__ there either
        point = self.NON_AFFINE[name]
        layouts, recovered, inits, leads, gcds = self.construction_counts(monkeypatch, point)
        monkeypatch.undo()
        nonunit, expected_leads = self.CANCELLING[name]
        assert recovered == point
        assert not inits and sum(not g.is_const() for g in gcds) == nonunit
        assert len(leads) == len(layouts) + nonunit == expected_leads

    @pytest.mark.parametrize("point", NON_AFFINE.values(), ids=NON_AFFINE.keys())
    def test_other_points_reduce_every_cell(self, monkeypatch, point):
        assert not _affine_point(*(x for pair in nondeg_factors(*point)[:2] for x in pair))
        pairs, real = [], gsp4hodge.scalars.poly_gcd
        monkeypatch.setattr(gsp4hodge.scalars, "poly_gcd", lambda p, q: pairs.append((p, q)) or real(p, q))
        cells = table_values(_table_evaluator(*point))
        monkeypatch.undo()
        assert any(not (p.is_const() or q.is_const()) for p, q in pairs)
        oracle = table_evaluator_by_field_ops(*point)
        for cell, x in cells.items():
            assert type(x) is RatFunc and x == oracle(cell), cell
            assert _in_lowest_terms(x.num, x.den), cell


#: Fractions of low and 2^64-tall height, and ones built over a negative
#: denominator.
_LOW = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))
_FRACTIONS = (
    _LOW
    | st.builds(Q, st.integers(-TALL, TALL), st.integers(1, TALL))
    | st.builds(Q, st.integers(-TALL, TALL), st.integers(-TALL, -1) | st.integers(-5, -1))
)
#: Elements of Q(a, b): generic shifts and quotients with nonconstant
#: denominators.
_RATFUNCS = st.one_of(
    st.builds(lambda c, s: A * s + c, _LOW, _LOW.filter(bool)),
    st.builds(lambda c, s: B * s + c, _LOW, _LOW.filter(bool)),
    st.sampled_from(((A + 1) / (B + 2), A / (B - 1), 1 / A, (2 * B - 1) / (3 * A), B / (A + B + 1))),
)
_SCALARS = _FRACTIONS | _RATFUNCS
#: Points where factor k vanishes, built from x; the zero of a constant
#: factor stays a Fraction, so those points are mixed when x is a RatFunc.
_ON_ZERO_SET = (
    lambda x: (Q(0), x),
    lambda x: (x, Q(0)),
    lambda x: (x, Q(-1)),
    lambda x: (x, -x),
    lambda x: (x, -x / (x + 1)),
)


class TestNondegFactors:
    """phimodule.nondeg_factors builds the five factors in the ring under the
    field; the oracle evaluates them by field operations."""

    @staticmethod
    def assert_matches_oracle(a, b):
        values = _nondeg_factor_values(a, b)
        pairs = nondeg_factors(a, b)
        assert len(pairs) == len(values) == len(NONDEG_FACTORS)
        for (n, d), v in zip(pairs, values):
            vn, vd = ring_pair(v)
            assert d and n * vd == vn * d, (a, b, v)
        zeros = [name for name, v in zip(NONDEG_FACTORS, values) if is_zero(v)]
        assert vanishing_factor(a, b) == (zeros[0] if zeros else None)

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(a=_FRACTIONS, b=_FRACTIONS)
    def test_fraction_points(self, a, b):
        self.assert_matches_oracle(a, b)
        assert all(type(x) is int for p in nondeg_factors(a, b) for x in p)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(a=_SCALARS, b=_SCALARS)
    def test_mixed_and_symbolic_points(self, a, b):
        self.assert_matches_oracle(a, b)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(c1=_LOW, c2=_LOW.filter(bool), c3=_LOW)
    def test_shifted_points(self, c1, c2, c3):
        self.assert_matches_oracle(*shifted(c1, c2, c3))

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(k=st.integers(0, 4), x=_SCALARS | st.just(A) | st.just(B))
    def test_zero_sets(self, k, x):
        assume(k != 4 or x + 1 != 0)
        a, b = _ON_ZERO_SET[k](x)
        assert not nondeg_factors(a, b)[k][0]
        self.assert_matches_oracle(a, b)

    def test_rank_after_kernel_builds_the_factors_once(self, monkeypatch):
        # jbar_rank at the point kernel_basis just kept reuses its evaluation
        import gsp4hodge.phimodule

        builds = []
        for module in (gsp4hodge.kernel, gsp4hodge.phimodule):
            real = module.nondeg_factors
            monkeypatch.setattr(module, "nondeg_factors", lambda a, b, real=real: builds.append((a, b)) or real(a, b))
        for point in ((Q(2), Q(3)), shifted(3, 2, 5)):
            builds.clear()
            kernel_basis(*point)
            assert jbar_rank(*point) == 7 and len(builds) == 1

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(k=st.integers(0, 4), x=_SCALARS | st.just(A) | st.just(B))
    def test_rank_rejects_as_the_check_does(self, k, x):
        # through the point's evaluation, a degenerate point gets the
        # message of the nondegeneracy check, byte for byte
        assume(k != 4 or x + 1 != 0)
        a, b = _ON_ZERO_SET[k](x)
        with pytest.raises(InvalidData) as check:
            _require_nondegenerate(a, b)
        with pytest.raises(InvalidData) as rank:
            jbar_rank(a, b)
        assert str(rank.value) == str(check.value) == f"nondegeneracy-polynomial: factor {vanishing_factor(a, b)} vanishes"

    def test_check_takes_no_gcd_and_no_field_operation(self, monkeypatch):
        # the check reads the factors off ring products and sums alone
        import gsp4hodge.scalars

        a, b = shifted(3, 2, 5)
        calls = []

        def recorded(name, real):
            return lambda *args: calls.append(name) or real(*args)

        monkeypatch.setattr(gsp4hodge.scalars, "poly_gcd", recorded("poly_gcd", poly_gcd))
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__"):
            monkeypatch.setattr(RatFunc, name, recorded(name, getattr(RatFunc, name)))
        assert vanishing_factor(a, b) is None
        assert jbar_rank(a, b) == 7
        assert calls == []


class TestNullspace:
    """nullspace returns a basis read off the RREF, built in the field of
    the rows."""

    @staticmethod
    def check(rows, field):
        ncols = len(rows[0])
        basis = nullspace(rows, ncols)
        assert len(basis) == ncols - rank(rows)
        assert rank(basis) == len(basis)
        assert all(type(x) is field for v in basis for x in v)
        products = mat_mul(coerce_rows(rows), transpose(basis))
        assert not any(x for row in products for x in row)

    def test_over_q(self):
        self.check([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 0, 0]], Q)
        for a, b in seeded_points(2, False, seed=41) + seeded_points(2, True, seed=41):
            self.check(jbar_matrix(a, b), Q)

    def test_over_qab(self, generic):
        J, _ = generic
        self.check(J, RatFunc)
        self.check([[A, 1, 0], [2 * A, 2, 0]], RatFunc)
        self.check([[ZERO, ZERO, ZERO]], RatFunc)


class TestRecoveryFromAnyBasis:
    """recover_parameters and the projection-line route both accept any
    spanning set of the kernel."""

    @staticmethod
    def row_sums(rows):
        """A non-echelon basis of the same span."""
        return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(rows, rows[1:])) + rows[-1:]

    @classmethod
    def check(cls, a, b):
        rows = cls.row_sums(kernel_basis(a, b).rows)
        assert recover_parameters(Subspace(rows=rows, ambient=24)) == (a, b)
        assert parameters_from_meets(generator_meets(rows)) == (a, b)

    def test_numeric(self):
        for a, b in seeded_points(4, False, seed=31) + seeded_points(4, True, seed=31):
            self.check(a, b)

    def test_symbolic(self):
        self.check(*shifted(Q(1, 2), 2, -1))
