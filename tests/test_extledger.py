import random
import re
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsp4hodge.errors import InvalidData, InvalidIndexSet, LedgerInconsistent
from gsp4hodge.extledger import (
    AddChar,
    Constituent,
    all_constituents,
    check_ledger,
    constituent_of,
    constituents,
    ell_map,
    hom_space,
    hom_space_dim,
    socle_constituents,
    socle_diagram,
)
from gsp4hodge.kernel import l_invariant_plane
from gsp4hodge.linalg import row_space
from gsp4hodge.phimodule import vanishing_factor
from gsp4hodge.scalars import RatFunc
from gsp4hodge.weyl import S1, S2, W_ALL, W_ID, check_involution, from_word
from oracles import ell_map_inverse, l_invariant_plane_by_meets, weyl_act_addchar


def span_of(chars):
    return row_space([c.coords() for c in chars])


def rand_qp_char(rng):
    def half():
        a, b, c = (Q(rng.randint(-5, 5)) for _ in range(3))
        return (a, b, c, b + c - a)

    return AddChar(shape="qp_to_t", val=half(), log=half())


class TestHomSpaces:
    def test_dimensions(self):
        expected = {
            "full_t": 6,
            "sm_t": 3,
            "gprime_t": 4,
            "P_gprime_t": 5,
            "Q_gprime_t": 5,
            "full_T": 6,
            "sm_T": 3,
            "gprime_T": 4,
            "P_gprime_T": 5,
            "Q_gprime_T": 5,
        }
        for kind, dim in expected.items():
            assert hom_space_dim(kind) == dim, kind

    def test_torus_constraint_guard(self):
        with pytest.raises(InvalidData):
            AddChar(shape="qp_to_t", val=(1, 0, 0, 0), log=(0, 0, 0, 0))

    def test_containments(self):
        sm = hom_space("sm_t")
        gp = hom_space("gprime_t")
        assert span_of(sm + gp) == span_of(gp)
        for X in ("P", "Q"):
            xg = hom_space(f"{X}_gprime_t")
            assert span_of(sm + xg) == span_of(xg)


class TestEllMap:
    def test_coordinate_formula(self):
        psi = AddChar(shape="qp_to_t", val=(0, 0, 0, 0), log=(1, 1, 0, 0))
        out = ell_map(psi)
        assert out.log == (1, 0, 0) and out.val == (0, 0, 0)

    def test_smooth_to_smooth(self):
        rng = random.Random(0)
        for _ in range(30):
            psi = rand_qp_char(rng)
            zeroed = AddChar(shape="qp_to_t", val=psi.val, log=(0, 0, 0, 0))
            assert ell_map(zeroed).is_smooth()

    def test_bijective(self):
        rng = random.Random(1)
        for _ in range(50):
            psi = rand_qp_char(rng)
            assert ell_map_inverse(ell_map(psi)) == psi

    def test_check_equivariance(self):
        rng = random.Random(2)
        for _ in range(20):
            psi = rand_qp_char(rng)
            for w in W_ALL:
                lhs = weyl_act_addchar(w, ell_map(psi))
                rhs = ell_map(weyl_act_addchar(check_involution(w), psi))
                assert lhs == rhs

    def test_image_spaces(self):
        # smooth -> smooth, twisted -> twisted, Siegel <-> Klingen
        pairs = [
            ("sm_t", "sm_T"),
            ("gprime_t", "gprime_T"),
            ("P_gprime_t", "Q_gprime_T"),
            ("Q_gprime_t", "P_gprime_T"),
        ]
        for src, dst in pairs:
            image = [ell_map(c) for c in hom_space(src)]
            assert span_of(image) == span_of(hom_space(dst)), (src, dst)


class TestConstituents:
    def test_exactly_eight(self):
        labels = [c.label for c in all_constituents()]
        assert len(labels) == 8 and len(set(labels)) == 8

    def test_excluded_sets(self):
        pairs = {frozenset(c.index_set) for c in constituents(2)}
        assert pairs == {
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({2, 4}),
            frozenset({3, 4}),
        }
        with pytest.raises(InvalidIndexSet):
            Constituent.C({1, 4}, 2)
        with pytest.raises(InvalidIndexSet):
            Constituent.C({2, 3}, 2)

    def test_constituent_of(self):
        assert constituent_of(S1, 2) == Constituent.C({1, 2}, 2)
        assert constituent_of(W_ID, 1) == Constituent.C({1}, 1)
        assert constituent_of(from_word("s1s2"), 1) == Constituent.C({3}, 1)

    def test_equality_classes(self):
        # C(w, s_i) = C(w', s_i) iff w (w')^{-1} is the other reflection
        for i, twin in ((1, S2), (2, S1)):
            for w in W_ALL:
                assert constituent_of(w, i) == constituent_of(twin * w, i)
        for w in W_ALL:
            assert constituent_of(w, 1) != constituent_of(w, 2)

    def test_socle_sets(self):
        assert [c.label for c in socle_constituents("P", {1, 2})] == [
            "C({1},s1)",
            "C({2},s1)",
            "C({1,2},s2)",
        ]
        assert [c.label for c in socle_constituents("Q", {1})] == [
            "C({1},s1)",
            "C({1,2},s2)",
            "C({1,3},s2)",
        ]
        for I in [p for p in combinations((1, 2, 3, 4), 2) if sum(p) != 5]:
            assert len(socle_constituents("P", I)) == 3
        for x in (1, 2, 3, 4):
            assert len(socle_constituents("Q", {x})) == 3


class TestFailureBranches:
    @pytest.mark.parametrize(
        "call, error, message",
        (
            (lambda: Constituent.C({1, 2}, 1), InvalidIndexSet, "|I| = 2 != i = 1"),
            (lambda: Constituent.C({6}, 1), InvalidIndexSet, "index set [6] out of range"),
            (lambda: constituents(3), InvalidIndexSet, "reflection index 3 out of range"),
            (lambda: constituent_of(W_ID, 3), InvalidIndexSet, "reflection index 3 out of range"),
            (lambda: socle_constituents("P", {1}), InvalidIndexSet, "bad Siegel index set [1]"),
            (lambda: socle_constituents("Q", {1, 2}), InvalidIndexSet, "bad Klingen index set [1, 2]"),
            (lambda: socle_constituents("X", {1}), InvalidData, "unknown parabolic side 'X'"),
            (lambda: socle_diagram("x"), InvalidData, "unknown socle diagram kind 'x'"),
            (lambda: check_ledger().entry("x"), KeyError, "'x'"),
            (lambda: AddChar("T_to_E", (1, 0), (0, 0, 0)), InvalidData, "T-characters need 3 + 3 coefficients"),
            (lambda: AddChar("x", (1, 0, 0), (0, 0, 0)), InvalidData, "unknown AddChar shape 'x'"),
            (lambda: hom_space("x"), InvalidData, "unknown hom-space kind 'x'"),
            (lambda: ell_map(AddChar("T_to_E", (1, 0, 0), (0, 0, 0))), InvalidData,
             "ell_map expects a qp_to_t character"),
        ),
        ids=("Constituent.C-size", "Constituent.C-range", "constituents", "constituent_of", "socle-Siegel",
             "socle-Klingen", "socle-side", "socle_diagram", "LedgerReport.entry", "AddChar-T-length",
             "AddChar-shape", "hom_space", "ell_map-T-character"),
    )
    def test_error_names_its_cause(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestSocleDiagrams:
    def test_ps1_identity(self):
        diag = socle_diagram("PS1", W_ID)
        assert diag.layer_labels() == [["pi_alg"], ["C({1},s1)", "C({1,2},s2)"]]

    def test_pi1(self):
        diag = socle_diagram("pi1")
        assert diag.layer_labels()[0] == ["pi_alg"]
        assert len(diag.layers[1]) == 8

    def test_pimin(self):
        diag = socle_diagram("pimin")
        assert len(diag.layers) == 3
        assert diag.layer_labels()[2] == ["pi_alg", "pi_alg"]


class TestLedger:
    def test_all_checks_pass(self):
        report = check_ledger()
        assert report.ok
        assert all(c.passed for c in report.checks)

    def test_named_dimensions(self):
        report = check_ledger()
        expected = {
            "deformations": 12,
            "deformations_triangular": 8,
            "deformations_parabolic": 9,
            "deformations_kernel0": 2,
            "deformations_derham": 5,
            "deformations_twisted_derham": 6,
            "ext_selfext": 4,
            "ext_selfext_lalg": 3,
            "ext_PS1": 6,
            "ext_pi1": 12,
            "ext_parabolic": 7,
            "ext_parabolic_gprime": 5,
            "L_invariant": 2,
            "deformations_U": 7,
            "deformations_U_triangular": 3,
            "ext_U_gprime": 1,
            "ext_U": 9,
        }
        for name, dim in expected.items():
            assert report.entry(name).dim == dim, name

    def test_report_dict(self):
        d = check_ledger().as_dict()
        assert d["ok"] and len(d["entries"]) == 17

    def test_derived_entries_follow_their_inputs(self, monkeypatch):
        # a wrong self-extension model moves the three entries derived from it,
        # and exactly the identities that read those four fail
        import gsp4hodge.extledger as extledger

        real = extledger.hom_space_dim
        monkeypatch.setattr(extledger, "hom_space_dim", lambda kind: 5 if kind == "gprime_T" else real(kind))
        message = "^ledger identities failed: hom-dim-gprime_T, ext-PS1, ext-pi1, ext-parabolic$"
        with pytest.raises(LedgerInconsistent, match=message) as info:
            check_ledger()
        report = info.value.report
        dims = {name: report.entry(name).dim for name in ("ext_selfext", "ext_PS1", "ext_pi1", "ext_parabolic")}
        assert dims == {"ext_selfext": 5, "ext_PS1": 7, "ext_pi1": 13, "ext_parabolic": 8}


class TestLInvariantPlane:
    def test_dimension_two(self):
        plane = l_invariant_plane(Q(2), Q(3))
        assert plane.dim == 2
        assert plane.kernel_dim == 17 and plane.glue_dim == 15
        assert (plane.a, plane.b) == (Q(2), Q(3))

    def test_distinct_parameters_distinct_planes(self):
        p1 = l_invariant_plane(Q(2), Q(3))
        p2 = l_invariant_plane(Q(1), Q(2))
        assert p1.basis_fg != p2.basis_fg

    def test_symbolic(self):
        A, B = RatFunc.var("a"), RatFunc.var("b")
        plane = l_invariant_plane(A, B)
        assert plane.dim == 2 and plane.a == A and plane.b == B

    def test_basis_normalization(self):
        # the plane table's two rows at the point, in the generator
        # coordinates f1..f4, g1..g4: the kernel's meets scaled by 2b and
        # 2ab, with no normalisation per point
        plane = l_invariant_plane(Q(2), Q(3))
        assert plane.basis_fg == (
            tuple(map(Q, (-5, -4, -11, 20, 18, -24, 6, 0))),
            tuple(map(Q, (1, 20, -11, -10, -30, 18, 0, 12))),
        )

    def test_basis_lives_on_expected_generators(self):
        plane = l_invariant_plane(Q(2), Q(3))
        k1, k2 = plane.basis_fg
        assert k1[7] == 0  # no g4 component in the first representative
        assert k2[6] == 0  # no g3 component in the second


def on_curves():
    """Nondegenerate points on ab - 2b^2 + a - b = 0 and ab + 2b^2 + a + b = 0,
    a = +-b(2b + 1)/(b + 1), where a row scaled by the first nonzero entry
    of its vector in E^24 had poles."""
    points = []
    for b in (Q(1), Q(2), Q(1, 2), Q(-1, 3), Q(3, 2), Q(-5, 2), Q(7)):
        for sign in (1, -1):
            a = sign * b * (2 * b + 1) / (b + 1)
            if vanishing_factor(a, b) is None:
                points.append((a, b))
    return points


def assert_matches_meets(plane, a, b):
    """plane's (a, b) and dimensions are the meet route's, and each of its
    rows is a nonzero multiple of that route's row: the meet route scales
    a row by the first nonzero entry of its vector in E^24."""
    want = l_invariant_plane_by_meets(a, b)
    assert (plane.a, plane.b, plane.kernel_dim, plane.glue_dim) == (want.a, want.b, want.kernel_dim, want.glue_dim)
    assert len(plane.basis_fg) == len(want.basis_fg) == 2
    for row, ref in zip(plane.basis_fg, want.basis_fg):
        factor = next(x / y for x, y in zip(row, ref) if y)
        assert factor and all(x == factor * y for x, y in zip(row, ref))


class TestPlaneRoutes:
    """l_invariant_plane evaluates the committed plane table; the meet
    route in tests/oracles.py eliminates.  They agree everywhere, as
    planes with the same (a, b)."""

    @given(
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
    )
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    def test_numeric(self, a, b):
        assume(vanishing_factor(a, b) is None)
        plane = l_invariant_plane(a, b)
        assert_matches_meets(plane, a, b)
        assert all(type(x) is Q for row in plane.basis_fg for x in row)

    @pytest.mark.parametrize("point", on_curves())
    def test_on_the_pole_curves(self, point):
        assert_matches_meets(l_invariant_plane(*point), *point)

    @pytest.mark.parametrize("shift", ((0, 1, 0), (3, 2, 5)))
    def test_symbolic(self, shift):
        c1, c2, c3 = (RatFunc.const(c) for c in shift)
        a, b = RatFunc.var("a") + c1, RatFunc.var("b") * c2 + c3
        plane = l_invariant_plane(a, b)
        assert_matches_meets(plane, a, b)
        assert (plane.a, plane.b) == (a, b)

    def test_degenerate_point_names_factor(self):
        with pytest.raises(InvalidData, match="factor b\\+1 vanishes"):
            l_invariant_plane(Q(2), Q(-1))

    def test_affine_point_takes_two_gcds(self, monkeypatch):
        # at (a + 3, 2b + 5) the cells take no gcd: only the two ratios that
        # read (a, b) off the rows cancel in Q(a, b)
        import gsp4hodge.scalars

        A, B = RatFunc.var("a"), RatFunc.var("b")
        gcds, real = [], gsp4hodge.scalars.poly_gcd
        monkeypatch.setattr(gsp4hodge.scalars, "poly_gcd", lambda p, q: gcds.append((p, q)) or real(p, q))
        plane = l_invariant_plane(A + 3, 2 * B + 5)
        assert sum(not (p.is_const() or q.is_const()) for p, q in gcds) <= 2
        assert (plane.a, plane.b) == (A + 3, 2 * B + 5)

    def test_takes_no_elimination(self, monkeypatch):
        """No null space, meet, rank, RREF or kernel recovery per point.
        The glue is one constant subspace, built before the patch."""
        import sys

        from gsp4hodge.kernel import glue_subspace

        glue_subspace()

        def refuse(*args, **kwargs):
            raise AssertionError("l_invariant_plane eliminated")

        modules = [m for name, m in sys.modules.items() if name.startswith("gsp4hodge")]
        for name in ("nullspace", "meet_coordinates", "rank", "rref", "recover_parameters"):
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        A, B = RatFunc.var("a"), RatFunc.var("b")
        assert (l_invariant_plane(Q(2), Q(3)).a, l_invariant_plane(A, B).b) == (Q(2), B)
