import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp4hodge.errors import InvalidData, ParseError
from gsp4hodge.phimodule import (
    NONDEG_FACTORS,
    PhiModuleData,
    _coordinate_meets,
    _filtration_prefixes,
    admissible_refinements,
    filtration_basis,
    general_position,
    hodge_parameters,
    phi_module_from_json,
    standard_filtration,
    validate,
    vanishing_factor,
    weak_admissibility,
)
from gsp4hodge.scalars import RatFunc
from gsp4hodge.symplectic import Subspace, flag_anisotropy_check
from gsp4hodge.weyl import S1, W_ID
from oracles import (
    admissible_refinements_by_meets,
    newton_hodge_shortcut,
    phi_module_to_json,
    siegel_plucker_minors,
)

GOOD = PhiModuleData(p=3, alphas=(Q(1), Q(9), Q(81), Q(729)), weights=(0, -2, -4, -6), a=Q(1), b=Q(1))
A = RatFunc.var("a")
B = RatFunc.var("b")
SYMBOLIC = PhiModuleData(p=3, alphas=GOOD.alphas, weights=GOOD.weights, a=A, b=B)


def rand_valid_ab(rng):
    while True:
        a = Q(rng.randint(-9, 9), rng.randint(1, 5))
        b = Q(rng.randint(-9, 9), rng.randint(1, 5))
        if a * b * (b + 1) * (a + b) * (a * b + a + b) != 0:
            return a, b


class TestValidate:
    def test_reference_instance_passes(self):
        report = validate(GOOD)
        assert report.ok, report.failures()

    def test_genericity_failure_witness(self):
        d = PhiModuleData(p=2, alphas=(Q(1), Q(2), Q(3), Q(6)), weights=(0, -1, -2, -3), a=Q(1), b=Q(1))
        report = validate(d)
        names = {c.name: c for c in report.checks}
        assert names["similitude-relation"].passed
        assert not names["genericity"].passed
        assert "2" in names["genericity"].witness

    def test_nondegeneracy_witness(self):
        d = PhiModuleData(p=3, alphas=GOOD.alphas, weights=GOOD.weights, a=Q(1), b=Q(-1))
        report = validate(d)
        bad = {c.name: c for c in report.checks}["nondegeneracy-polynomial"]
        assert not bad.passed and "b+1" in bad.witness

    def test_symbolic_passes(self):
        assert validate(SYMBOLIC).ok


class TestStandardFiltration:
    def test_member_spans(self):
        hf = standard_filtration(GOOD)
        a, b = Q(1), Q(1)
        assert hf.member(1) == Subspace.span([(a, Q(-1), Q(1), Q(-1))])
        assert hf.member(2).dim == 2 and hf.member(3).dim == 3
        for dim in (0, 4):
            with pytest.raises(InvalidData):
                hf.member(dim)
        assert hf.jumps == (0, 2, 4, 6)

    def test_anisotropy(self):
        for a, b in [(Q(1), Q(1)), (Q(2), Q(3)), (Q(-5), Q(7))]:
            d = PhiModuleData(p=3, alphas=GOOD.alphas, weights=GOOD.weights, a=a, b=b)
            hf = standard_filtration(d)
            assert flag_anisotropy_check(hf.flag)
            assert hf.member(1).perp() == hf.member(3)
            assert hf.member(2).perp() == hf.member(2)

    def test_symbolic_anisotropy(self):
        hf = standard_filtration(SYMBOLIC)
        assert flag_anisotropy_check(hf.flag)

    def test_rejects_invalid(self):
        bad = PhiModuleData(p=3, alphas=GOOD.alphas, weights=GOOD.weights, a=Q(0), b=Q(1))
        with pytest.raises(InvalidData):
            standard_filtration(bad)


class TestGeneralPosition:
    def test_generic_point(self):
        d = PhiModuleData(p=3, alphas=GOOD.alphas, weights=GOOD.weights, a=Q(2), b=Q(3))
        assert general_position(standard_filtration(d))

    def test_degenerate_point(self):
        from gsp4hodge.phimodule import _build_flag

        d = PhiModuleData(p=3, alphas=GOOD.alphas, weights=GOOD.weights, a=Q(1), b=Q(-1))
        hf = _build_flag(d)
        assert not general_position(hf)
        # b = -1 kills the (2,4)-minor, so F^2 meets the complementary
        # coordinate plane <e1, e3>: v2 = (-1, 0, -1, 0).
        from gsp4hodge.phimodule import coordinate_subspace

        assert hf.member(2).intersect(coordinate_subspace((1, 3))).dim == 1
        assert hf.member(2).intersect(coordinate_subspace((3, 4))).dim == 0

    def test_coordinate_meets(self):
        from gsp4hodge.phimodule import _coordinate_meets, _filtration_prefixes

        # dim(<e1, e3> ∩ F^j) for j = 0..4; at b = -1, v2 lies in <e1, e3>
        assert _coordinate_meets(_filtration_prefixes(Q(1), Q(-1)), (1, 3)) == (0, 0, 1, 1, 2)
        assert _coordinate_meets(_filtration_prefixes(Q(2), Q(3)), (1, 3)) == (0, 0, 0, 1, 2)

    @pytest.mark.parametrize("a, b", ((Q(2), Q(3)), (Q(1), Q(-1)), (Q(0), Q(2)), (A, B)),
                             ids=("2,3", "1,-1", "0,2", "symbolic"))
    def test_coordinate_meets_match_elimination(self, a, b):
        # both spanning sets, filtration prefixes and RREF flag members,
        # against Subspace.intersect with E_S spanned by unit vectors
        from gsp4hodge.phimodule import (
            _coordinate_meets,
            _filtration_prefixes,
            complete_flag,
            coordinate_subspace,
        )

        flag = complete_flag(a, b)
        units = [tuple(Q(int(i == j)) for j in range(4)) for i in range(4)]
        for size in (1, 2, 3, 4):
            for S in combinations((1, 2, 3, 4), size):
                ES = Subspace.span([units[i - 1] for i in S])
                assert coordinate_subspace(S[::-1]) == ES
                expect = (0,) + tuple(F.intersect(ES).dim for F in flag.members) + (size,)
                assert _coordinate_meets(_filtration_prefixes(a, b), S) == expect, S
                assert _coordinate_meets([F.rows for F in flag.members], S) == expect, S

    def test_symbolic_generic(self):
        assert general_position(standard_filtration(SYMBOLIC))

    def test_plucker_minors(self):
        minors = siegel_plucker_minors(SYMBOLIC)
        expect = [
            A * B + A + B,
            -(A + B),
            B,
            -B,
            B + 1,
            RatFunc.const(-1),
        ]
        assert minors == expect

    def test_equivalence_with_polynomial(self):
        # general position iff a*b*(b+1)*(a+b)*(ab+a+b) != 0, on random points
        from gsp4hodge.phimodule import _build_flag

        rng = random.Random(42)
        seen_bad = 0
        for _ in range(100):
            a = Q(rng.randint(-3, 3))
            b = Q(rng.randint(-3, 3))
            d = PhiModuleData(p=3, alphas=GOOD.alphas, weights=GOOD.weights, a=a, b=b)
            poly = a * b * (b + 1) * (a + b) * (a * b + a + b)
            assert general_position(_build_flag(d)) == (poly != 0)
            seen_bad += poly == 0
        assert seen_bad  # the sweep must exercise both branches


class TestWeakAdmissibility:
    def test_reference_true(self):
        assert weak_admissibility(GOOD)

    def test_increasing_weights_false(self):
        d = PhiModuleData(p=3, alphas=GOOD.alphas, weights=(3, 2, 1, 0), a=Q(1), b=Q(1))
        assert not weak_admissibility(d)

    def test_full_space_equality_clause(self):
        # sum val(alpha) = 12 and sum h = -12 for the reference instance
        vals = sum(0 + k * 2 for k in range(4))
        assert vals == 12 and sum(GOOD.weights) == -12

    def test_degenerate_ab_allowed(self):
        d = PhiModuleData(p=3, alphas=GOOD.alphas, weights=GOOD.weights, a=Q(1), b=Q(-1))
        weak_admissibility(d)  # must not raise

    def test_shortcut_agreement(self):
        rng = random.Random(99)
        agree = 0
        for _ in range(50):
            # random strictly-decreasing symmetric weights
            h1 = rng.randint(1, 6)
            h2 = rng.randint(-2, h1 - 1)
            h3 = rng.randint(h2 - 4, h2 - 1)
            h4 = h2 + h3 - h1
            if not (h1 > h2 > h3 > h4):
                continue
            e1, e2 = rng.randint(-4, 6), rng.randint(-4, 6)
            p = rng.choice([2, 3, 5])
            # eigenvalues with val pattern (e1, e2, s-e2, s-e1)
            s = rng.randint(-2, 10)
            alphas = (Q(p) ** e1 * 7, Q(p) ** e2 * 5, Q(p) ** (s - e2) * 7 * 11, Q(p) ** (s - e1) * 5 * 11)
            if alphas[0] * alphas[3] != alphas[1] * alphas[2]:
                continue
            a, b = rand_valid_ab(rng)
            d = PhiModuleData(p=p, alphas=alphas, weights=(h1, h2, h3, h4), a=a, b=b)
            assert weak_admissibility(d) == newton_hodge_shortcut(p, alphas, (h1, h2, h3, h4))
            agree += 1
        assert agree >= 20

    def test_w_invariance_under_compatible_permutation(self):
        # permuting (alpha, h) data by the same Weyl element fixes the verdict
        rng = random.Random(5)
        for _ in range(20):
            a, b = rand_valid_ab(rng)
            d = PhiModuleData(p=3, alphas=GOOD.alphas, weights=GOOD.weights, a=a, b=b)
            verdict = weak_admissibility(d)
            assert verdict == newton_hodge_shortcut(3, GOOD.alphas, GOOD.weights)


class TestAdmissibleRefinements:
    @pytest.fixture(autouse=True)
    def no_meets(self, monkeypatch):
        """Every case runs with the meet routines patched to raise: the
        refinement set takes no linear algebra."""
        import gsp4hodge.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("admissible_refinements ran a meet")

        for name in ("meet_coordinates", "nullspace"):
            monkeypatch.setattr(gsp4hodge.linalg, name, refuse)

    def test_reference_is_identity_only(self):
        # valuations exactly mirror the weights, so any permuted weight
        # prefix drops strictly below zero
        assert admissible_refinements(GOOD) == [W_ID]

    def test_big_gaps_isolate_identity(self):
        h = (60, 20, -20, -60)
        alphas = (Q(3) ** -60, Q(3) ** -20, Q(3) ** 20, Q(3) ** 60)
        d = PhiModuleData(p=3, alphas=alphas, weights=h, a=Q(2), b=Q(3))
        assert admissible_refinements(d) == [W_ID]

    def test_slack_admits_s1(self):
        # valuation slack absorbs the h2 - h3 swap that s1's check-twin asks for
        alphas = (Q(5, 3), Q(7), Q(11), Q(231, 5))
        d = PhiModuleData(p=3, alphas=alphas, weights=(2, 1, -1, -2), a=Q(2), b=Q(3))
        got = admissible_refinements(d)
        assert W_ID in got and S1 in got

    def test_inadmissible_gives_empty(self):
        d = PhiModuleData(p=3, alphas=GOOD.alphas, weights=(3, 2, 1, 0), a=Q(1), b=Q(1))
        assert admissible_refinements(d) == []


# One point on each nondegeneracy factor's zero set, in NONDEG_FACTORS order.
FACTOR_ZEROS = ((Q(0), Q(2)), (Q(2), Q(0)), (Q(2), Q(-1)), (Q(2), Q(-2)), (Q(-1, 2), Q(1)))
# The degenerate points of the integer grid [-3, 3]^2.
GRID_ZEROS = tuple(
    (Q(a), Q(b)) for a in range(-3, 4) for b in range(-3, 4) if a * b * (b + 1) * (a + b) * (a * b + a + b) == 0
)


class TestPrefixMeets:
    """Certificate that the refinement set needs no meets: the prefix meets
    dim(E_{1..i} ∩ F^j) are max(0, i + j - 4) at every (a, b)."""

    def test_triangular_in_e4_e3_e2(self):
        # Over Q(a, b), in the columns e4, e3, e2 the rows v1, v2, v3 are
        # upper triangular with the constant diagonal -1, -1, 1.  So
        # v1..vj project onto e_{i+1..4} with rank min(j, 4 - i) at every
        # (a, b), and F^j meets E_{1..i} in dimension j - min(j, 4 - i).
        v = filtration_basis(A, B)[:3]
        block = [[v[r][c] for c in (3, 2, 1)] for r in range(3)]
        assert [block[r][r] for r in range(3)] == [-1, -1, 1]
        assert all(block[r][c] == 0 for r in range(3) for c in range(r))

    @pytest.mark.parametrize("a, b, factor", ((A, B, None),) + tuple(
        (a, b, name) for (a, b), name in zip(FACTOR_ZEROS, NONDEG_FACTORS)
    ), ids=("symbolic",) + NONDEG_FACTORS)
    def test_prefix_meets(self, a, b, factor):
        assert vanishing_factor(a, b) == factor
        for i in (1, 2, 3, 4):
            expect = (0,) + tuple(max(0, i + j - 4) for j in (1, 2, 3)) + (i,)
            assert _coordinate_meets(_filtration_prefixes(a, b), range(1, i + 1)) == expect, i

    def test_matches_meet_route_at_degenerate_points(self):
        assert len(GRID_ZEROS) == 25
        sizes = set()

        # Units 7, 5, 77, 55 keep every eigenvalue ratio off {1, p, 1/p},
        # and the valuations (e1, e2, s - e2, s - e1) keep the similitude
        # relation; s = -(h2 + h3) balances the full sums, s + 1 does not.
        @settings(max_examples=25, derandomize=True, deadline=None, database=None)
        @given(
            p=st.sampled_from((2, 3, 5)),
            e1=st.integers(-4, 4),
            e2=st.integers(-4, 4),
            h1=st.integers(-3, 6),
            gaps=st.tuples(st.integers(1, 4), st.integers(1, 4)),
            shift=st.sampled_from((0, 0, 0, 1)),
        )
        def check(p, e1, e2, h1, gaps, shift):
            h2 = h1 - gaps[0]
            h3 = h2 - gaps[1]
            weights = (h1, h2, h3, h2 + h3 - h1)
            s = shift - h2 - h3
            alphas = (Q(p) ** e1 * 7, Q(p) ** e2 * 5, Q(p) ** (s - e2) * 77, Q(p) ** (s - e1) * 55)
            for a, b in GRID_ZEROS:
                d = PhiModuleData(p=p, alphas=alphas, weights=weights, a=a, b=b)
                got = admissible_refinements(d)
                assert got == admissible_refinements_by_meets(d), (a, b)
            sizes.add(len(got))

        check()
        assert 0 in sizes and max(sizes) >= 2  # empty sets and sets beyond the identity


class TestJsonRoundTrip:
    def test_numeric(self):
        doc = phi_module_to_json(GOOD)
        assert doc["alphas"] == ["1", "9", "81", "729"]
        assert phi_module_from_json(doc, False) == GOOD

    def test_symbolic(self):
        doc = phi_module_to_json(SYMBOLIC)
        assert doc["symbolic"] and doc["a"] == "a"
        assert phi_module_from_json(doc, True) == SYMBOLIC

    def test_bad_document(self):
        with pytest.raises(ParseError, match="^missing field 'alphas'$"):
            phi_module_from_json({"p": 3}, False)


class TestFourEntries:
    @pytest.mark.parametrize("field", ("alphas", "weights"))
    def test_three_entries_rejected_when_built(self, field):
        # the record holds the rule, so validate and the flag can index all four
        with pytest.raises(InvalidData, match="^alphas and weights need four entries each$"):
            PhiModuleData(**dict(GOOD._asdict(), **{field: getattr(GOOD, field)[:3]}))


class TestHodgeParameters:
    @pytest.mark.parametrize("doc", ({}, {"a": "2"}, {"b": "3"}, {"a": None, "b": "3"}, {"a": "2", "b": None}),
                             ids=("neither", "a-only", "b-only", "a-null", "b-null"))
    def test_missing_parameter(self, doc):
        # absent or null: an error over Q, the variable over Q(a, b)
        with pytest.raises(ParseError, match=r"needs Hodge parameters a and b \(or --symbolic\)"):
            hodge_parameters(doc, False)
        assert hodge_parameters(doc, True) == (
            A if doc.get("a") is None else RatFunc.const(2),
            B if doc.get("b") is None else RatFunc.const(3),
        )

    def test_none_string_is_not_missing(self):
        with pytest.raises(ParseError, match="non-integer literal None"):
            hodge_parameters({"a": "None", "b": "3"}, False)
