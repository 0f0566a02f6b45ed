import random
from fractions import Fraction as Q

import pytest

from gsp4hodge.errors import InconsistentData, InvalidData
from gsp4hodge.hecke import (
    GAP_OFFSET,
    GAP_SLOPE,
    FrobeniusData,
    HeckeData,
    classicality_classify,
    hecke_charpoly,
    ideal_generators,
)
from gsp4hodge.phimodule import PhiModuleData, partial_sum_set
from oracles import admissible_refinements_by_meets


def rand_hecke(rng):
    l = rng.choice([2, 3, 5, 7])
    c0 = Q(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
    c1 = Q(rng.randint(-9, 9), rng.randint(1, 9))
    c2 = Q(rng.randint(-9, 9), rng.randint(1, 9))
    return HeckeData(l=l, c0=c0, c1=c1, c2=c2)


class TestCharpoly:
    def test_l2_reference(self):
        f = hecke_charpoly(HeckeData(l=2, c0=Q(1), c1=Q(0), c2=Q(0)))
        assert f.coeffs == (0, 10, 0, 64)
        assert f.sim == 8

    def test_constant_is_sim_squared(self):
        rng = random.Random(0)
        for _ in range(200):
            f = hecke_charpoly(rand_hecke(rng))
            assert f.coeffs[3] == f.sim**2
            assert f.coeffs[2 + 0] == f.sim * f.coeffs[0]  # linear = sim * cubic

    def test_c0_invertible_guard(self):
        with pytest.raises(InvalidData):
            HeckeData(l=2, c0=Q(0), c1=Q(1), c2=Q(1))

    def test_prime_guard(self):
        with pytest.raises(InvalidData):
            HeckeData(l=6, c0=Q(1), c1=Q(1), c2=Q(1))


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: FrobeniusData((0, 10, 0), Q(8)), "need exactly the four non-leading coefficients"),
        (lambda: ideal_generators(FrobeniusData((0, 10, 0, 64), Q(8)), 4), "l = 4 is not prime"),
        (lambda: classicality_classify([0, 9, 81, 729], [0, -2, -4, -6], 3, 10), "zero eigenvalue"),
    ),
    ids=("FrobeniusData-three-coefficients", "ideal_generators-composite-l", "classify-zero-alpha"),
)
def test_invalid_data_names_its_cause(call, message):
    with pytest.raises(InvalidData, match=f"^{message}$"):
        call()


class TestIdealGenerators:
    def test_round_trip_reference(self):
        f = hecke_charpoly(HeckeData(l=2, c0=Q(1), c1=Q(0), c2=Q(0)))
        d = ideal_generators(f, 2)
        assert (d.c0, d.c1, d.c2) == (1, 0, 0)

    def test_round_trip_random(self):
        rng = random.Random(1)
        for _ in range(1000):
            d = rand_hecke(rng)
            f = hecke_charpoly(d)
            back = ideal_generators(f, d.l)
            assert (back.c0, back.c1, back.c2) == (d.c0, d.c1, d.c2)
            assert hecke_charpoly(back) == f

    def test_sim_mismatch_raises(self):
        f = FrobeniusData(coeffs=(0, 10, 0, 63), sim=Q(8))
        with pytest.raises(InconsistentData):
            ideal_generators(f, 2)

    def test_linear_mismatch_raises(self):
        f = FrobeniusData(coeffs=(1, 10, 0, 64), sim=Q(8))
        with pytest.raises(InconsistentData):
            ideal_generators(f, 2)


class TestClassicality:
    def test_very_classical_instance(self):
        # gaps exceeding the bound with valuation spread within C = 1;
        # p = 2 keeps the huge pure powers cheap (shifts)
        C = Q(1)
        gap = GAP_SLOPE * 1 + GAP_OFFSET + 1
        half = gap // 2
        h = (gap + half, half, -half, -gap - half)
        alphas = tuple(Q(2 ** (-hi)) if hi < 0 else Q(1, 2**hi) for hi in h)
        report = classicality_classify(alphas, h, 2, C)
        assert report.bound_ok and report.gap_ok
        assert report.admissible == ("e",)
        assert report.very_classical

    def test_gap_equal_to_bound_fails(self):
        C = Q(1)
        bound = GAP_SLOPE * 1 + GAP_OFFSET
        h = (2 * bound, bound, 0, -bound)
        # h1-h2 = bound exactly: not strictly greater
        alphas = tuple(Q(1, 2**hi) if hi > 0 else Q(2 ** (-hi)) for hi in h)
        report = classicality_classify(alphas, h, 2, C)
        assert not report.gap_ok
        assert "<=" in report.gap_witness

    def test_full_sum_mismatch_empty_set(self):
        h = (3, 2, 1, 0)
        alphas = (Q(1), Q(9), Q(81), Q(729))
        report = classicality_classify(alphas, h, 3, Q(10))
        assert report.admissible == ()
        assert not report.very_classical

    def test_alternate_reading_flagged(self):
        # valuations differ per index, so the literal single-index reading
        # disagrees with the per-index reading
        h = (2, 1, -1, -2)
        alphas = (Q(3) ** -2 * 2, Q(3) ** -1 * 5, Q(3) * 7, Q(3) ** 2 * Q(35, 2))
        report = classicality_classify(alphas, h, 3, Q(1, 2))
        assert report.bound_ok
        assert report.alternate_reading_differs

    def test_agrees_with_refinement_scan(self):
        rng = random.Random(7)
        tested = 0
        while tested < 50:
            h1 = rng.randint(2, 8)
            h2 = rng.randint(-3, h1 - 1)
            h3 = rng.randint(h2 - 5, h2 - 1)
            h4 = h2 + h3 - h1
            if not (h1 > h2 > h3 > h4):
                continue
            p = rng.choice([2, 3, 5])
            e1, e2 = rng.randint(-5, 5), rng.randint(-5, 5)
            s = rng.randint(-3, 9)
            alphas = (
                Q(p) ** e1 * 7,
                Q(p) ** e2 * 5,
                Q(p) ** (s - e2) * 7 * 11,
                Q(p) ** (s - e1) * 5 * 11,
            )
            got = {w.word or "e" for w in partial_sum_set(p, alphas, (h1, h2, h3, h4))}
            d = PhiModuleData(p=p, alphas=alphas, weights=(h1, h2, h3, h4), a=Q(2), b=Q(3))
            brute = {w.word or "e" for w in admissible_refinements_by_meets(d)}
            assert got == brute
            tested += 1

    def test_input_guards(self):
        with pytest.raises(InvalidData):
            classicality_classify((1, 2, 3, 6), (3, 2, 1, 0), 4, 1)
        with pytest.raises(InvalidData):
            classicality_classify((1, 2, 3, 6), (0, 1, 2, 3), 3, 1)
        with pytest.raises(InvalidData):
            classicality_classify((1, 2, 3, 6), (3, 2, 1, 0), 3, 0)
