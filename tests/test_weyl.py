import random
from fractions import Fraction as Q

import pytest

from gsp4hodge.errors import ConstraintViolated, InvalidData, ParseError
from gsp4hodge.weyl import (
    ALPHA,
    ALPHA_CHECK,
    BETA,
    BETA_CHECK,
    S0,
    S1,
    S2,
    SIM,
    W_ALL,
    W_ID,
    CocharTuple,
    Weight,
    WeylElem,
    check_involution,
    from_oneline,
    from_word,
    L_map,
    pairing,
    weyl_act,
)
from oracles import L_map_inverse, is_dominant, is_strictly_dominant


class TestGroupStructure:
    def test_order_eight(self):
        assert len(W_ALL) == 8
        assert len({w.perm for w in W_ALL}) == 8

    def test_presentation_relations(self):
        assert S1 * S1 == W_ID
        assert S2 * S2 == W_ID
        s1s2 = S1 * S2
        assert s1s2 * s1s2 * s1s2 * s1s2 == W_ID

    def test_longest_element_both_words(self):
        assert S1 * S2 * S1 * S2 == S0
        assert S2 * S1 * S2 * S1 == S0
        assert S0.length() == 4

    def test_d4_membership_guard(self):
        with pytest.raises(InvalidData):
            WeylElem((2, 1, 3, 4))

    @pytest.mark.parametrize("word", ("s3", "s1s"), ids=("unknown-letter", "odd-length"))
    def test_bad_word_is_a_parse_error(self, word):
        with pytest.raises(ParseError, match=f"^bad Weyl word '{word}'$"):
            from_word(word)

    def test_word_round_trip(self):
        for w in W_ALL:
            assert from_word(w.word) == w
            assert from_oneline(w.perm) == w

    def test_closed_under_product(self):
        elems = {w.perm for w in W_ALL}
        for u in W_ALL:
            for v in W_ALL:
                assert (u * v).perm in elems


class TestCheckInvolution:
    def test_simple_swaps(self):
        assert check_involution(S1) == S2
        assert check_involution(S2) == S1

    def test_fixes_longest(self):
        assert check_involution(S0) == S0
        assert check_involution(W_ID) == W_ID

    def test_involutive_automorphism(self):
        for u in W_ALL:
            assert check_involution(check_involution(u)) == u
            assert check_involution(u).length() == u.length()
            for v in W_ALL:
                assert check_involution(u * v) == check_involution(u) * check_involution(v)


class TestWeylAction:
    def test_s1_on_alpha(self):
        assert weyl_act(S1, ALPHA) == Weight(-1, 1, 0)

    def test_s2_on_beta(self):
        assert weyl_act(S2, BETA) == Weight(0, -2, 1)

    def test_s1_on_beta(self):
        # s1(beta) = alpha^2 * beta
        assert weyl_act(S1, BETA) == Weight(2, 0, -1)

    def test_s2_on_alpha(self):
        # s2(alpha) = alpha * beta
        assert weyl_act(S2, ALPHA) == Weight(1, 1, -1)

    def test_identity(self):
        mu = Weight(3, -2, Q(1, 2))
        assert weyl_act(W_ID, mu) == mu

    def test_only_weights_and_cocharacters(self):
        with pytest.raises(InvalidData, match="cannot act on tuple"):
            weyl_act(S1, (1, 2, 3, 4))

    def test_sim_fixed_by_all(self):
        for w in W_ALL:
            assert weyl_act(w, SIM) == SIM

    def test_cochar_constraint_preserved(self):
        rng = random.Random(1)
        for _ in range(50):
            m1, m2, m3 = (rng.randint(-5, 5) for _ in range(3))
            c = CocharTuple((m1, m2, m3, m2 + m3 - m1))
            for w in W_ALL:
                weyl_act(w, c)  # constructor re-checks the constraint

    def test_pairing_invariance(self):
        # couples the lattice action with the 4-tuple action
        rng = random.Random(2)
        for _ in range(50):
            mu = Weight(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            m1, m2, m3 = (rng.randint(-5, 5) for _ in range(3))
            c = CocharTuple((m1, m2, m3, m2 + m3 - m1))
            for w in W_ALL:
                assert pairing(weyl_act(w, mu), weyl_act(w, c)) == pairing(mu, c)


class TestPairings:
    def test_cartan_values(self):
        assert pairing(ALPHA, ALPHA_CHECK) == 2
        assert pairing(BETA, BETA_CHECK) == 2
        assert pairing(ALPHA, BETA_CHECK) == -1
        assert pairing(BETA, ALPHA_CHECK) == -2
        assert pairing(SIM, ALPHA_CHECK) == 0
        assert pairing(SIM, BETA_CHECK) == 0

    def test_dominance(self):
        assert is_dominant(Weight(3, 1, -5))
        assert is_strictly_dominant(Weight(3, 1, -5))
        assert is_dominant(Weight(1, 1, 0))
        assert not is_strictly_dominant(Weight(1, 1, 0))
        assert not is_dominant(Weight(1, 2, 0))


class TestLMap:
    def test_weight_formula(self):
        h = CocharTuple((5, 3, 1, -1))
        assert L_map(h) == Weight(4, 2, -1)

    def test_zero(self):
        assert L_map(CocharTuple((0, 0, 0, 0))) == Weight(0, 0, 0)

    def test_hodge_weight_image(self):
        # the cocharacter z^h of the Hodge weights h = (0, -2, -4, -6)
        assert L_map(CocharTuple((0, -2, -4, -6))) == Weight(4, 2, -6)

    def test_bijective(self):
        rng = random.Random(3)
        for _ in range(60):
            m1, m2, m3 = (rng.randint(-6, 6) for _ in range(3))
            c = CocharTuple((m1, m2, m3, m2 + m3 - m1))
            assert L_map_inverse(L_map(c)) == c

    def test_equivariance_all_w(self):
        rng = random.Random(4)
        for _ in range(30):
            m1, m2, m3 = (rng.randint(-6, 6) for _ in range(3))
            c = CocharTuple((m1, m2, m3, m2 + m3 - m1))
            for w in W_ALL:
                assert weyl_act(w, L_map(c)) == L_map(weyl_act(check_involution(w), c))

    def test_constraint_guard(self):
        with pytest.raises(ConstraintViolated):
            CocharTuple((1, 0, 0, 0))
