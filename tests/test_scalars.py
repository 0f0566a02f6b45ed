import copy
import operator
import pickle
import random
import re
import signal
from collections import Counter
from itertools import combinations_with_replacement
from contextlib import contextmanager
from fractions import Fraction as Q
from functools import partial
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gsp4hodge.errors import (
    DegreeCapExceeded,
    DivisionByZero,
    InvalidData,
    ParseError,
    ZeroArgument,
)
import gsp4hodge._polygcd as polygcd
import gsp4hodge.scalars as scalars
from gsp4hodge._polygcd import _certified_coprime
from gsp4hodge.extledger import AddChar, Constituent, constituent_of, constituents, socle_constituents
from gsp4hodge.hecke import FrobeniusData, HeckeData, classicality_classify, hecke_charpoly, ideal_generators
from gsp4hodge.kernel import (
    eigenline_grid,
    jbar_matrix,
    jbar_rank,
    kernel_basis,
    l_invariant_plane,
    matrix_suite,
    recover_parameters,
)
from gsp4hodge.linalg import rank
from gsp4hodge.phimodule import PhiModuleData, coordinate_subspace, validate, weak_admissibility
from gsp4hodge.scalars import (
    MAX_EXPONENT,
    PRIME_BOUND,
    Poly2,
    RatFunc,
    is_prime,
    is_zero,
    linear_combination,
    padic_val,
    parse_scalar,
    poly_divexact,
    poly_gcd,
    scalar_str,
)
from gsp4hodge.symplectic import Subspace
from gsp4hodge.weyl import S1, W_ID, CocharTuple, Weight, WeylElem, from_oneline, from_word
from oracles import (
    parse_scalar_by_whitelist,
    poly2_add_by_scale_ratio,
    poly2_mul_by_views,
    poly2_scale_by_lift,
    ratfunc_add_by_combining,
    ratfunc_const_by_gcd,
    ratfunc_eq_by_lift,
    ratfunc_mul_by_cross_gcds,
    ratfunc_truediv_by_cross_gcds,
)

A = RatFunc.var("a")
B = RatFunc.var("b")


def rand_q(rng, span=20):
    return Q(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[(rng.randint(0, max_deg), rng.randint(0, max_deg))] = rand_q(rng)
    return Poly2(terms)


def rand_ratfunc(rng):
    num = rand_poly(rng)
    den = rand_poly(rng)
    while den.is_zero():
        den = rand_poly(rng)
    return RatFunc(num, den)


#: Irreducible, pairwise non-associate polynomials over Q.
_IRREDUCIBLES = tuple(
    parse_scalar(t, symbolic=True).num
    for t in ("a", "a+1", "2*a-3", "a**2+1", "b", "b+1", "b**2-2", "a+b", "a-3*b+2", "a*b+1", "a*b+a+b", "a**2+b**2+1")
)
_FACTORS = st.lists(st.integers(0, len(_IRREDUCIBLES) - 1), max_size=3)
_NONZERO_Q = st.builds(Q, st.integers(-12, 12).filter(bool), st.integers(1, 12))
#: Polynomials of degree at most 3 in each variable; zero coefficients included.
_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.builds(Q, st.integers(-12, 12), st.integers(1, 12)), max_size=5
).map(Poly2)


def _product(counts):
    """The product of the pool's irreducibles, each to its multiplicity."""
    out = Poly2.const(1)
    for i, k in counts.items():
        out = out * _IRREDUCIBLES[i] ** k
    return out


class TestFieldArith:
    def test_inverse_pair(self):
        x = (A + B) / B
        y = B / (A + B)
        assert x * y == RatFunc.const(1)

    def test_gcd_cancellation(self):
        num = A * B + A + B
        den = (A * B + A + B) * (B + 1)
        got = num / den
        assert got == RatFunc.const(1) / (B + 1)
        assert scalar_str(got) == "(1)/(b + 1)"

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            A / RatFunc.const(0)

    @pytest.mark.parametrize(
        "call, error, message",
        (
            (lambda: Poly2.var("a").const_value(), ValueError, "not a constant polynomial"),
            (lambda: A.const_value(), ValueError, "not a constant rational function"),
            (lambda: Poly2().leading_coeff(), ValueError, "zero polynomial has no leading coefficient"),
            (lambda: Poly2.var("a") ** -1, ValueError, "negative power of a polynomial"),
            (lambda: poly_divexact(Poly2.var("a"), Poly2()), DivisionByZero, "polynomial division by zero"),
            (lambda: RatFunc(Poly2.var("a"), Poly2()), DivisionByZero, "rational function with zero denominator"),
            (lambda: (1 / A).evaluate(0, 1), DivisionByZero, "denominator vanishes at (0, 1)"),
        ),
        ids=("Poly2.const_value", "RatFunc.const_value", "leading_coeff-zero", "Poly2-negative-power",
             "poly_divexact-zero", "RatFunc-zero-denominator", "RatFunc.evaluate-pole"),
    )
    def test_failure_branch(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestIsZero:
    def test_zero_rational(self):
        assert is_zero(Q(0))

    def test_symbolic_cancellation(self):
        assert is_zero((A + B) - A - B)

    def test_nonzero_polynomial(self):
        assert not is_zero(A * B + A + B)


class TestPadicVal:
    def test_integer(self):
        assert padic_val(8, 2) == 3

    def test_denominator(self):
        assert padic_val(Q(2, 9), 3) == -2

    def test_unit(self):
        assert padic_val(6, 5) == 0

    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            padic_val(0, 3)

    def test_multiplicativity(self):
        rng = random.Random(7)
        for _ in range(300):
            x, y = rand_q(rng), rand_q(rng)
            if x == 0 or y == 0:
                continue
            for p in (2, 3, 5):
                assert padic_val(x * y, p) == padic_val(x, p) + padic_val(y, p)

    @pytest.mark.parametrize("p", (-2, 0, 1, 4), ids=("minus-two", "zero", "one", "four"))
    def test_p_must_be_prime(self, p):
        # p = 1 once counted forever and p = 4 gave padic_val(8, 4) = 1:
        # each call now raises at once, within a 5-second bound
        def expire(signum, frame):
            raise AssertionError(f"padic_val(12, {p}) ran past its time bound")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            with pytest.raises(InvalidData, match=rf"p-adic valuation needs a prime p, got {p}"):
                padic_val(12, p)
            with pytest.raises(InvalidData):
                padic_val(8, p)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

        assert [n for n in range(10**4) if is_prime(n)] == [n for n in range(10**4) if trial(n)]

    @pytest.mark.parametrize("n", (561, 3_215_031_751, 3_825_123_056_546_413_051))
    def test_strong_pseudoprimes(self, n):
        # A Carmichael number, and strong pseudoprimes to the bases 2..7 and 2..23.
        assert not is_prime(n)

    def test_bound(self):
        assert is_prime(PRIME_BOUND - 59)  # the largest prime below 2**64
        for n in (PRIME_BOUND, 318_665_857_834_031_151_167_461):
            with pytest.raises(InvalidData, match="2\\*\\*64"):
                is_prime(n)


class TestFieldAxioms:
    def test_random_triples(self):
        # Associativity, distributivity and inverses on >= 1000 triples,
        # split between the two scalar variants.
        rng = random.Random(20260809)
        for k in range(1200):
            if k % 2:
                x, y, z = (rand_q(rng) for _ in range(3))
            else:
                x, y, z = (rand_ratfunc(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == 0 * x
            if not is_zero(x):
                assert is_zero(x / x - x**0)

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_eval_commutes_with_arith(self, na, nb, d):
        f = (A * na + B) / RatFunc.const(Q(d))
        g = A - B * nb
        s = f * g + f
        pt = (Q(3, 2), Q(-5, 7))
        assert s.evaluate(*pt) == f.evaluate(*pt) * g.evaluate(*pt) + f.evaluate(*pt)


class TestCanonicalForm:
    def test_idempotent(self):
        # RatFunc(num, den) gives a canonical pair back, and a zero operand of
        # + or * takes the general path to the same pair, or to 0/1
        rng = random.Random(11)
        zero, one = RatFunc.const(0), Poly2.const(1)
        for _ in range(200):
            x = rand_ratfunc(rng)
            for again in (RatFunc(x.num, x.den), x + zero, zero + x, x + 0, 0 + x, x - zero):
                assert again.num == x.num and again.den == x.den and hash(again) == hash(x)
            for product in (x * zero, zero * x, RatFunc(Poly2(), x.den), RatFunc(Poly2(), x.den.scale(-3))):
                assert product.num == Poly2() and product.den == one and product == 0
            assert x.den.leading_coeff() == 1
            if x.is_const():
                c = x.const_value()
                assert x == c and c == x and x in {c} and x != c + 1
            else:
                assert x != 0 and 0 != x and x != 1 and x not in {0, 1}

    def test_equality_via_cross_multiplication(self):
        x = (A * A - B * B) / (A - B)
        assert x == A + B

    def test_den_leading_coeff_one(self):
        x = RatFunc(Poly2.const(3), Poly2({(1, 0): Q(2)}))
        assert x.den.leading_coeff() == 1
        assert scalar_str(x) == "(3/2)/(a)"

    @pytest.mark.parametrize("p, q", (("3", "a + 1"), ("a*b", "-2/5"), ("1", "7")))
    def test_constant_gcd_is_the_module_one(self, p, q):
        # the constant shortcut builds no polynomial: it returns the module's 1
        g = poly_gcd(_poly(p), _poly(q))
        assert g is scalars._ONE_POLY and g == Poly2.const(1)

    def test_gcd_oracle_random_products(self):
        # gcd(u*w, v*w) must be divisible by w; quotients must be coprime.
        rng = random.Random(5)
        for _ in range(60):
            u, v, w = rand_poly(rng, 1), rand_poly(rng, 1), rand_poly(rng, 1)
            if u.is_zero() or v.is_zero() or w.is_zero():
                continue
            g = poly_gcd(u * w, v * w)
            poly_divexact(g, _monic_copy(w))  # raises if w does not divide g
            q1 = poly_divexact(u * w, g)
            q2 = poly_divexact(v * w, g)
            assert poly_gcd(q1, q2).is_const()

    @given(_POLYS, _POLYS.filter(bool), _NONZERO_Q)
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    def test_routes_agree_in_equality_and_hash(self, p, q, c):
        # One polynomial has one stored form, whatever builds it, so every
        # route compares equal and hashes equal.
        routes = (
            Poly2(p._terms()), -Poly2((-p)._terms()), (p + q) - q, q - (q - p),
            poly_divexact(p * q, q), -(-p), p.scale(c).scale(1 / c),
            p + 0, 0 + p, p + Poly2(), Poly2() + p, p - Poly2(),
        )
        for r in routes:
            assert r == p and hash(r) == hash(p)
        assert p - p == Poly2() and hash(p - p) == hash(Poly2())
        # a RatFunc over 1 hashes as its numerator, and a constant of either
        # class as the int or Fraction it equals
        assert hash(RatFunc(p)) == hash(p)
        for value, constants in (
            (c, (Poly2.const(c), Poly2.const(1).scale(c), RatFunc.const(c), RatFunc(q.scale(c), q))),
            (0, (p - p, Poly2.const(0), RatFunc.const(0), RatFunc(p - p, q))),
            (1, (Poly2.const(1), RatFunc(q, q), RatFunc(q) / RatFunc(q))),
        ):
            for k in constants:
                assert k == value and hash(k) == hash(value) and k in {value} and {k: "k"}.get(value) == "k"

    @given(_FACTORS, _FACTORS, _FACTORS, _NONZERO_Q, _NONZERO_Q)
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    def test_gcd_unique_factorization(self, common, only_p, only_q, sp, sq):
        # Products of pairwise non-associate irreducibles: the monic gcd is
        # the product of the factors the two multisets share.
        fp, fq = Counter(common + only_p), Counter(common + only_q)
        p, q = _product(fp).scale(sp), _product(fq).scale(sq)
        assert poly_gcd(p, q) == _monic_copy(_product(fp & fq))

    @given(_FACTORS, _NONZERO_Q)
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    def test_divexact_unique_factorization(self, factors, scale):
        counts = Counter(factors)
        p = _product(counts).scale(scale)
        for i, f in enumerate(_IRREDUCIBLES):
            if counts[i]:
                assert poly_divexact(p, f) == _product(counts - Counter([i])).scale(scale)
            else:
                with pytest.raises(ValueError):
                    poly_divexact(p, f)


def _monic_copy(p):
    return p.scale(1 / p.leading_coeff())


def _combine(parts):
    """Text and value of (left) op (right); the value is None once a divisor is zero."""
    (ltext, lvalue), op, (rtext, rvalue) = parts
    text = f"({ltext}) {op} ({rtext})"
    if lvalue is None or rvalue is None or (op == "/" and rvalue.is_zero()):
        return text, None
    return text, {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op](lvalue, rvalue)


_LEAVES = st.tuples(
    st.one_of(
        st.integers(-5, 5).map(lambda n: (f"({n})", RatFunc.const(n))),
        st.tuples(st.integers(-5, 5), st.integers(2, 5)).map(lambda f: (f"({f[0]}/{f[1]})", RatFunc.const(Q(*f)))),
        st.sampled_from([("a", A), ("b", B)]),
    ),
    st.integers(0, 3),
).map(lambda leaf: (f"({leaf[0][0]})**{leaf[1]}", leaf[0][1] ** leaf[1]))
#: Expression text over a, b, small integers and fractions, with its value
#: built by RatFunc field operations; a polynomial over a constant divisor is
#: parsed as a scale, anything else over a polynomial as a RatFunc quotient.
_EXPRESSIONS = st.recursive(
    _LEAVES, lambda inner: st.tuples(inner, st.sampled_from("+-*/"), inner).map(_combine), max_leaves=8
)


def _grammar(leaves, unary, binary, wrappers):
    """Expression texts built from leaves by unary, binary and wrapping forms."""

    def forms(inner):
        return st.one_of(
            st.tuples(st.sampled_from(unary), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.sampled_from(binary), inner).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(st.sampled_from(wrappers), inner).map(lambda t: t[0].format(t[1])),
        )

    return st.recursive(st.sampled_from(leaves), forms, max_leaves=6)


#: Leaves, unary and binary operators, and wrappers of the allowed syntax
#: (integer literals, a, b, binary + - * / ** and unary + -), and forbidden ones.
_ALLOWED = (["0", "1", "2", "3", "a", "b"], ["-", "+"], ["+", "-", "*", "/", "**"], ["({})"])
_FORBIDDEN = (
    ["x", "1.5", "'s'", "True", "None", "f'{a}'"],
    ["not ", "~"],
    ["%", "//", "@", "<<", "&", "<", "==", "and"],
    ["f({})", "({}).real", "({})[0]", "[{}]", "{{1: {}}}", "(lambda: {})", "(y := {})"],
)
#: Expression text from the allowed syntax only, or mixing in the forbidden.
_SYNTAX = st.one_of(_grammar(*_ALLOWED), _grammar(*map(operator.add, _ALLOWED, _FORBIDDEN)))


def _parse_outcome(parse, text, symbolic):
    """The value parse makes of text, or None for a ParseError; any other
    exception propagates."""
    try:
        return parse(text, symbolic)
    except ParseError:
        return None


class TestSerialization:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_EXPRESSIONS)
    def test_symbolic_parse_matches_field_operations(self, expression):
        text, value = expression
        if value is None:
            with pytest.raises(ParseError, match="division by zero"):
                parse_scalar(text, symbolic=True)
        else:
            parsed = parse_scalar(text, symbolic=True)
            assert type(parsed) is RatFunc and parsed == value and str(parsed) == str(value)
            assert hash(parsed) == hash(value)

    def test_constant_divisor_is_a_scale(self, monkeypatch):
        # p/q coefficients of a printed cell stay polynomial: the only
        # RatFunc built is the final one around the whole expression
        built = []
        init = RatFunc.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(RatFunc, "__init__", counting)
            value = parse_scalar("3/2*a**2*b - a/4 + 7", symbolic=True)
        assert len(built) <= 1
        assert value == Q(3, 2) * A**2 * B - A / 4 + 7

    def test_rational_round_trip(self):
        for text in ["3/4", "-7", "0", "22/7"]:
            assert scalar_str(parse_scalar(text)) == text

    def test_symbolic_round_trip(self):
        rng = random.Random(3)
        for _ in range(100):
            x = rand_ratfunc(rng)
            assert parse_scalar(scalar_str(x), symbolic=True) == x

    def test_grlex_display(self):
        p = Poly2({(1, 1): Q(1), (1, 0): Q(1), (0, 1): Q(1)})
        assert str(p) == "a*b + a + b"

    def test_rejects_junk(self):
        with pytest.raises(ParseError):
            parse_scalar("__import__('os')", symbolic=True)
        with pytest.raises(ParseError):
            parse_scalar("a + c", symbolic=True)
        with pytest.raises(ParseError):
            parse_scalar("1.5")
        # the message names the construct and never formats the node: a
        # literal of more than 4,300 digits cannot be formatted in decimal
        huge = f"0x{'f' * 4000}"
        for text in ("not 1", "~1", "1 % 2", f"f({huge})", f"({huge}) % 2"):
            for symbolic in (False, True):
                with pytest.raises(ParseError, match="^forbidden syntax in scalar expression: "):
                    parse_scalar(text, symbolic)
        # a forbidden construct is found when the evaluator reaches it, so an
        # allowed operation before it may report its own error first
        with pytest.raises(ParseError, match="integer literal of 16000 bits exceeds"):
            parse_scalar(f"({huge}) + (1 % 2)")
        # text that compile refuses with a ValueError: a lone surrogate, and a
        # null byte (a SyntaxError from Python 3.12 on)
        for text in ("\ud800", "1\x00"):
            for symbolic in (False, True):
                with pytest.raises(ParseError, match="^bad scalar expression "):
                    parse_scalar(text, symbolic)

    @pytest.mark.parametrize("depth", (10_000, 20_000))
    def test_deep_unary_nesting(self, depth):
        # compile's own parser stack overflows here with a MemoryError, which
        # is the same rejection as a RecursionError while evaluating
        for symbolic in (False, True):
            with pytest.raises(ParseError, match="^scalar expression nests too deeply$"):
                parse_scalar("-" * depth + "1", symbolic)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_SYNTAX, st.booleans())
    def test_accepts_what_the_whitelist_accepts(self, text, symbolic):
        # the evaluator alone is the syntax gate: it accepts exactly the
        # texts the whitelist walk let through, with the same values
        assert _parse_outcome(parse_scalar, text, symbolic) == _parse_outcome(parse_scalar_by_whitelist, text, symbolic)

    def test_no_whitelist_walk(self, monkeypatch):
        import ast

        def refuse(node):
            raise AssertionError("parse_scalar walked the tree")

        # pytest formats a failure with ast.walk, so the patch ends before any assert
        with monkeypatch.context() as patch:
            patch.setattr(ast, "walk", refuse)
            value = parse_scalar("-(a + 1)**2/(b - 3)", symbolic=True)
            rejected = _parse_outcome(parse_scalar, "not 1", False)
        assert value == -((A + 1) ** 2) / (B - 3) and rejected is None

    def test_exponent_bound(self):
        assert parse_scalar(f"2**{MAX_EXPONENT}") == 2**MAX_EXPONENT
        with pytest.raises(ParseError, match="exceeds"):
            parse_scalar(f"2**{MAX_EXPONENT + 1}")

    def test_size_bound(self):
        # Bits of the base times the exponent at most MAX_EXPONENT**2, total
        # degree times the exponent at most MAX_EXPONENT, checked before the
        # power is computed; literals at most MAX_EXPONENT**2 bits.
        assert parse_scalar("(2**63)**64") == 2 ** (63 * 64)
        assert parse_scalar("(a*b)**32", symbolic=True) == (A * B) ** 32
        assert parse_scalar("2" * 1233) == int("2" * 1233)
        for text, symbolic in (
            ("(2**64)**64", False),
            ("(((3**64)**64)**64)**64", False),
            ("(((3**64)**64)**64)**64", True),
            ("(a*b)**33", True),
            ("((a+b+1)**8)**9", True),
            ("2" * 1234, False),
        ):
            with pytest.raises(ParseError, match="exceeds"):
                parse_scalar(text, symbolic)


class TestDegreeCap:
    def test_cap_triggers(self, monkeypatch):
        monkeypatch.setenv("GSP4H_MAX_DEGREE", "3")
        with pytest.raises(DegreeCapExceeded):
            (A + B) ** 4  # degree 4 > cap
        monkeypatch.delenv("GSP4H_MAX_DEGREE")
        (A + B) ** 4

    @pytest.mark.parametrize(
        "p, q", ((A * A + B, A * B), (Poly2.var("a") ** 2, Poly2.var("a") + Poly2.var("b") ** 2))
    )
    def test_product_over_cap(self, monkeypatch, p, q):
        # two factors of degree 2 under the cap multiply to degree 4 over it
        monkeypatch.setenv("GSP4H_MAX_DEGREE", "3")
        with pytest.raises(DegreeCapExceeded, match="degree 4 exceeds"):
            p * q

    def test_constant_factor_under_cap(self, monkeypatch):
        # a constant factor changes only the scale, so it never outgrows the cap
        monkeypatch.setenv("GSP4H_MAX_DEGREE", "3")
        cube = (Poly2.var("a") + Poly2.var("b")) ** 3
        assert cube * 7 == 7 * cube == cube.scale(7)
        assert (A + B) ** 3 * 7 == 7 * (A + B) ** 3 == RatFunc(cube.scale(7))
        assert (A + B) ** 3 / 7 == RatFunc(cube.scale(Q(1, 7)))
        with pytest.raises(DegreeCapExceeded, match="degree 4 exceeds"):
            (A + B) ** 3 * A
        with pytest.raises(DegreeCapExceeded, match="degree 4 exceeds"):
            cube * Poly2.var("a")

    def test_cap_is_not_read_for_constant_factors(self, monkeypatch):
        # a degree-4 polynomial built before the cap is set scales under it
        quartic = (A + B) ** 4
        monkeypatch.setenv("GSP4H_MAX_DEGREE", "3")
        assert (quartic * 2).num == quartic.num.scale(2)
        assert (quartic.num * Poly2.const(-3)).total_degree() == 4


#: Constants that products and quotients meet: zero, units, small and
#: 70-bit integers, negative fractions.
_CONSTANTS = (0, 1, -1, 2, -2, 2**70, -(2**70), Q(-3, 7), Q(-1, 2**70), Q(5, 3))
_POOL_POLYS = st.one_of(
    st.just(Poly2()),
    st.builds(lambda factors, c: _product(Counter(factors)).scale(c), _FACTORS, _NONZERO_Q),
)
_POOL_RATFUNCS = st.builds(RatFunc, _POOL_POLYS, _POOL_POLYS.filter(bool))


def _poly_fields(p):
    return p._scale, p._view, hash(p)


def _ratfunc_fields(r):
    return _poly_fields(r.num), _poly_fields(r.den), hash(r)


class TestConstantFactor:
    """A product with a constant is a new scale on the same view: the general
    route (tests/oracles.py) and the scale route agree field by field."""

    def test_no_product_gcd_or_cap_read(self, monkeypatch):
        import gsp4hodge.scalars as scalars

        p = _product(Counter([1, 7, 10]))
        r = RatFunc(p, _IRREDUCIBLES[4] * _IRREDUCIBLES[8])
        five = Poly2.const(5)

        def forbidden(*args):
            raise AssertionError("a constant factor ran a product, a gcd or a cap read")

        for name in ("_mul", "poly_gcd", "_degree_cap"):
            monkeypatch.setattr(scalars, name, forbidden)
        got = (p * 3, 3 * p, p * Q(-2, 7), p * 0, p * five, five * p,
               RatFunc.const(4), r * 2, 2 * r, r / 3, r == 1)
        monkeypatch.undo()
        want = (p.scale(3), p.scale(3), p.scale(Q(-2, 7)), Poly2(), p.scale(5), p.scale(5),
                ratfunc_const_by_gcd(4), RatFunc(p.scale(2), r.den), RatFunc(p.scale(2), r.den),
                RatFunc(p.scale(Q(1, 3)), r.den), False)
        assert got == want

    def test_cap_read_once_per_nonconstant_product(self, monkeypatch):
        # one symbolic-generic op reads the degree cap exactly once for
        # each product of two non-constant polynomials, and for nothing else
        import gsp4hodge.scalars as scalars
        from gsp4hodge.kernel import kernel_basis, matrix_suite, recover_parameters

        counts = {"cap": 0, "products": 0}
        real_cap, real_mul = scalars._degree_cap, Poly2.__mul__

        def counted_cap():
            counts["cap"] += 1
            return real_cap()

        def counted_mul(self, other):
            if isinstance(other, Poly2) and not self.is_const() and not other.is_const():
                counts["products"] += 1
            return real_mul(self, other)

        monkeypatch.setattr(scalars, "_degree_cap", counted_cap)
        monkeypatch.setattr(Poly2, "__mul__", counted_mul)
        monkeypatch.setattr(Poly2, "__rmul__", counted_mul)
        a, b = A + 3, 2 * B + 5
        assert recover_parameters(kernel_basis(a, b)) == (a, b)
        matrix_suite(a, b)
        assert counts["products"] > 0 and counts["cap"] == counts["products"]

    @given(_POOL_POLYS, st.sampled_from(_CONSTANTS), st.booleans())
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    def test_poly2_routes_agree(self, p, c, lift):
        k = Poly2.const(c) if lift else c
        with _general_route():
            want = _poly_fields(p * k), _poly_fields(k * p)
        assert (_poly_fields(p * k), _poly_fields(k * p)) == want

    @given(_POOL_RATFUNCS, st.sampled_from(_CONSTANTS), st.booleans())
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    def test_ratfunc_routes_agree(self, r, c, lift):
        k = RatFunc(Poly2.const(c)) if lift else c
        over_den = RatFunc(Poly2.const(c), r.den)  # a constant numerator alone is not a constant

        def results():
            quotient = _ratfunc_fields(r / k) if c else None
            return (
                _ratfunc_fields(RatFunc.const(c)), _ratfunc_fields(r * k), _ratfunc_fields(k * r), quotient,
                r == k, k == r, RatFunc.const(c) == r, over_den == k,
            )

        with _general_route():
            want = results()
        assert results() == want
        if not c:
            for route in (lambda: r / k, lambda: ratfunc_truediv_by_cross_gcds(r, k)):
                with pytest.raises(DivisionByZero, match="division by zero rational function"):
                    route()


_GENERAL_ROUTE = (
    (Poly2, "__mul__", poly2_mul_by_views),
    (Poly2, "__rmul__", poly2_mul_by_views),
    (Poly2, "scale", poly2_scale_by_lift),
    (RatFunc, "const", staticmethod(ratfunc_const_by_gcd)),
    (RatFunc, "__mul__", ratfunc_mul_by_cross_gcds),
    (RatFunc, "__rmul__", ratfunc_mul_by_cross_gcds),
    (RatFunc, "__truediv__", ratfunc_truediv_by_cross_gcds),
    (RatFunc, "__eq__", ratfunc_eq_by_lift),
)


@contextmanager
def _general_route():
    """Poly2 and RatFunc products, quotients, constants and comparisons on
    the general route of tests/oracles.py."""
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, method in _GENERAL_ROUTE:
            mp.setattr(owner, name, method)
        yield


def _view_gcd_is_one(p, q):
    return polygcd._gcd(p._view, q._view) == {0: {0: 1}}


def _poly(text):
    return parse_scalar(text, symbolic=True).num


#: Integer multipliers of a linear combination: zero, small, and 70-bit.
_MULTIPLIERS = st.one_of(st.integers(-3, 3), st.sampled_from((2**70, -(2**70), 2**70 + 1)))


class TestLinearCombination:
    """scalars.linear_combination strips content once; the term-by-term sum
    by the scale ratio (tests/oracles.py) strips it at every addition.  Both
    give the canonical form, and so does the term-by-term Poly2 +, which is
    linear_combination on two terms."""

    @staticmethod
    def term_by_term(terms, add=poly2_add_by_scale_ratio):
        out = Poly2()
        for c, p in terms:
            out = add(out, c * p)
        return out

    @given(
        st.lists(_POLYS | _POOL_POLYS, min_size=1, max_size=3),
        st.lists(st.tuples(_MULTIPLIERS, st.integers(0, 2)), max_size=6),
        st.booleans(),
    )
    @example([Poly2({(1, 0): Q(1, 3), (0, 0): Q(2, 5)})], [(2**70, 0), (0, 0)], True)
    @example([_poly("2*a*b + 4"), _poly("a*b/3 + 2/3")], [(1, 0), (-6, 1)], False)
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_equals_the_term_by_term_sum(self, pool, picks, cancel):
        terms = [(c, pool[i % len(pool)]) for c, i in picks]
        if cancel:  # every term again with the opposite sign: the sum is 0
            terms += [(-c, p) for c, p in terms]
        got, want = linear_combination(terms), self.term_by_term(terms)
        assert _poly_fields(got) == _poly_fields(want) == _poly_fields(self.term_by_term(terms, operator.add))
        if cancel:
            assert _poly_fields(got) == _poly_fields(Poly2())


#: Products of the first and of the last six irreducibles: always coprime.
_LOW, _HIGH = (st.lists(st.integers(lo, lo + 5), max_size=2).map(Counter).map(_product) for lo in (0, 6))
_COMMON = st.lists(st.integers(0, len(_IRREDUCIBLES) - 1), min_size=1, max_size=2).map(Counter).map(_product)


@st.composite
def _henrici_pairs(draw):
    """A case of Henrici's sum and a pair (x, y) for it: x = n1/d1 and
    y = n2/d2 with coprime d1 and d2 ("coprime"); x = n1/(d1*g) and
    y = n2/(d2*g) ("shared"); or that x and y = n2/d2 - x, so that the
    sum's numerator cancels against the shared factor ("cancel")."""
    case = draw(st.sampled_from(("coprime", "shared", "cancel")))
    d1, d2 = draw(_LOW), draw(_HIGH)
    g = Poly2.const(1) if case == "coprime" else draw(_COMMON)
    n1, n2 = draw(_POOL_POLYS.filter(bool)), draw(_POOL_POLYS.filter(bool))
    x = RatFunc(n1, d1 * g)
    if case == "cancel":
        return case, x, RatFunc(n2 * x.den - x.num * d2, d2 * x.den)
    return case, x, RatFunc(n2, d2 * g)


class TestHenriciSum:
    """RatFunc + cancels the denominators' gcd before it sums and the
    numerator against that gcd after (Henrici; Knuth, TAOCP vol. 2, 4.5.1),
    and * cancels across; both go through scalars._cancel and equal the
    combine-then-reduce route field by field.  So do -, / and **, which,
    like + and *, build their canonical pairs without the constructor."""

    @given(_henrici_pairs())
    @example(("coprime", 1 / (A + 1), B / (B + 1)))
    @example(("shared", 1 / (A * (A + 1)), 1 / (A * (B + 1))))
    @example(("cancel", 1 / (A * (A + 1)), (A - B - 1) / (A * (B + 1))))
    # numerators that lead with 2 and -1: / must make the inverted pair monic
    @example(("coprime", B / (A + 1), (2 * A + 3) / (B - 1)))
    @example(("coprime", (2 * A + 3) / (B - 1), -B / (A + 1)))
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    def test_sum_and_product_equal_combining(self, pair):
        case, x, y = pair

        def combined(num, den):  # the constructor's canonical form of a raw pair
            return _ratfunc_fields(RatFunc(num, den))

        assert _ratfunc_fields(x + y) == _ratfunc_fields(ratfunc_add_by_combining(x, y))
        assert _ratfunc_fields(x * y) == combined(x.num * y.num, x.den * y.den)
        assert _ratfunc_fields(-x) == combined(-x.num, x.den)
        assert _ratfunc_fields(x - y) == combined(x.num * y.den - y.num * x.den, x.den * y.den)
        assert _ratfunc_fields(x + (-x)) == combined(x.num * x.den - x.num * x.den, x.den * x.den)
        if y:
            assert _ratfunc_fields(x / y) == combined(x.num * y.den, x.den * y.num)
        for n in range(-2, 4):
            num, den = (x.num**n, x.den**n) if n >= 0 else (x.den**-n, x.num**-n)
            assert _ratfunc_fields(x**n) == combined(num, den), n
        if case == "coprime":
            d1, d2, g = scalars._cancel(x.den, y.den)
            assert d1 is x.den and d2 is y.den and g == 1


class TestReflectedOperators:
    @pytest.mark.parametrize(
        "symbol, op", (("+", operator.add), ("-", operator.sub), ("*", operator.mul), ("/", operator.truediv))
    )
    @pytest.mark.parametrize("value", (Poly2.var("a"), A), ids=("Poly2", "RatFunc"))
    def test_unsupported_operand_names_the_operator(self, symbol, op, value):
        # a reflected operator returns NotImplemented, so Python names the real one
        message = rf"unsupported operand type\(s\) for {re.escape(symbol)}: 'object' and '{type(value).__name__}'"
        with pytest.raises(TypeError, match=message):
            op(object(), value)


class TestConstructorTypes:
    @pytest.mark.parametrize(
        "args, part, kind",
        (
            ((3,), "numerator", "int"),
            ((Q(1, 2),), "numerator", "Fraction"),
            ((A,), "numerator", "RatFunc"),
            ((Poly2.var("a"), 2), "denominator", "int"),
            ((Poly2.var("a"), "b"), "denominator", "str"),
        ),
        ids=("int", "Fraction", "RatFunc", "int-den", "str-den"),
    )
    def test_non_polynomial_part_is_a_type_error(self, args, part, kind):
        # RatFunc is exported: a part that is no Poly2 is named, not an AttributeError
        with pytest.raises(TypeError, match=rf"RatFunc {part} must be a Poly2, not '{kind}'"):
            RatFunc(*args)


#: Every entry point of kernel that takes a point (a, b).
POINT_ENTRIES = (kernel_basis, jbar_rank, matrix_suite, l_invariant_plane, eigenline_grid, jbar_matrix)


class TestPointTypes:
    """kernel._point gates every point: a and b are each an int, a
    Fraction or a RatFunc.  A float is not exact, and a bool is rejected as
    parse_integer rejects it."""

    @pytest.mark.parametrize("call", POINT_ENTRIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "point, name, kind",
        (
            ((0.1, 3), "a", "float"),
            ((1.0, 2), "a", "float"),
            ((2, 3.0), "b", "float"),
            ((True, 3), "a", "bool"),
            ((Q(2), False), "b", "bool"),
            (("2", 3), "a", "str"),
            ((A, "b"), "b", "str"),
            ((None, 3), "a", "NoneType"),
            ((Q(2), None), "b", "NoneType"),
        ),
        ids=("float", "float-one", "float-b", "bool", "bool-b", "str", "str-b", "None", "None-b"),
    )
    def test_other_types_are_type_errors(self, call, point, name, kind):
        # kernel_basis(0.1, 3) computed at 3602879701896397/36028797018963968, and
        # jbar_rank(1.0, 2) and eigenline_grid(1.0, 2) raised AttributeError
        with pytest.raises(TypeError, match=rf"^{name} must be an int, a Fraction or a RatFunc, not '{kind}'$"):
            call(*point)

    @pytest.mark.parametrize("call", POINT_ENTRIES, ids=lambda f: f.__name__)
    def test_ints_fractions_and_ratfuncs_mix(self, call):
        # a point is lifted into one field: Q, or Q(a, b) if either is a RatFunc
        assert call(2, Q(3)) == call(Q(2), Q(3)) == call(2, 3)
        if call is not jbar_matrix:  # elimination over Q(a, b) takes seconds
            three = RatFunc.const(3)
            assert call(A + 1, 3) == call(A + 1, three)
            assert call(Q(3), A) == call(three, A)


class TestArgumentTypes:
    @pytest.mark.parametrize(
        "call, arg, message",
        (
            (recover_parameters, 5, "K must be a Subspace, not 'int'"),
            (Poly2, "a", "Poly2 terms must be a dict, not 'str'"),
            (parse_scalar, 3, "text must be a str, not 'int'"),
            (validate, {}, "d must be a PhiModuleData, not 'dict'"),
            (hecke_charpoly, None, "d must be a HeckeData, not 'NoneType'"),
            (from_word, 5, "word must be a str, not 'int'"),
            # a valuation is exact: a float's would be that of its binary value
            (partial(padic_val, p=3), 0.1, "x must be an int or a Fraction, not 'float'"),
            (partial(padic_val, p=3), True, "x must be an int or a Fraction, not 'bool'"),
            (partial(padic_val, p=3), "9", "x must be an int or a Fraction, not 'str'"),
            # the record is the one type gate: a float alpha never reaches padic_val
            (lambda alphas: weak_admissibility(PhiModuleData(3, alphas, (0, -2, -4, -6), Q(2), Q(3))),
             (1.0, 9, 81, 729), "alphas[0] must be an int or a Fraction, not 'float'"),
            # weights are not truncated, alphas not read as 1, and a is not a float
            (partial(PhiModuleData, 3, (1, 9, 81, 729), a=2, b=3), (0.9, -2.5, -4, -6.5),
             "weights[0] must be an int, not 'float'"),
            (partial(PhiModuleData, 3, weights=(0, -2, -4, -6), a=2, b=3), (1.0, 9, 81, 729),
             "alphas[0] must be an int or a Fraction, not 'float'"),
            (partial(PhiModuleData, 3, weights=(0, -2, -4, -6), a=2, b=3), (True, 9, 81, 729),
             "alphas[0] must be an int or a Fraction, not 'bool'"),
            (partial(PhiModuleData, 3, (1, 9, 81, 729), (0, -2, -4, -6), b=3), 0.5,
             "a must be an int, a Fraction or a RatFunc, not 'float'"),
            # a constant is exact: a float's would be its binary value, a bool's 0 or 1
            (lambda c: Poly2({(1, 0): c}), 0.1, "terms[(1, 0)] must be an int or a Fraction, not 'float'"),
            (lambda c: Poly2({(0, 0): 1, (0, 1): c}), True, "terms[(0, 1)] must be an int or a Fraction, not 'bool'"),
            (Poly2.const, 0.5, "c must be an int or a Fraction, not 'float'"),
            (Poly2.const, True, "c must be an int or a Fraction, not 'bool'"),
            (RatFunc.const, 0.5, "c must be an int or a Fraction, not 'float'"),
            (RatFunc.const, True, "c must be an int or a Fraction, not 'bool'"),
            (RatFunc.const, "1/2", "c must be an int or a Fraction, not 'str'"),
            # a weight is not truncated: -2.5 once read as -2, so that h_1 - h_2 = 2
            (partial(classicality_classify, [1, 9, 81, 729], p=3, C=10), [0, -2.5, -4, -6],
             "weights[1] must be an int, not 'float'"),
            (partial(classicality_classify, [1, 9, 81, 729], [0, -2, -4, -6], 3), 10.0,
             "C must be an int or a Fraction, not 'float'"),
            (partial(classicality_classify, weights=[0, -2, -4, -6], p=3, C=10), [1, 9.0, 81, 729],
             "alphas[1] must be an int or a Fraction, not 'float'"),
            (partial(classicality_classify, [1, 9, 81, 729], [0, -2, -4, -6], C=10), 3.0,
             "p must be an int, not 'float'"),
            (partial(HeckeData, c0=1, c1=0, c2=0), 2.0, "l must be an int, not 'float'"),
            (partial(HeckeData, 2, c1=0, c2=0), 0.1, "c0 must be an int or a Fraction, not 'float'"),
            (partial(HeckeData, 2, 1, 0), True, "c2 must be an int or a Fraction, not 'bool'"),
            (partial(FrobeniusData, sim=Q(8)), (0, 10, 0.5, 64), "coeffs[2] must be an int or a Fraction, not 'float'"),
            (partial(FrobeniusData, (0, 10, 0, 64)), 8.0, "sim must be an int or a Fraction, not 'float'"),
            # the inverse map builds a HeckeData, whose gate names l
            (partial(ideal_generators, FrobeniusData((0, 10, 0, 64), Q(8))), 2.0, "l must be an int, not 'float'"),
            (partial(ideal_generators, l=2), (0, 10, 0, 64), "f must be a FrobeniusData, not 'tuple'"),
            (partial(ideal_generators, l=2), None, "f must be a FrobeniusData, not 'NoneType'"),
            (partial(ideal_generators, FrobeniusData((0, 10, 0, 64), Q(8))), True, "l must be an int, not 'bool'"),
            # a matrix entry is exact: rank([[0.5, "3"]]) was 1, and a span read 0.1 as its binary value
            (rank, [[0.5, "3"]], "rows[0][0] must be an int or a Fraction, not 'float'"),
            (rank, [[1, "3"]], "rows[0][1] must be an int or a Fraction, not 'str'"),
            (Subspace.span, [[0.1, 1, 0, 0]], "rows[0][0] must be an int or a Fraction, not 'float'"),
            (Subspace.span, [[A, 0.5, 0, 0]], "rows[0][1] must be an int or a Fraction, not 'float'"),
            (lambda n1: Weight(n1, 0, 0), 0.1, "n1 must be an int or a Fraction, not 'float'"),
            (lambda m2: CocharTuple((1, m2, 0, 0)), True, "m[1] must be an int or a Fraction, not 'bool'"),
            (lambda v: AddChar("T_to_E", (0, 0, v), (0, 0, 0)), "1", "val[2] must be an int or a Fraction, not 'str'"),
            (lambda v: AddChar("T_to_E", (0, 0, 0), (v, 0, 0)), 0.5, "log[0] must be an int or a Fraction, not 'float'"),
            (is_zero, 0.0, "x must be an int or a Fraction, not 'float'"),
            (scalar_str, 0.5, "x must be an int or a Fraction, not 'float'"),
            (lambda a: Poly2.var("a").evaluate(a, 1), 0.5, "a must be an int or a Fraction, not 'float'"),
            # an index is not truncated, nor a bool read as 1
            (from_oneline, [1.9, 2, 3, 4], "perm[0] must be an int, not 'float'"),
            (WeylElem, (True, 2, 3, 4), "perm[0] must be an int, not 'bool'"),
            (partial(Constituent.C, reflection=1), {1.7}, "an index_set entry must be an int, not 'float'"),
            (partial(Constituent.C, {1}), True, "reflection must be an int, not 'bool'"),
            (constituents, True, "i must be an int, not 'bool'"),
            (partial(constituent_of, W_ID), 1.0, "i must be an int, not 'float'"),
            (partial(socle_constituents, "Q"), {1.0}, "an I entry must be an int, not 'float'"),
            (lambda n: Poly2.var("a") ** n, True, "n must be an int, not 'bool'"),
            (lambda n: A**n, 2.0, "n must be an int, not 'float'"),
            (lambda e: Poly2({(e, 0): 1}), 1.5, "an exponent of (1.5, 0) must be an int, not 'float'"),
            # coordinate_subspace([1.0, 2.5]) was e1 and a zero row, S1(True) was 2
            (coordinate_subspace, [1.0, 2.5], "an index must be an int, not 'float'"),
            (S1, True, "i must be an int, not 'bool'"),
            (partial(eigenline_grid(2, 3).line, W_ID), 1.0, "i must be an int, not 'float'"),
        ),
        ids=("recover_parameters", "Poly2", "parse_scalar", "validate", "hecke_charpoly", "from_word",
             "padic_val-float", "padic_val-bool", "padic_val-str", "weak_admissibility-float-alpha",
             "PhiModuleData-float-weights", "PhiModuleData-float-alpha", "PhiModuleData-bool-alpha",
             "PhiModuleData-float-a", "Poly2-float-term", "Poly2-bool-term", "Poly2.const-float",
             "Poly2.const-bool", "RatFunc.const-float", "RatFunc.const-bool", "RatFunc.const-str",
             "classify-float-weight", "classify-float-C", "classify-float-alpha", "classify-float-p",
             "HeckeData-float-l", "HeckeData-float-c0", "HeckeData-bool-c2", "FrobeniusData-float-coeff",
             "FrobeniusData-float-sim", "ideal_generators-float-l", "ideal_generators-tuple-f",
             "ideal_generators-None-f", "ideal_generators-bool-l", "rank-float", "rank-str",
             "Subspace.span-float", "Subspace.span-float-symbolic", "Weight-float", "CocharTuple-bool",
             "AddChar-str-val", "AddChar-float-log", "is_zero-float", "scalar_str-float", "Poly2.evaluate-float",
             "from_oneline-float", "WeylElem-bool", "Constituent.C-float-index", "Constituent.C-bool-reflection",
             "constituents-bool", "constituent_of-float", "socle_constituents-float", "Poly2-pow-bool",
             "RatFunc-pow-float", "Poly2-float-exponent", "coordinate_subspace-float", "WeylElem-call-bool",
             "EigenlineGrid.line-float"),
    )
    def test_wrong_type_is_a_type_error(self, call, arg, message):
        # the argument is named, not met by an AttributeError or a silent coercion
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call(arg)

    @pytest.mark.parametrize(
        "call, arg, message",
        (
            # a zero row once stood in for e_7, S1(0) read perm[-1], and line 0 was line 4
            (coordinate_subspace, [1, 7], "indices [1, 7] are not all in 1..4"),
            (S1, 0, "index 0 is not in 1..4"),
            (S1, 5, "index 5 is not in 1..4"),
            (partial(eigenline_grid(2, 3).line, W_ID), 0, "line index 0 is not in 1..4"),
        ),
        ids=("coordinate_subspace", "WeylElem-call-0", "WeylElem-call-5", "EigenlineGrid.line"),
    )
    def test_index_outside_one_to_four_is_invalid(self, call, arg, message):
        with pytest.raises(InvalidData, match=f"^{re.escape(message)}$"):
            call(arg)

    @pytest.mark.parametrize(
        "x, op",
        [(Poly2.var("a"), op) for op in (operator.add, operator.sub, operator.mul, operator.pow)]
        + [(A, op) for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow)],
        ids=("Poly2-add", "Poly2-sub", "Poly2-mul", "Poly2-pow", "RatFunc-add", "RatFunc-sub", "RatFunc-mul",
             "RatFunc-truediv", "RatFunc-pow"),
    )
    @pytest.mark.parametrize("c", (True, False, 0.5), ids=("True", "False", "float"))
    def test_bool_and_float_operands_are_type_errors(self, x, op, c):
        # a bool is no exact constant to any operator, in either order: a * True
        # and a ** True were a
        for left, right in ((x, c), (c, x)):
            with pytest.raises(TypeError):
                op(left, right)

    @pytest.mark.parametrize(
        "x",
        (Poly2.const(1), Poly2.const(0), Poly2.const(Q(1, 2)), RatFunc.const(1), RatFunc.const(0),
         RatFunc.const(Q(1, 2)), A),
        ids=("Poly2-1", "Poly2-0", "Poly2-half", "RatFunc-1", "RatFunc-0", "RatFunc-half", "RatFunc-a"),
    )
    @pytest.mark.parametrize("c", (True, False, 0.5), ids=("True", "False", "float"))
    def test_equality_with_a_bool_or_float_is_false(self, x, c):
        # Poly2.const(1) == True raised TypeError, and RatFunc.const(1) == True was True
        assert (x == c) is False and (c == x) is False
        assert x != c and c != x
        assert x not in [c] and c not in [x]

    def test_equality_with_an_exact_constant_holds(self):
        assert Poly2.const(1) == 1 and 1 == Poly2.const(1)
        assert RatFunc.const(1) == Q(1) and Q(1) == RatFunc.const(1)
        assert Poly2.const(Q(1, 2)) == Q(1, 2) and RatFunc.const(0) == 0


class TestFractionFromPair:
    """scalars._fraction builds n/d from one gcd and the two slots that
    CPython's Fraction keeps, _numerator and _denominator (3.10 to 3.13)."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        st.one_of(st.just(0), st.integers(-(2**200), 2**200)),
        st.one_of(st.sampled_from((1, -1)), st.integers(-(2**200), 2**200).filter(bool)),
    )
    @example(0, -1)
    @example(-6, -4)
    def test_matches_the_constructor(self, n, d):
        got, want = scalars._fraction(n, d), Q(n, d)
        assert type(got) is Q
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want) and str(got) == str(want) and got == want


class TestCoprimeCertificate:
    """_polygcd._certified_coprime, after Brown's modular gcd, is one-sided:
    it answers True only for coprime views, and poly_gcd then runs no
    pseudo-remainder sequence; every other pair takes the PRS as before."""

    def test_modulus_is_prime(self):
        # Euclid mod _P and both steps of the proof need F_P to be a field
        assert is_prime(polygcd._P) and polygcd._P < 2**30

    @given(_FACTORS, _FACTORS, _FACTORS, _NONZERO_Q, _NONZERO_Q)
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_certified_pairs_are_coprime(self, common, only_p, only_q, sp, sq):
        fp, fq = Counter(common + only_p), Counter(common + only_q)
        p, q = _product(fp).scale(sp), _product(fq).scale(sq)
        assume(not p.is_const() and not q.is_const())
        if _certified_coprime(p._view, q._view):
            assert not fp & fq and _view_gcd_is_one(p, q)

    def test_pool_products(self):
        # every pair of products of one or two pool irreducibles: a certified
        # pair shares no irreducible, and every pair that shares none is
        # certified
        counts = [Counter(c) for k in (1, 2) for c in combinations_with_replacement(range(len(_IRREDUCIBLES)), k)]
        views = [_product(c)._view for c in counts]
        coprime = certified = 0
        for cp, fv in zip(counts, views):
            for cq, gv in zip(counts, views):
                coprime += not cp & cq
                if _certified_coprime(fv, gv):
                    assert not cp & cq
                    certified += 1
        assert certified == coprime

    @pytest.mark.parametrize(
        "p, q, gcd",
        (
            ("a*b + a", "a*b - a", "a"),  # a common factor in Z[a] alone: a divides both leads
            ("(a + 1)*(b + 1)", "(a + 1)*(b - 1)", "a + 1"),  # the same, found by Euclid in F_P[a]
            (f"{polygcd._P}*a*b + 1", "a*b + 2", "1"),  # a leading integer divisible by P
            (f"{polygcd._P}*b + a", f"{polygcd._P}*b + a + 1", "1"),  # both leading integers
            ("(a + 1)*(a + 2)", "(a + 1)*(a - 3)", "a + 1"),  # both inputs in Z[a]
            ("(b + 1)*(a*b + 1)", "(b + 1)*(a + b)", "b + 1"),  # a common factor of positive b-degree
        ),
    )
    def test_falls_back_to_the_prs(self, monkeypatch, p, q, gcd):
        p, q = _poly(p), _poly(q)
        assert not _certified_coprime(p._view, q._view)
        calls, real = [], polygcd._gcd
        monkeypatch.setattr(polygcd, "_gcd", lambda f, g: calls.append(1) or real(f, g))
        assert poly_gcd(p, q) == _poly(gcd) and calls

    @pytest.mark.parametrize(
        "p, q",
        (
            ("2*a*b + 6*a + 8*b + 23", "4*b + 10"),  # a gcd of a symbolic-generic op at (a + 3, 2b + 5)
            ("a + 1", "a + 2"),  # both in Z[a]: the images at a0 are constants
            ("a*b + 1", "(a + 1)*b + 3"),  # lf = a vanishes at 0: a0 = 1 is the first point off lf*lg
            ("(a + b + 1)**8", "(b + 2*a + 5)**8"),
            ("a*b + 1", "b + 1"),  # the images at a0 = 1 share b + 1; those at a0 = 2 are coprime
            ("b", "a*b + a + b"),  # the images at a0 = 0 are both b; those at a0 = 1 are coprime
            ("2*a + 8", "2*a*b + 6*a + 8*b + 23"),  # lf and lg share a + 4, the coefficient 6a + 23 does not
            ("a + 1", "(a + 1)*b + a"),  # likewise: a + 1 divides lf and lg but not a
        ),
    )
    def test_certified_pair_runs_no_prs(self, monkeypatch, p, q):
        p, q = _poly(p), _poly(q)
        assert _view_gcd_is_one(p, q)

        def forbidden(*args):
            raise AssertionError("a certified pair ran the pseudo-remainder sequence")

        monkeypatch.setattr(polygcd, "_gcd", forbidden)
        assert _certified_coprime(p._view, q._view) and poly_gcd(p, q) == Poly2.const(1)

    @pytest.mark.parametrize(
        "point, prems",
        (
            (("(a+b+1)**8", "(b+2*a+5)**8"), 0),
            (("a + 3", "2*b + 5"), 0),
            (("a", "b"), 0),
            (("a - 1", "b"), 0),
        ),
        ids=("degree-8", "generic", "identity", "shifted-by-one"),
    )
    def test_pseudo_remainders_of_kernel_and_suite(self, monkeypatch, point, prems):
        # kernel_basis then matrix_suite: every gcd but the counted ones is
        # certified; the kernel still evaluates to the kernel at a point
        from gsp4hodge.kernel import kernel_basis, matrix_suite

        a, b = (parse_scalar(t, symbolic=True) for t in point)
        calls, real = [], polygcd._prem
        monkeypatch.setattr(polygcd, "_prem", lambda f, g: calls.append(1) or real(f, g))
        K = kernel_basis(a, b)
        matrix_suite(a, b)
        assert len(calls) == prems
        monkeypatch.undo()
        at = (a.evaluate(2, 3), b.evaluate(2, 3))
        assert [[x.evaluate(2, 3) for x in row] for row in K.rows] == [list(row) for row in kernel_basis(*at).rows]


class TestImmutableRatFunc:
    """num and den are fixed at construction, as the value classes' fields are."""

    def test_fields_refuse_assignment_and_deletion(self):
        r = (A + 1) / (B - 2)
        for change in (
            lambda: setattr(r, "num", Poly2.const(7)),
            lambda: setattr(r, "den", Poly2.const(1)),
            lambda: delattr(r, "num"),
            lambda: delattr(r, "den"),
        ):
            with pytest.raises(AttributeError):
                change()
        assert str(r) == "(a + 1)/(b - 2)"

    @pytest.mark.parametrize("route", (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))))
    def test_copies_keep_the_canonical_pair(self, route):
        for r in (RatFunc.const(0), RatFunc.const(Q(-3, 4)), A, (A + 1) / (B - 2), (2 * A * B + 1) / (3 * A)):
            c = route(r)
            assert type(c) is RatFunc and c == r and hash(c) == hash(r) and str(c) == str(r)
            with pytest.raises(AttributeError):
                c.num = Poly2.const(7)
