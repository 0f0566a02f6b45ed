"""Exact scalar arithmetic: rationals, the field Q(a,b), and p-adic valuations.

Every computation in the package runs over one of two coefficient fields:
plain rationals (``fractions.Fraction``) or bivariate rational functions in
the formal Hodge parameters ``a`` and ``b`` (:class:`RatFunc`).  Both are
kept in a unique canonical form so that equality is a plain comparison.
No floating point is used anywhere.
"""

from __future__ import annotations

import _ast  # the node classes ast re-exports, without loading ast
import os
from fractions import Fraction as Q
from math import gcd as _int_gcd, lcm as _int_lcm

from ._value import Value, _set
from .errors import (
    DegreeCapExceeded,
    DivisionByZero,
    InvalidData,
    ParseError,
    ZeroArgument,
)

Monomial = tuple[int, int]  # (exponent of a, exponent of b)

#: The exact types of an integer and of a rational value; SCALAR, below
#: RatFunc, adds the field Q(a, b), and weyl.WEYL is a Weyl element.
INTEGER, RATIONAL = (int,), (int, Q)


def require_type(name: str, x, types: tuple):
    """The one type gate of a value a caller hands in: x, an int lifted to
    a Fraction under RATIONAL, if its type is one of types itself, so no
    float (not exact) or bool (an int subclass) is read; else a TypeError
    names x, each type with its article ("an int, a Fraction or a
    RatFunc") and the type of x."""
    if type(x) not in types:
        *init, last = [f"{'an' if t.__name__[0] in 'AEIOUaeiou' else 'a'} {t.__name__}" for t in types]
        kind = f"{', '.join(init)} or {last}" if init else last
        raise TypeError(f"{name} must be {kind}, not {type(x).__name__!r}")
    return Q(x) if types is RATIONAL and type(x) is int else x


def _degree_cap() -> int | None:
    raw = os.environ.get("GSP4H_MAX_DEGREE")
    return int(raw) if raw else None


def _grlex_key(m: Monomial) -> tuple[int, int]:
    # Graded lexicographic with a > b: total degree first, then a-exponent.
    return (m[0] + m[1], m[0])


class Poly2:
    """Bivariate polynomial in a, b with rational coefficients.

    Immutable, stored as ``scale * view``: ``view`` is a primitive integer
    polynomial in the form of the section below, with a positive leading
    integer, and ``scale`` is a Fraction; zero is ``0 * {}``.  By Gauss's
    lemma this form is unique, so equal polynomials have equal fields.
    """

    __slots__ = ("_scale", "_view")

    def __init__(self, terms: dict[Monomial, Q] | None = None):
        coeffs = []
        for mono, c in require_type("Poly2 terms", {} if terms is None else terms, (dict,)).items():
            for e in require_type("a monomial", mono, (tuple,)):
                require_type(f"an exponent of {mono}", e, INTEGER)
            if len(mono) != 2 or min(mono) < 0:
                raise InvalidData(f"a monomial is a pair of exponents >= 0, not {mono}")
            coeffs.append((mono, require_type(f"terms[{mono}]", c, RATIONAL)))
        denom = _int_lcm(*(c.denominator for _, c in coeffs))
        view: dict = {}
        for (da, db), c in coeffs:
            if c:
                view.setdefault(db, {})[da] = c.numerator * (denom // c.denominator)
        self._view, self._scale = _strip(view, Q(1, denom))

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "Poly2":
        c = require_type("c", c, RATIONAL)
        return _poly(_UNIT if c else {}, c)

    @staticmethod
    def var(name: str) -> "Poly2":
        if name == "a":
            return Poly2({(1, 0): Q(1)})
        if name == "b":
            return Poly2({(0, 1): Q(1)})
        raise ParseError(f"unknown symbol {name!r}, expected 'a' or 'b'")

    # -- basic structure ----------------------------------------------

    def _terms(self) -> dict[Monomial, Q]:
        """The nonzero coefficients, keyed by monomial."""
        s = self._scale
        return {(da, db): s * c for db, u in self._view.items() for da, c in u.items()}

    def is_zero(self) -> bool:
        return not self._view

    def is_const(self) -> bool:
        return not self._view or self._view == _UNIT

    def const_value(self) -> Q:
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self._scale

    def total_degree(self) -> int:
        return max((da + db for db, u in self._view.items() for da in u), default=0)

    def leading_coeff(self) -> Q:
        """The coefficient of the grlex-leading monomial."""
        if not self._view:
            raise ValueError("zero polynomial has no leading coefficient")
        da, db = max(((da, db) for db, u in self._view.items() for da in u), key=_grlex_key)
        return self._scale * self._view[db][da]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _lift(other, Poly2)
        if other is NotImplemented:
            return NotImplemented
        return linear_combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self._view, -self._scale)

    def __sub__(self, other):
        other = _lift(other, Poly2)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Poly2):
            return self.scale(other) if type(other) in RATIONAL else NotImplemented
        # A constant factor changes only the scale.
        if other.is_const():
            return self.scale(other._scale)
        if self.is_const():
            return other.scale(self._scale)
        # A product of views is a view (Gauss's lemma).
        product = _poly(_mul(self._view, other._view), self._scale * other._scale)
        # Only a product of two non-constant polynomials outgrows its
        # inputs' degree, so the cap is checked here.
        cap = _degree_cap()
        if cap is not None and product.total_degree() > cap:
            raise DegreeCapExceeded(
                f"polynomial degree {product.total_degree()} exceeds GSP4H_MAX_DEGREE={cap}"
            )
        return product

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if require_type("n", n, INTEGER) < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly2.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c: int | Q) -> "Poly2":
        """c * self for an int or a Fraction c: a new scale on the same view."""
        if c == 1:
            return self
        return _poly(self._view, self._scale * c) if c else _poly({}, Q(0))

    def evaluate(self, a, b) -> Q:
        a, b = require_type("a", a, RATIONAL), require_type("b", b, RATIONAL)
        return sum((c * a**da * b**db for (da, db), c in self._terms().items()), Q(0))

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        other = _lift(other, Poly2)
        if other is NotImplemented:
            return NotImplemented
        return self._scale == other._scale and self._view == other._view

    def __bool__(self):
        return bool(self._view)

    def __hash__(self):
        # a constant hashes as the int or Fraction that it equals
        return hash(self._scale) if self.is_const() else hash(frozenset(self._terms().items()))

    # -- display ---------------------------------------------------------

    def __str__(self):
        terms = self._terms()
        if not terms:
            return "0"
        parts = []
        for mono in sorted(terms, key=_grlex_key, reverse=True):
            coef = terms[mono]
            factors = [sym if exp == 1 else f"{sym}**{exp}" for sym, exp in zip("ab", mono) if exp]
            if abs(coef) != 1 or not factors:
                factors.insert(0, str(abs(coef)))
            parts.append(("-" if coef < 0 else "+") + " " + "*".join(factors))
        text = " ".join(parts)  # "+ a - 2*b": the leading sign drops its space, or its "+"
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return f"Poly2({self})"


def linear_combination(terms) -> Poly2:
    """The sum of c * p over pairs (c, p) of an int c and a Poly2 p,
    stripped once: over the common denominator L of the scales, c * p is an
    integer multiplier c * scale * L times p's view.  The multipliers are
    divided by their gcd k, signed like the first, so that terms of one
    scale add their views as they are; _add sums the views and the content
    is taken at the end, over the scale k / L.  Poly2.__add__ is this sum."""
    den = _int_lcm(*(p._scale.denominator for _, p in terms))
    ks = [(c * p._scale.numerator * (den // p._scale.denominator), p._view) for c, p in terms if c and p._view]
    k = _int_gcd(*(m for m, _ in ks))
    k = -k if ks and ks[0][0] < 0 else k
    out = {}
    for m, view in ks:  # the first view is shared, not copied, when its multiplier is 1
        out = _add(out, view, m // k) if out else view if m == k else _add({}, view, m // k)
    return _poly(*_strip(out, Q(k, den)))


def _lift(x, cls):
    """An operand of cls (Poly2 or RatFunc) arithmetic as a cls: itself, or
    the constant of an int or a Fraction.  Any other, a bool and a float
    among them, is NotImplemented, so == is False and + raises TypeError."""
    if isinstance(x, cls):
        return x
    return cls.const(x) if type(x) in RATIONAL else NotImplemented


def _fraction(n: int, d: int) -> Q:
    """The Fraction n/d for ints n and d != 0, reduced by one gcd whose
    sign is d's, so the denominator is positive, and built without
    Fraction.__new__, as CPython's Fraction._from_coprime_ints (3.12+)
    does: the two slots are set on a bare instance."""
    g = _int_gcd(n, d)
    if d < 0:
        g = -g
    x = object.__new__(Q)
    x._numerator, x._denominator = n // g, d // g
    return x


def _poly(view, scale: Q) -> Poly2:
    """The Poly2 scale * view of a canonical pair, built without __init__."""
    p = object.__new__(Poly2)
    p._view, p._scale = view, scale
    return p


def _flat_poly(terms, k: int, scale: Q) -> Poly2:
    """The Poly2 scale * view for flat nonzero integer terms
    ((b-degree, a-degree), c) whose content, signed like the leading one,
    is k: the view is the terms divided by k, nested as Poly2 keeps it."""
    view, last = {}, None
    for (db, da), c in terms:
        if db != last:  # terms of one b-degree come together
            u, last = view.setdefault(db, {}), db
        u[da] = c // k
    return _poly(view, scale)


# ---------------------------------------------------------------------------
# Integer polynomials.  A Poly2 keeps its coefficients as one rational scale
# times a primitive integer polynomial viewed in b over Z[a].  A polynomial
# over Z in a, or over Z[a] in b, is a dict {degree: coefficient} with no
# zero coefficients, whose coefficients are ints or, one level up, such
# dicts.  Each routine below serves both levels, branching on
# ``type(x) is int`` at the leaf.  Sums, products and exact quotients of
# Poly2s work on these dicts directly; the gcd of two nonconstant views is
# computed in _polygcd, which poly_gcd imports when it first needs it.
# ---------------------------------------------------------------------------

_ONE = {0: 1}  # the unit of Z[a]
_UNIT = {0: _ONE}  # the view of a nonzero constant
_ONE_POLY = _poly(_UNIT, Q(1))


def _add(f, g, k=1):
    """f + k * g for a nonzero integer k."""
    out = dict(f)
    for d, c in g.items():
        if d in out:
            c = out[d] + k * c if type(c) is int else _add(out[d], c, k)
        elif k != 1:
            c = k * c if type(c) is int else _add({}, c, k)
        if c:
            out[d] = c
        else:
            del out[d]
    return out


def _mul(f, g):
    out = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            d = d1 + d2
            if type(c1) is int:
                out[d] = out.get(d, 0) + c1 * c2
            else:
                c = _mul(c1, c2)
                out[d] = _add(out[d], c) if d in out else c
    return {d: c for d, c in out.items() if c}


def _lead(f) -> int:
    """The leading integer of the nonzero f: highest degree first, level by level."""
    while type(f) is not int:
        f = f[max(f)]
    return f


def _icontent(f) -> int:
    """Nonnegative gcd of the integers in f (0 for the zero polynomial)."""
    c = 0
    for x in f.values():
        c = _int_gcd(c, x if type(x) is int else _icontent(x))
        if c == 1:
            break
    return c


def _idiv(f, k: int):
    """f with every integer divided by k, which must divide them all."""
    return {d: x // k if type(x) is int else _idiv(x, k) for d, x in f.items()}


def _strip(view, scale: Q):
    """scale * view as a canonical pair: the content of the integer view,
    signed like its leading integer, moves into the scale."""
    if not view:
        return view, Q(0)
    c = _icontent(view) if _lead(view) > 0 else -_icontent(view)
    return (view, scale) if c == 1 else (_idiv(view, c), scale * c)


def _divexact(f, g):
    """Exact quotient f / g of ints or polynomials; ValueError if inexact."""
    if type(f) is int:
        q, r = divmod(f, g)
        if r:
            raise ValueError("inexact polynomial division")
        return q
    dg = max(g)
    lg = g[dg]
    q = {}
    while f:
        df = max(f)
        if df < dg:
            raise ValueError("inexact polynomial division")
        c = q[df - dg] = _divexact(f[df], lg)
        f = _add(f, _mul(g, {df - dg: c}), -1)
    return q


_polygcd = None  # the module of the Z[a][b] gcd routines, once poly_gcd has needed it


def poly_gcd(p: Poly2, q: Poly2) -> Poly2:
    """Monic gcd of two bivariate polynomials (1 for coprime inputs)."""
    global _polygcd
    if p.is_zero() or q.is_zero():
        g = p + q  # the other one
    elif p.is_const() or q.is_const():
        return _ONE_POLY
    else:
        if _polygcd is None:
            from . import _polygcd
        if _polygcd._certified_coprime(p._view, q._view):
            return _ONE_POLY
        # the gcd of two views is a view (Gauss's lemma)
        g = _poly(_polygcd._gcd(p._view, q._view), Q(1))
    return g.scale(1 / g.leading_coeff()) if g else g


def poly_divexact(p: Poly2, d: Poly2) -> Poly2:
    """Exact division p/d over Q; raises if d does not divide p."""
    if d.is_zero():
        raise DivisionByZero("polynomial division by zero")
    # The quotient of two views is exact over Z and a view (Gauss's lemma).
    return _poly(_divexact(p._view, d._view), p._scale / d._scale)


def _cancel(p: Poly2, q: Poly2) -> tuple[Poly2, Poly2, Poly2]:
    """p / g, q / g and g for g = poly_gcd(p, q), or p and q themselves
    when g is a unit: the one place where Q(a, b) cancels a common factor."""
    g = poly_gcd(p, q)
    if g.is_const():
        return p, q, g
    return poly_divexact(p, g), poly_divexact(q, g), g


# ---------------------------------------------------------------------------
# The rational function field Q(a, b)
# ---------------------------------------------------------------------------


class RatFunc:
    """Element of Q(a,b) in canonical form.

    Invariants: the denominator is nonzero with grlex leading coefficient 1,
    and gcd(num, den) = 1.  Equality and hashing act on the canonical pair.
    Two constructors, as for Poly2: RatFunc(num, den) takes any pair of
    Poly2s, cancels it through _cancel, which maps 0/d to 0/1, and makes the
    denominator monic; _ratfunc builds a pair that is canonical already,
    as the field operations below and the table evaluator produce.
    Immutable: ``num`` and ``den`` cannot be reassigned or deleted, so a
    cell shared by several tables or callers stays what it was built as.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2 | None = None):
        den = _ONE_POLY if den is None else den
        for name, part in (("numerator", num), ("denominator", den)):
            require_type(f"RatFunc {name}", part, (Poly2,))
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        num, den, _ = _cancel(num, den)
        inv = 1 / den.leading_coeff()
        num, den = num.scale(inv), den.scale(inv)
        _set(self, "num", num)
        _set(self, "den", den)

    __setattr__ = Value.__setattr__
    __delattr__ = Value.__delattr__

    def __reduce__(self):
        # copy and pickle rebuild the canonical pair: the slots refuse setattr
        return _ratfunc, (self.num, self.den)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return _ratfunc(Poly2.const(c), _ONE_POLY)

    @staticmethod
    def var(name: str) -> "RatFunc":
        return _ratfunc(Poly2.var(name), _ONE_POLY)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Q:
        if not self.is_const():
            raise ValueError("not a constant rational function")
        return self.num.const_value() / self.den.const_value()

    # -- field operations -------------------------------------------------
    #
    # Operands are already reduced, so sums and products only need the
    # classical cross-gcd reductions, each one call to _cancel, and their
    # results are canonical pairs, built by _ratfunc: poly_gcd returns a
    # monic g and the grlex leading coefficient is multiplicative, so a
    # product or quotient of monic polynomials is monic.  Only / rescales.

    def __add__(self, other):
        other = _lift(other, RatFunc)
        if other is NotImplemented:
            return NotImplemented
        # Henrici: with denominators d1*g and d2*g, only g can share a factor with the sum
        d1, d2, g = _cancel(self.den, other.den)
        num, g, _ = _cancel(self.num * d2 + other.num * d1, g)
        return _ratfunc(num, d1 * g * d2)

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(-self.num, self.den)

    def __sub__(self, other):
        other = _lift(other, RatFunc)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) in RATIONAL:  # c * num is coprime to den for c != 0
            return _ratfunc(self.num.scale(other), self.den) if other else RatFunc.const(0)
        other = _lift(other, RatFunc)
        if other is NotImplemented:
            return NotImplemented
        n1, d2, _ = _cancel(self.num, other.den)
        n2, d1, _ = _cancel(other.num, self.den)
        return _ratfunc(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) in RATIONAL:
            if not other:
                raise DivisionByZero("division by zero rational function")
            return _ratfunc(self.num.scale(Q(other.denominator, other.numerator)), self.den)
        other = _lift(other, RatFunc)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        inv = 1 / other.num.leading_coeff()  # the one rescale a field operation needs
        return self * _ratfunc(other.den.scale(inv), other.num.scale(inv))

    def __rtruediv__(self, other):
        other = _lift(other, RatFunc)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if require_type("n", n, INTEGER) < 0:
            return RatFunc.const(1) / self ** (-n)
        return _ratfunc(self.num**n, self.den**n)

    def evaluate(self, a, b) -> Q:
        d = self.den.evaluate(a, b)
        if d == 0:
            raise DivisionByZero(f"denominator vanishes at ({a}, {b})")
        return self.num.evaluate(a, b) / d

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        other = _lift(other, RatFunc)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return not self.num.is_zero()

    def __hash__(self):
        # over the denominator 1, as its numerator, so a constant hashes as its value
        return hash(self.num) if self.den.is_const() else hash((self.num, self.den))

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def _ratfunc(num: Poly2, den: Poly2) -> RatFunc:
    """The RatFunc num/den of a canonical pair, built without __init__."""
    r = object.__new__(RatFunc)
    _set(r, "num", num)
    _set(r, "den", den)
    return r


# ---------------------------------------------------------------------------
# Scalar-level operations
# ---------------------------------------------------------------------------

Scalar = Q | RatFunc
SCALAR = (int, Q, RatFunc)  # the exact types of a point's a and b


def is_zero(x: Scalar) -> bool:
    """Exact zero test on either scalar variant.  x must be an int, a
    Fraction or a RatFunc; a TypeError names any other."""
    if isinstance(x, RatFunc):
        return x.is_zero()
    return not require_type("x", x, RATIONAL)


def ring_pair(x) -> tuple:
    """x as numerator and denominator in the ring under its field: ints for
    a Fraction or an int, Poly2s for a RatFunc."""
    return (x.num, x.den) if isinstance(x, RatFunc) else (x.numerator, x.denominator)


def _int_val(n: int, p: int) -> int:
    """Exponent v of p in a positive integer, by a doubling ladder: each
    pass divides by the largest p**(2**k) that divides, so O(log² v)
    divisions in all; each is CPython's long division, quadratic in n's size."""
    if p == 2:  # trailing zero bits; the ladder divides in time quadratic in n's size
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        q, e = p, 1
        while n % (q * q) == 0:
            q, e = q * q, e * 2
        n //= q
        v += e
    return v


def padic_val(x, p: int) -> int:
    """Exponent of the prime p in the nonzero rational x; InvalidData unless
    is_prime(p), since for p = 1 the count would not end.  x must be an
    int or a Fraction; a TypeError names any other, a float (not exact),
    a bool and a str too."""
    x = require_type("x", x, RATIONAL)
    if not is_prime(p):
        raise InvalidData(f"p-adic valuation needs a prime p, got {p}")
    if x == 0:
        raise ZeroArgument("p-adic valuation of zero")
    return _int_val(abs(x.numerator), p) - _int_val(x.denominator, p)


#: is_prime decides n below this bound.  Miller-Rabin with the twelve bases
#: below is exact for n < 318,665,857,834,031,151,167,461, which is itself a
#: strong pseudoprime to all twelve (Sorenson and Webster, Math. Comp. 86,
#: 2017).
PRIME_BOUND = 2**64
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; InvalidData for n >= PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise InvalidData(f"cannot decide whether {n} is prime: it is not below 2**64")
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for q in _MILLER_RABIN_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def scalar_str(x: Scalar) -> str:
    """Canonical string form: "num/den" rationals or polynomial quotients.
    x must be an int, a Fraction or a RatFunc; a TypeError names any other."""
    if isinstance(x, RatFunc):
        return str(x)
    return str(require_type("x", x, RATIONAL))


#: The largest exponent parse_scalar accepts.  Integer literals, and bits of
#: x times n for a power x**n, are at most MAX_EXPONENT**2; total degree of x
#: times n is at most MAX_EXPONENT.
MAX_EXPONENT = 64


def _check_power_size(x: Scalar | Poly2, n: int) -> None:
    """Reject x**n, before computing it, when it would pass the MAX_EXPONENT bounds."""
    if isinstance(x, Q):
        coeffs = [x]
    else:
        parts = (x.num, x.den) if isinstance(x, RatFunc) else (x,)
        degree = max(part.total_degree() for part in parts)
        if degree * n > MAX_EXPONENT:
            raise ParseError(f"power of total degree {degree * n} exceeds {MAX_EXPONENT}")
        coeffs = [c for part in parts for c in part._terms().values()]
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs), default=0)
    if bits * n > MAX_EXPONENT**2:
        raise ParseError(f"power of {bits * n} bits exceeds {MAX_EXPONENT**2}")


def _as_field(x) -> Scalar:
    return _ratfunc(x, _ONE_POLY) if isinstance(x, Poly2) else x


def _eval_node(node, symbolic: bool):
    """A Fraction; in symbolic mode, a Poly2 up to the first division by a
    nonconstant polynomial and a RatFunc from there on, so that a quotient of
    polynomials is reduced once and a rational coefficient is only a scale.

    This is the only syntax gate: it evaluates integer literals, a, b,
    binary + - * / ** and unary + -, and rejects any other construct by
    its node or operator name alone, before evaluating that construct's
    operands, so the message never formats the node."""
    if isinstance(node, _ast.Expression):
        return _eval_node(node.body, symbolic)
    if isinstance(node, _ast.Constant):
        if type(node.value) is not int:  # bool is an int subclass: True is not 1 here
            raise ParseError(f"non-integer literal {node.value!r}")
        if node.value.bit_length() > MAX_EXPONENT**2:
            raise ParseError(f"integer literal of {node.value.bit_length()} bits exceeds {MAX_EXPONENT**2}")
        return Poly2.const(node.value) if symbolic else Q(node.value)
    if isinstance(node, _ast.Name):
        if not symbolic:
            raise ParseError(f"symbol {node.id!r} in numeric scalar")
        return Poly2.var(node.id)
    if isinstance(node, _ast.UnaryOp) and isinstance(node.op, (_ast.USub, _ast.UAdd)):
        val = _eval_node(node.operand, symbolic)
        return -val if isinstance(node.op, _ast.USub) else val
    if isinstance(node, _ast.BinOp) and isinstance(node.op, (_ast.Add, _ast.Sub, _ast.Mult, _ast.Div, _ast.Pow)):
        lhs = _eval_node(node.left, symbolic)
        rhs = _eval_node(node.right, symbolic)
        if isinstance(lhs, RatFunc) or isinstance(rhs, RatFunc):
            lhs, rhs = _as_field(lhs), _as_field(rhs)
        if isinstance(node.op, _ast.Add):
            return lhs + rhs
        if isinstance(node.op, _ast.Sub):
            return lhs - rhs
        if isinstance(node.op, _ast.Mult):
            return lhs * rhs
        if isinstance(node.op, _ast.Div):
            if not rhs:
                raise ParseError("division by zero in scalar expression")
            if isinstance(lhs, Poly2) and rhs.is_const():
                return lhs.scale(1 / rhs.const_value())
            return RatFunc(lhs, rhs) if isinstance(lhs, Poly2) else lhs / rhs
        if not isinstance(node.right, _ast.Constant):  # _ast.Pow; a Constant that evaluated is an int
            raise ParseError("exponents must be integer literals")
        n = node.right.value
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent {n} exceeds {MAX_EXPONENT}")
        _check_power_size(lhs, n)
        return lhs**n
    raise ParseError(f"forbidden syntax in scalar expression: {type(getattr(node, 'op', node)).__name__}")


def parse_scalar(text: str, symbolic: bool = False) -> Scalar:
    """Parse "3/4", "-2", "a*b + 1" or "(b + 1)/(a - 2)" style strings.

    Exponents, literals and powers are bounded as stated at MAX_EXPONENT,
    and an expression too deep to evaluate recursively is a ParseError.
    A text that is not a str is a TypeError."""
    require_type("text", text, (str,))
    try:
        # ast.parse(text, mode="eval") is this call, made from a module without future imports
        tree = compile(text.strip(), "<unknown>", "eval", _ast.PyCF_ONLY_AST, True)
    except (SyntaxError, ValueError) as exc:  # compile's ValueError: a lone surrogate, or a null byte before 3.12
        raise ParseError(f"bad scalar expression {text!r}: {exc}") from exc
    except (RecursionError, MemoryError) as exc:  # MemoryError: the parser's own stack overflowed
        raise ParseError("scalar expression nests too deeply") from exc
    try:
        return _as_field(_eval_node(tree, symbolic))
    except RecursionError as exc:
        raise ParseError("scalar expression nests too deeply") from exc


def parse_integer(value) -> int:
    """An integer field of an input document: a JSON integer or a decimal
    string.  Floats and booleans are rejected, not truncated."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"expected an integer, got {value!r}")


def parse_boolean(value) -> bool:
    """A boolean field of an input document: JSON true or false only, so
    that a string such as "false" is rejected, not read as true."""
    if isinstance(value, bool):
        return value
    raise ParseError(f"expected true or false, got {value!r}")


def parse_list(value) -> list:
    """A list field of an input document: a JSON list only, so that a
    string is rejected, not read one character at a time."""
    if isinstance(value, list):
        return value
    raise ParseError(f"expected a list, got {value!r}")


def required_field(doc: dict, name: str):
    """A required field of an input document; a ParseError names it when
    it is missing."""
    if name not in doc:
        raise ParseError(f"missing field {name!r}")
    return doc[name]
