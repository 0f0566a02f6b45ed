"""Exact scalar arithmetic: rationals, the field Q(a,b), and p-adic valuations.

Every computation in the package runs over one of two coefficient fields:
plain rationals (``fractions.Fraction``) or bivariate rational functions in
the formal Hodge parameters ``a`` and ``b`` (:class:`RatFunc`).  Both are
kept in a unique canonical form so that equality is a plain comparison.
No floating point is used anywhere.
"""

from __future__ import annotations

import ast
import os
from fractions import Fraction as Q
from math import gcd as _int_gcd, lcm as _int_lcm

from .errors import (
    DegreeCapExceeded,
    DivisionByZero,
    InvalidData,
    ParseError,
    VariantMismatch,
    ZeroArgument,
)

Monomial = tuple[int, int]  # (exponent of a, exponent of b)


def _degree_cap() -> int | None:
    raw = os.environ.get("GSP4H_MAX_DEGREE")
    return int(raw) if raw else None


def _grlex_key(m: Monomial) -> tuple[int, int]:
    # Graded lexicographic with a > b: total degree first, then a-exponent.
    return (m[0] + m[1], m[0])


class Poly2:
    """Bivariate polynomial in a, b with rational coefficients.

    Immutable; terms are stored sparsely and zero coefficients are never
    kept, so two equal polynomials have identical term dictionaries.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Q] | None = None):
        clean = {}
        for mono, coef in (terms or {}).items():
            coef = Q(coef)
            if coef:
                clean[(int(mono[0]), int(mono[1]))] = coef
        self._terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "Poly2":
        return Poly2({(0, 0): Q(c)})

    @staticmethod
    def var(name: str) -> "Poly2":
        if name == "a":
            return Poly2({(1, 0): Q(1)})
        if name == "b":
            return Poly2({(0, 1): Q(1)})
        raise ParseError(f"unknown symbol {name!r}, expected 'a' or 'b'")

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_const(self) -> bool:
        return not self._terms or set(self._terms) == {(0, 0)}

    def const_value(self) -> Q:
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self._terms.get((0, 0), Q(0))

    def total_degree(self) -> int:
        return max((da + db for da, db in self._terms), default=0)

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=_grlex_key)

    def leading_coeff(self) -> Q:
        return self._terms[self.leading_monomial()]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coef in other._terms.items():
            terms[mono] = terms.get(mono, 0) + coef
        return Poly2(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly2({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Monomial, Q] = {}
        for (da1, db1), c1 in self._terms.items():
            for (da2, db2), c2 in other._terms.items():
                mono = (da1 + da2, db1 + db2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        product = Poly2(terms)
        # Only a product outgrows its inputs' degree, so the cap is checked here.
        cap = _degree_cap()
        if cap is not None and product.total_degree() > cap:
            raise DegreeCapExceeded(
                f"polynomial degree {product.total_degree()} exceeds GSP4H_MAX_DEGREE={cap}"
            )
        return product

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly2.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c: Q) -> "Poly2":
        c = Q(c)
        return Poly2({m: coef * c for m, coef in self._terms.items()})

    def evaluate(self, a, b) -> Q:
        a, b = Q(a), Q(b)
        return sum((c * a**da * b**db for (da, db), c in self._terms.items()), Q(0))

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- display ---------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono in sorted(self._terms, key=_grlex_key, reverse=True):
            coef = self._terms[mono]
            factors = []
            for sym, exp in zip("ab", mono):
                if exp == 1:
                    factors.append(sym)
                elif exp > 1:
                    factors.append(f"{sym}**{exp}")
            if not factors:
                body = str(abs(coef))
            elif abs(coef) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coef))] + factors)
            sign = "-" if coef < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Poly2({self})"


def _as_poly(x) -> "Poly2":
    if isinstance(x, Poly2):
        return x
    if isinstance(x, (int, Q)):
        return Poly2.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# Polynomial gcd.  A rational polynomial is scaled to a primitive integer
# one (Gauss's lemma) and viewed in b over Z[a].  A polynomial over Z in a,
# or over Z[a] in b, is a dict {degree: coefficient} with no zero
# coefficients, whose coefficients are ints or, one level up, such dicts.
# Each routine below serves both levels, branching on ``type(x) is int`` at
# the leaf.  The gcd is a primitive pseudo-remainder sequence (Knuth, TAOCP
# vol. 2, 4.6.1, Algorithm E) with integer content stripped at every step,
# which keeps coefficient growth tame.
# ---------------------------------------------------------------------------

_ONE = {0: 1}  # the unit of Z[a]


def _add(f, g, sign=1):
    """f + sign * g."""
    out = dict(f)
    for d, c in g.items():
        if d in out:
            c = out[d] + sign * c if type(c) is int else _add(out[d], c, sign)
        elif sign < 0:
            c = -c if type(c) is int else _idiv(c, -1)
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


def _prem(f, g):
    """Remainder of f by g up to a scalar factor, integer content stripped
    every step (gcd use only)."""
    dg = max(g)
    lg = g[dg]
    while f and max(f) >= dg:
        df = max(f)
        mf, mg = lg, f[df]
        if type(lg) is int:
            c = _int_gcd(mf, mg)
            mf, mg = mf // c, mg // c
        f = _add(_mul(f, {0: mf}), _mul(g, {df - dg: mg}), -1)
        c = _icontent(f)
        if c > 1:
            f = _idiv(f, c)
    return f


def _primitive(f):
    """Content of the nonzero f (the gcd of its coefficients) and its
    primitive part f / content."""
    c = 0
    for x in f.values():
        c = _gcd(c, x)
        if c == 1 or c == _ONE:
            return c, f
    return c, {d: _divexact(x, c) for d, x in f.items()}


def _gcd(f, g):
    """Gcd of f and the nonzero g with a positive leading integer; f may be
    0, the zero of either level."""
    if type(g) is int:
        return _int_gcd(f, g)
    if f:
        (cf, f), (cg, g) = _primitive(f), _primitive(g)
        if max(f) < max(g):
            f, g = g, f
        # A nonzero remainder of degree 0 makes the next g a unit, so only
        # the content survives.
        while max(g) > 0:
            r = _prem(f, g)
            if not r:
                break
            f, g = g, _primitive(r)[1]
        g = _mul(g, {0: _gcd(cf, cg)})
    lead = g
    while type(lead) is not int:
        lead = lead[max(lead)]
    return _idiv(g, -1) if lead < 0 else g


def _zview(p: Poly2):
    """The nonzero p as s * P, P primitive over Z: P's view in b over Z[a],
    and the rational scale s."""
    denom = _int_lcm(*(c.denominator for c in p._terms.values()))
    view: dict = {}
    for (da, db), c in p._terms.items():
        view.setdefault(db, {})[da] = c.numerator * (denom // c.denominator)
    cont = _icontent(view)
    return _idiv(view, cont) if cont > 1 else view, Q(cont, denom)


def _from_zview(view, scale=1) -> Poly2:
    return Poly2({(da, db): c * scale for db, u in view.items() for da, c in u.items()})


def poly_gcd(p: Poly2, q: Poly2) -> Poly2:
    """Monic gcd of two bivariate polynomials (1 for coprime inputs)."""
    if p.is_zero():
        return _monic(q)
    if q.is_zero():
        return _monic(p)
    if p.is_const() or q.is_const():
        return Poly2.const(1)
    return _monic(_from_zview(_gcd(_zview(p)[0], _zview(q)[0])))


def poly_divexact(p: Poly2, d: Poly2) -> Poly2:
    """Exact division p/d over Q; raises if d does not divide p."""
    if d.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if p.is_zero():
        return Poly2()
    if d.is_const():
        return p.scale(1 / d.const_value())
    # Divide the primitive integer parts (exact by Gauss's lemma), then
    # restore the rational scale factor.
    (pv, scale_p), (dv, scale_d) = _zview(p), _zview(d)
    return _from_zview(_divexact(pv, dv), scale_p / scale_d)


def _monic(p: Poly2) -> Poly2:
    if p.is_zero():
        return p
    return p.scale(1 / p.leading_coeff())


# ---------------------------------------------------------------------------
# The rational function field Q(a, b)
# ---------------------------------------------------------------------------


class RatFunc:
    """Element of Q(a,b) in canonical form.

    Invariants: the denominator is nonzero with grlex leading coefficient 1,
    and gcd(num, den) = 1.  Equality and hashing act on the canonical pair.
    Every construction maps zero to 0/1 and makes the denominator monic;
    ``_coprime=True`` promises gcd(num, den) = 1 and skips only the gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2 | None = None, _coprime=False):
        den = Poly2.const(1) if den is None else den
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly2(), Poly2.const(1)
        else:
            if not _coprime:
                g = poly_gcd(num, den)
                if not g.is_const() or g.const_value() != 1:
                    num = poly_divexact(num, g)
                    den = poly_divexact(den, g)
            lead = den.leading_coeff()
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        self.num = num
        self.den = den

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly2.const(c))

    @staticmethod
    def var(name: str) -> "RatFunc":
        return RatFunc(Poly2.var(name))

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
    # classical cross-gcd reductions; the results below are coprime pairs,
    # which the constructor only makes monic.

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        g = poly_gcd(self.den, other.den)
        if g.is_const():
            num = self.num * other.den + other.num * self.den
            den = self.den * other.den
        else:
            d2g = poly_divexact(other.den, g)
            t = self.num * d2g + other.num * poly_divexact(self.den, g)
            h = poly_gcd(t, g)
            if h.is_const():
                num, den = t, self.den * d2g
            else:
                num = poly_divexact(t, h)
                den = poly_divexact(self.den, h) * d2g
        return RatFunc(num, den, _coprime=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _coprime=True)

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatFunc.const(0)
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.is_const() else poly_divexact(self.num, g1)
        d2 = other.den if g1.is_const() else poly_divexact(other.den, g1)
        n2 = other.num if g2.is_const() else poly_divexact(other.num, g2)
        d1 = self.den if g2.is_const() else poly_divexact(self.den, g2)
        return RatFunc(n1 * n2, d1 * d2, _coprime=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return self * RatFunc(other.den, other.num, _coprime=True)

    def __rtruediv__(self, other):
        return _as_ratfunc(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc.const(1) / self ** (-n)
        return RatFunc(self.num**n, self.den**n, _coprime=True)

    def evaluate(self, a, b) -> Q:
        d = self.den.evaluate(a, b)
        if d == 0:
            raise DivisionByZero(f"denominator vanishes at ({a}, {b})")
        return self.num.evaluate(a, b) / d

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return not self.num.is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def _as_ratfunc(x) -> "RatFunc":
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Q)):
        return RatFunc.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# Scalar-level operations
# ---------------------------------------------------------------------------

Scalar = Q | RatFunc


def is_zero(x: Scalar) -> bool:
    """Exact zero test on either scalar variant."""
    if isinstance(x, RatFunc):
        return x.is_zero()
    return Q(x) == 0


def field_arith(x: Scalar, y: Scalar, op: str) -> Scalar:
    """Strict field arithmetic: both operands must be the same variant."""
    x_sym = isinstance(x, RatFunc)
    y_sym = isinstance(y, RatFunc)
    if x_sym != y_sym:
        raise VariantMismatch(
            f"cannot mix {type(x).__name__} with {type(y).__name__}"
        )
    if not x_sym:
        x, y = Q(x), Q(y)
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        if is_zero(y):
            raise DivisionByZero("scalar division by zero")
        return x / y
    raise ParseError(f"unknown field operation {op!r}")


def _int_val(n: int, p: int) -> int:
    """Exponent of p in a positive integer; doubling ladder keeps the
    division count logarithmic in the exponent."""
    if p == 2:
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
    """Exponent of the prime p in the nonzero rational x."""
    x = Q(x)
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
    """Canonical string form: "num/den" rationals or polynomial quotients."""
    if isinstance(x, RatFunc):
        return str(x)
    return str(Q(x))


#: The largest exponent parse_scalar accepts.  Integer literals, and bits of
#: x times n for a power x**n, are at most MAX_EXPONENT**2; total degree of x
#: times n is at most MAX_EXPONENT.
MAX_EXPONENT = 64

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Name,
    ast.Load,
    ast.Constant,
)


def _check_power_size(x: Scalar, n: int) -> None:
    """Reject x**n, before computing it, when it would pass the MAX_EXPONENT bounds."""
    if isinstance(x, RatFunc):
        degree = max(x.num.total_degree(), x.den.total_degree())
        if degree * n > MAX_EXPONENT:
            raise ParseError(f"power of total degree {degree * n} exceeds {MAX_EXPONENT}")
        coeffs = [*x.num._terms.values(), *x.den._terms.values()]
    else:
        coeffs = [x]
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
    if bits * n > MAX_EXPONENT**2:
        raise ParseError(f"power of {bits * n} bits exceeds {MAX_EXPONENT**2}")


def _eval_node(node, symbolic: bool):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, symbolic)
    if isinstance(node, ast.Constant):
        if type(node.value) is not int:  # bool is an int subclass: True is not 1 here
            raise ParseError(f"non-integer literal {node.value!r}")
        if node.value.bit_length() > MAX_EXPONENT**2:
            raise ParseError(f"integer literal of {node.value.bit_length()} bits exceeds {MAX_EXPONENT**2}")
        return RatFunc.const(node.value) if symbolic else Q(node.value)
    if isinstance(node, ast.Name):
        if not symbolic:
            raise ParseError(f"symbol {node.id!r} in numeric scalar")
        return RatFunc.var(node.id)
    if isinstance(node, ast.UnaryOp):
        val = _eval_node(node.operand, symbolic)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.BinOp):
        lhs = _eval_node(node.left, symbolic)
        rhs = _eval_node(node.right, symbolic)
        if isinstance(node.op, ast.Add):
            return lhs + rhs
        if isinstance(node.op, ast.Sub):
            return lhs - rhs
        if isinstance(node.op, ast.Mult):
            return lhs * rhs
        if isinstance(node.op, ast.Div):
            if is_zero(rhs):
                raise ParseError("division by zero in scalar expression")
            return lhs / rhs
        if isinstance(node.op, ast.Pow):
            if not isinstance(node.right, ast.Constant) or not isinstance(
                node.right.value, int
            ):
                raise ParseError("exponents must be integer literals")
            n = node.right.value
            if n > MAX_EXPONENT:
                raise ParseError(f"exponent {n} exceeds {MAX_EXPONENT}")
            _check_power_size(lhs, n)
            return lhs**n
    raise ParseError(f"unsupported syntax in scalar expression: {ast.dump(node)}")


def parse_scalar(text: str, symbolic: bool = False) -> Scalar:
    """Parse "3/4", "-2", "a*b + 1" or "(b + 1)/(a - 2)" style strings.

    Exponents, literals and powers are bounded as stated at MAX_EXPONENT,
    and an expression too deep to evaluate recursively is a ParseError."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ParseError(f"forbidden syntax in scalar expression {text!r}")
        return _eval_node(tree, symbolic)
    except SyntaxError as exc:
        raise ParseError(f"bad scalar expression {text!r}: {exc}") from exc
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
