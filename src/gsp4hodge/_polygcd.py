"""The gcd of Z[a][b]: a primitive pseudo-remainder sequence (Knuth, TAOCP
vol. 2, 4.6.1, Algorithm E) with integer content stripped at every step,
which keeps coefficient growth tame, run only when a modular certificate
after Brown (J. ACM 18(4), 1971), which works mod one prime, cannot prove
the two views coprime.  Views are the integer polynomials of scalars, dicts
over Z in a, or over Z[a] in b.

scalars.poly_gcd imports this module on its first call with two
nonconstant arguments, so a command that takes no such gcd never compiles
it.
"""

from itertools import chain, count, islice
from math import gcd as _int_gcd

from .scalars import _ONE, _add, _divexact, _icontent, _idiv, _lead, _mul


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
    return _idiv(g, -1) if _lead(g) < 0 else g


# A certificate of coprimality, after Brown's modular gcd (W. S. Brown,
# J. ACM 18(4), 1971; Geddes, Czapor and Labahn 1992, ch. 7), used one way
# only: it may prove two views coprime, never that they share a factor.
# Let f, g be nonconstant views whose b-leading coefficients lf, lg in Z[a]
# have leading integers nonzero mod P.  Views are primitive, so no integer
# divides both, and a common factor h that is not a unit lies in Z[a] or
# has positive b-degree.
# 1. h in Z[a].  h divides every Z[a] coefficient of f and g, and its
#    leading integer divides that of lf, so its image mod P keeps its
#    degree and divides the images of them all.  If those images have a
#    unit gcd in F_P[a] (a coefficient that is 0 mod P is skipped), there
#    is no such h.  This holds where lf and lg share a factor, as a + 1
#    and (a + 1)b + a do; the scan stops at the first unit.
# 2. Positive b-degree.  By Gauss's lemma the b-leading coefficient of h
#    divides lf, so at any a0 where lf*lg does not vanish mod P the image
#    h(a0, b) keeps its b-degree and divides f(a0, b) and g(a0, b).  One
#    such a0 with coprime images in F_P[b] excludes h.  The first _POINTS
#    such a0 in 0, 1, ... are tried (lf*lg has at most deg lf + deg lg
#    roots mod P), since images at one point may share a factor, as b and
#    ab + a + b do at a0 = 0.
# Both steps passing proves gcd(f, g) = 1; otherwise the pseudo-remainder
# sequence decides.  No table cell in a symbolic-generic benchmark op runs
# a gcd: each point there is an affine automorphism of Q[a, b], which keeps
# a table cell in lowest terms (kernel._affine_point).  The certificate
# serves the other points, such as rational-function points.
_P = 2**30 - 35  # the largest prime below 2**30: a residue is one CPython digit
_POINTS = 3  # the points a0 step 2 tries before the PRS decides


def _gcd_mod_p(u: list, v: list) -> list:
    """A gcd in F_P[x], not monic, of u and v, integer coefficient lists from
    degree 0 up whose last entries are nonzero mod _P; a unit has length 1.
    Euclid without inverses: u becomes lc(v)*u - lc(u)*x^k*v until its
    degree is below v's."""
    while len(v) > 1:
        dv, lv = len(v) - 1, v[-1]
        u = list(u)
        while len(u) > dv:
            lu = u.pop()
            k = len(u) - dv
            for j in range(len(u)):
                u[j] = (lv * u[j] - (lu * v[j - k] if j >= k else 0)) % _P
            while u and not u[-1]:
                u.pop()
        if not u:
            return v
        u, v = v, u
    return v


def _at(u, x: int) -> int:
    """A number congruent mod _P to u(x), for u over Z, a dict."""
    return sum([c * x**d for d, c in u.items()]) % _P


def _image(h, x: int) -> list:
    """The coefficient list in b, from degree 0 up, of h over Z[a] at a = x,
    each entry congruent mod _P to its value."""
    im = [0] * (max(h) + 1)
    for d, u in h.items():
        im[d] = _at(u, x)
    return im


def _certified_coprime(f, g) -> bool:
    """True only if the nonconstant views f and g are coprime (see above).
    Step 1 runs first: at the points where a table's gcds are not all 1,
    such as (1/a, b/a), each common factor is in Z[a], and step 2 is then
    skipped."""
    lf, lg = f[max(f)], g[max(g)]
    df, dg = max(lf), max(lg)
    if not (lf[df] % _P and lg[dg] % _P):
        return False
    if df and dg:  # else a nonzero constant mod P is a unit of F_P[a]
        h = [lf.get(d, 0) for d in range(df + 1)]
        for u in chain(g.values(), f.values()):
            u = [u.get(d, 0) % _P for d in range(max(u) + 1)]
            while u and not u[-1]:
                u.pop()
            if u:
                h = _gcd_mod_p(h, u)
                if len(h) == 1:
                    break
        else:
            return False
    points = (x for x in count() if _at(lf, x) % _P and _at(lg, x) % _P)
    return any(len(_gcd_mod_p(_image(f, x), _image(g, x))) == 1 for x in islice(points, _POINTS))
